"""Metric-property auditing of square matrices.

Checks symmetry, zero diagonal, nonnegativity and the full set of n^3
triangle inequalities (exhaustive up to n = 64 by default, sampled above),
reporting the number of violated triples and the worst violation margin.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .matrices import DistanceMatrix, upper_mask
from .rng import substream

_TOL = 1e-9
_EXHAUSTIVE_LIMIT = 64
_SAMPLED_TRIPLES = 10**6


@dataclass(frozen=True)
class MetricAudit:
    is_symmetric: bool
    zero_diagonal: bool
    nonnegative: bool
    triangle_violations: int
    worst_margin: float
    sampled: bool

    @property
    def is_dissimilarity(self):
        return self.is_symmetric and self.zero_diagonal and self.nonnegative

    @property
    def is_metric(self):
        return self.is_dissimilarity and self.triangle_violations == 0


def audit_metric(matrix, exhaustive=None):
    """Audit a square matrix (or DistanceMatrix) for metric axioms.

    exhaustive=None checks all triples for n <= 64 and samples 10^6 random
    triples above; pass True to force the full scan.
    """
    if isinstance(matrix, DistanceMatrix):
        d = matrix.values
    else:
        d = np.asarray(matrix, float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DataError("audit requires a square matrix")
    n = d.shape[0]
    is_symmetric = bool(np.max(np.abs(d - d.T)) <= _TOL) if n else True
    zero_diagonal = bool(np.max(np.abs(np.diag(d))) <= _TOL) if n else True
    nonnegative = bool(d.min() >= -_TOL) if n else True

    if exhaustive is None:
        exhaustive = n <= _EXHAUSTIVE_LIMIT
    if exhaustive:
        # margin[i, j] = d_ij - d_ik - d_kj over i < j, one k at a time
        upper = upper_mask(n)
        violations, worst = 0, -np.inf
        for k in range(n):
            margin = d - d[:, k : k + 1] - d[k : k + 1, :]
            margin[k, :] = margin[:, k] = -np.inf  # k == i or k == j
            margin = margin[upper]
            violations += int(np.count_nonzero(margin > _TOL))
            worst = np.max(margin, initial=worst)
        worst = float(worst)
        sampled = False
    else:
        rng = substream(0, "triangle-audit")
        triples = rng.integers(0, n, size=(_SAMPLED_TRIPLES, 3))
        i, j, k = triples.T
        ok = (i < j) & (k != i) & (k != j)
        i, j, k = i[ok], j[ok], k[ok]
        margins = d[i, j] - d[i, k] - d[k, j]
        violations = int(np.count_nonzero(margins > _TOL))
        worst = float(margins.max()) if margins.size else -np.inf
        sampled = True
    return MetricAudit(
        is_symmetric=is_symmetric,
        zero_diagonal=zero_diagonal,
        nonnegative=nonnegative,
        triangle_violations=violations,
        worst_margin=worst,
        sampled=sampled,
    )
