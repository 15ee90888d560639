"""Randomized low-distortion Euclidean embedding and distortion measurement.

The embedding assigns each point the vector of its distances to a sequence
of random subsets whose sizes double: coordinate i is d(x, A_i) with
|A_i| = 2**(i-1), i = 1..floor(log2 n).  Each coordinate is a 1-Lipschitz
map of the input metric (non-expansion is exact, not approximate).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .matrices import DistanceMatrix
from .rng import substream

_ROW_BLOCK = 64


@dataclass(frozen=True)
class DistortionReport:
    rho: float
    r: float
    worst_expanding: tuple
    worst_contracting: tuple

    def __post_init__(self):
        if not (self.rho >= 1.0 or math.isinf(self.rho)):
            raise DataError(f"distortion must be >= 1, got {self.rho}")


def llr_embed(dist, seed):
    """Embed a finite metric into R^k, k = floor(log2 n); deterministic per seed.

    Subset sizes start at 1 so two points always separate; a size-n subset
    would give the all-zero coordinate.
    """
    if not isinstance(dist, DistanceMatrix):
        raise DataError("llr_embed expects a DistanceMatrix")
    n = dist.n
    if n < 2:
        raise DataError("embedding needs at least 2 points")
    k = int(math.floor(math.log2(n)))
    coords = np.zeros((n, k))
    for i in range(1, k + 1):
        rng = substream(seed, "llr-subset", i)
        size = 2 ** (i - 1)
        subset = rng.choice(n, size=size, replace=False)
        coords[:, i - 1] = dist.values[:, subset].min(axis=1)
    return coords


def euclidean_matrix(labels, points):
    """Pairwise Euclidean distances of embedded points as a DistanceMatrix,
    _ROW_BLOCK rows at a time (O(n²) memory, not O(n²k)).  Each pair sums its k
    squares along one contiguous axis: exactly symmetric, whatever the block."""
    points = np.asarray(points, float)
    d = np.empty((len(points), len(points)))
    for lo in range(0, len(points), _ROW_BLOCK):
        diff = points[lo : lo + _ROW_BLOCK, None, :] - points[None, :, :]
        d[lo : lo + _ROW_BLOCK] = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(labels, d)


def measure_distortion(d1, d2):
    """Tightest constants r, rho with r*d1 <= d2 <= r*rho*d1 over all pairs.

    A pair at positive d1 but zero d2 (a collision of embedded points) makes
    the distortion infinite; the colliding pair is reported.
    """
    if d1.labels != d2.labels:
        raise DataError("distortion requires matching label order")
    n = d1.n
    iu = np.triu_indices(n, k=1)
    a = d1.values[iu]
    b = d2.values[iu]

    def pair(k):
        return d1.labels[iu[0][k]], d1.labels[iu[1][k]]

    if np.any(a <= 0):
        k = int(np.argmax(a <= 0))
        raise DataError(f"d1 has a zero off-diagonal entry for pair ({', '.join(pair(k))})")
    ratios = b / a
    lo = int(np.argmin(ratios))
    hi = int(np.argmax(ratios))
    r = float(ratios[lo])
    if r == 0.0:
        return DistortionReport(math.inf, 0.0, pair(hi), pair(lo))
    return DistortionReport(float(ratios[hi] / r), r, pair(hi), pair(lo))


def embedding_distortion(dist, seed):
    """Distortion of the embedding of ``dist`` drawn with ``seed``."""
    emb = llr_embed(dist, seed)
    return measure_distortion(dist, euclidean_matrix(dist.labels, emb))
