"""Labeled symmetric matrices: pairwise distances and phylogenetic covariances.

Both types are immutable after construction and validate their invariants
eagerly.  The inverse Gromov transform converts a covariance (Gram) matrix to
the distance matrix d_ij = C_ii + C_jj - 2*C_ij.
"""

import numpy as np

from .errors import DataError, NumericError
from .files import write_table

_PSD_TOL = 1e-8


def _validated(kind, labels, values):
    """(labels, frozen values) of a labeled square matrix after the checks
    shared by both matrix kinds: square, one distinct label per row, finite
    and exactly symmetric."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise DataError(f"{kind} matrix must be square")
    n = values.shape[0]
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise DataError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise DataError("duplicate labels")
    if not np.all(np.isfinite(values)):
        raise DataError(f"{kind} matrix contains non-finite entries")
    if not np.array_equal(values, values.T):
        raise DataError(f"{kind} matrix is not exactly symmetric")
    values = np.array(values)
    values.setflags(write=False)
    return labels, values


class DistanceMatrix:
    """Symmetric nonnegative matrix with zero diagonal, labeled by taxon."""

    def __init__(self, labels, values):
        self.labels, self.values = _validated("distance", labels, values)
        if np.any(np.diag(self.values) != 0.0):
            raise DataError("distance matrix diagonal must be exactly zero")
        if np.any(self.values < 0.0):
            raise DataError("distance matrix has negative entries")

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        return self.labels.index(label)

    def get(self, a, b):
        return float(self.values[self.index(a), self.index(b)])

    def reorder(self, labels):
        """Return a copy with rows/columns arranged in the given label order."""
        idx = [self.index(l) for l in labels]
        return DistanceMatrix(labels, self.values[np.ix_(idx, idx)])

    def __eq__(self, other):
        return (
            isinstance(other, DistanceMatrix)
            and self.labels == other.labels
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"DistanceMatrix(n={self.n})"


class CovarianceMatrix:
    """Symmetric PSD matrix of shared root-to-MRCA path lengths."""

    def __init__(self, labels, values, check_psd=True):
        self.labels, self.values = _validated("covariance", labels, values)
        if check_psd:
            w = np.linalg.eigvalsh(self.values)
            if w.size and w[0] < -_PSD_TOL:
                raise DataError(
                    f"covariance matrix is not PSD (min eigenvalue {w[0]:.3e})"
                )

    @property
    def n(self):
        return len(self.labels)

    def __repr__(self):
        return f"CovarianceMatrix(n={self.n})"


def inverse_gromov(cov):
    """Distance matrix d_ij = C_ii + C_jj - 2*C_ij from a covariance matrix.

    Raises NumericError if any resulting entry is below -1e-9 (the input was
    not PSD); entries in [-1e-9, 0] are clamped to zero.
    """
    labels, c = cov.labels, cov.values
    diag = np.diag(c)
    d = diag[:, None] + diag[None, :] - 2.0 * c
    if np.any(d < -1e-9):
        i, j = np.unravel_index(np.argmin(d), d.shape)
        raise NumericError(
            f"inverse Gromov transform produced negative distance "
            f"{d[i, j]:.3e} for pair ({labels[i]}, {labels[j]})"
        )
    d[d < 0.0] = 0.0
    np.fill_diagonal(d, 0.0)
    d = np.maximum(d, d.T)  # exact symmetry regardless of rounding
    return DistanceMatrix(labels, d)


def write_tsv(mat, path):
    """Write a labeled square matrix as TSV with a header row of labels."""
    rows = ([lab, *row.tolist()] for lab, row in zip(mat.labels, mat.values))
    write_table(path, ("",) + mat.labels, rows)


def _parse_values(rows, n):
    """The n values after the label of each row, parsed by numpy's C reader to
    the doubles float() gives.  comments=None: the default "#" would cut a row
    short wherever one appears."""
    return np.loadtxt(rows, delimiter="\t", usecols=range(1, n + 1), comments=None, ndmin=2)


def read_tsv(path):
    """Read a labeled distance matrix from TSV (see write_tsv).

    Values take Python's float syntax, surrounded by any whitespace, without
    "_" separators or non-ASCII digits."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty matrix file")
    labels = lines[0].split("\t")[1:]
    n = len(labels)
    if not n:
        raise DataError(f"{path}: header row names no taxa")
    rows = lines[1:]
    if len(rows) != n:
        raise DataError(f"{path}: expected {n} data rows, found {len(rows)}")
    for i, (label, row) in enumerate(zip(labels, rows)):
        tabs = row.count("\t")
        if tabs != n:
            raise DataError(f"{path}: row {i + 1} has {tabs} values")
        if not row.startswith(label + "\t"):
            got = row.split("\t", 1)[0]
            raise DataError(f"{path}: row label {got!r} does not match header {label!r}")
    try:
        values = _parse_values(rows, n)
    except ValueError:
        # only a malformed file pays for finding its first bad row
        for i, row in enumerate(rows):
            try:
                _parse_values([row], n)
            except ValueError:
                raise DataError(f"{path}: row {i + 1} has a non-numeric value") from None
        raise
    return DistanceMatrix(labels, values)
