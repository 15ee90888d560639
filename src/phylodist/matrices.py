"""Labeled symmetric matrices: pairwise distances and phylogenetic covariances.

Both kinds share one body, LabeledMatrix: immutable after construction, with
their invariants validated eagerly.  upper_mask fixes the canonical pair
order for every module.  The inverse Gromov transform converts a covariance
(Gram) matrix to the distance matrix d_ij = C_ii + C_jj - 2*C_ij.
"""

import numpy as np

from .errors import DataError, NumericError
from .files import write_table


def upper_mask(n):
    """n x n boolean mask of the pairs i < j; its row-major order is the
    canonical pair order."""
    return np.triu(np.ones((n, n), dtype=bool), 1)


class LabeledMatrix:
    """Square matrix labeled by taxon: one distinct label per row, finite and
    exactly symmetric.  Each subclass names its kind for error messages."""

    def __init__(self, labels, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataError(f"{self.kind} matrix must be square")
        n = values.shape[0]
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise DataError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise DataError("duplicate labels")
        if not np.all(np.isfinite(values)):
            raise DataError(f"{self.kind} matrix contains non-finite entries")
        if not np.array_equal(values, values.T):
            raise DataError(f"{self.kind} matrix is not exactly symmetric")
        values = np.array(values)
        values.setflags(write=False)
        self.labels, self.values = labels, values

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        return self.labels.index(label)

    def reorder(self, labels):
        """Return a copy with rows/columns arranged in the given label order.

        Each label must be known and given once.  Rows and columns picked
        alike from a valid matrix make a valid one, so the gather, already a
        fresh array, is adopted read-only without a second check or copy.
        """
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise DataError("duplicate labels")
        idx = [self.index(l) for l in labels]
        values = self.values[np.ix_(idx, idx)]
        values.setflags(write=False)
        out = object.__new__(type(self))
        out.labels, out.values = labels, values
        return out

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class DistanceMatrix(LabeledMatrix):
    """Symmetric nonnegative matrix with zero diagonal, labeled by taxon."""

    kind = "distance"

    def __init__(self, labels, values):
        super().__init__(labels, values)
        if np.any(np.diag(self.values) != 0.0):
            raise DataError("distance matrix diagonal must be exactly zero")
        if np.any(self.values < 0.0):
            raise DataError("distance matrix has negative entries")

    def get(self, a, b):
        return float(self.values[self.index(a), self.index(b)])

    def __eq__(self, other):
        return (
            isinstance(other, DistanceMatrix)
            and self.labels == other.labels
            and np.array_equal(self.values, other.values)
        )


class CovarianceMatrix(LabeledMatrix):
    """Matrix of shared root-to-MRCA path lengths; inverse_gromov rejects one
    that is not PSD."""

    kind = "covariance"


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
