"""Analytic pairwise distance estimators: Hamming, Jukes-Cantor, Kimura 2P.

Correction formulas diverge at saturation (mismatch fraction >= 3/4 for JC,
nonpositive log arguments for K2P); a SaturationPolicy either substitutes a
finite ceiling (default 5.0, chosen above the plateau a trained network
settles on) or raises SaturationError.
"""

import math
from dataclasses import dataclass

import numpy as np

from .alignment import TRANSITIONS, Alignment, indicator_blocks
from .errors import ConfigError, DataError, SaturationError
from .matrices import DistanceMatrix, upper_mask

DEFAULT_CEILING = 5.0


@dataclass(frozen=True)
class SaturationPolicy:
    """What to do when a correction formula leaves its domain."""

    mode: str = "ceiling"  # "ceiling" | "error"
    ceiling: float = DEFAULT_CEILING

    def __post_init__(self):
        if self.mode not in ("ceiling", "error"):
            raise ConfigError(f"unknown saturation mode {self.mode!r}")
        if not (self.ceiling > 0 and math.isfinite(self.ceiling)):
            raise ConfigError("ceiling must be positive and finite")

    def apply(self, what):
        if self.mode == "error":
            raise SaturationError(f"{what} is saturated")
        return self.ceiling


def _as_states(x):
    if isinstance(x, str):
        return Alignment.from_sequences(["x"], [x]).states[0]
    return np.asarray(x)


def _check_pair(x, y):
    x, y = _as_states(x), _as_states(y)
    if x.shape != y.shape:
        raise DataError(f"sequence lengths differ: {x.shape[0]} vs {y.shape[0]}")
    if x.size == 0:
        raise DataError("empty sequences")
    return x, y


def d_hamming(x, y):
    """Fraction of mismatching sites."""
    x, y = _check_pair(x, y)
    return float(np.mean(x != y))


def jc_correct(p, policy=SaturationPolicy()):
    """Jukes-Cantor corrected distance for mismatch fraction p."""
    if p >= 0.75:
        return policy.apply(f"JC correction at mismatch fraction {p}")
    return -0.75 * math.log1p(-4.0 * p / 3.0)


def d_jc(x, y, policy=SaturationPolicy()):
    """Jukes-Cantor distance: -(3/4) ln(1 - (4/3) p) for Hamming fraction p."""
    return jc_correct(d_hamming(x, y), policy)


def transition_transversion_fractions(x, y):
    """(transition fraction, transversion fraction) of differing sites."""
    x, y = _check_pair(x, y)
    diff = x != y
    lo = np.minimum(x, y)[diff]
    hi = np.maximum(x, y)[diff]
    ts = sum(int(np.count_nonzero((lo == i) & (hi == j))) for i, j in TRANSITIONS)
    total = int(np.count_nonzero(diff))
    n = x.size
    return ts / n, (total - ts) / n


def k2p_correct(p, q, policy=SaturationPolicy()):
    """Kimura 2-parameter distance from transition/transversion fractions."""
    a = 1.0 - 2.0 * p - q
    b = 1.0 - 2.0 * q
    if a <= 0.0 or b <= 0.0:
        return policy.apply(f"K2P correction at (p={p}, q={q})")
    return -0.5 * math.log(a) - 0.25 * math.log(b)


def d_k2p(x, y, policy=SaturationPolicy()):
    """Kimura 2P distance: -(1/2) ln(1-2p-q) - (1/4) ln(1-2q)."""
    p, q = transition_transversion_fractions(x, y)
    return k2p_correct(p, q, policy)


_KINDS = ("hamming", "jc", "k2p")


def check_kind(kind):
    """Raise ConfigError unless kind names an analytic estimator."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown distance kind {kind!r}; options {sorted(_KINDS)}")


def _pair_counts(states, transitions):
    """Matching and transition counts of every row pair of an n x L state matrix.

    Row i of X is the 0/1 indicator of its states, laid out as the A, C, G
    and T blocks of sites, so X Xᵀ counts matches.  The A,C half times the
    G,T half counts the A-G and C-T pairs (alignment.TRANSITIONS) in one
    orientation.
    """
    n = states.shape[0]
    matches = np.zeros((n, n))
    ts = np.zeros((n, n)) if transitions else None
    for block in indicator_blocks(states):
        x = block.reshape(n, -1)
        matches += x @ x.T
        if transitions:
            half = x.shape[1] // 2
            one_way = x[:, :half] @ x[:, half:].T
            ts += one_way
            ts += one_way.T
    return matches, ts


def distance_matrix(aln, kind="jc", policy=SaturationPolicy()):
    """All-pairs distance matrix under one analytic estimator.

    Labels come out in sorted (canonical) order.  The counts of all pairs come
    from BLAS.  A pair's distance depends only on its integer counts at fixed
    L, so the matrix makes one scalar correction per distinct count: the key
    of a pair is m (L + 1) + t for k2p and m for jc and hamming (m mismatches,
    t transitions), and the scalar jc_correct/k2p_correct runs once per
    distinct key.  Entries therefore equal those of d_hamming/d_jc/d_k2p bit
    for bit.  Keys are corrected in the order of their first pair in
    row-major order, so a saturation error names the first saturated pair.
    """
    check_kind(kind)
    if aln.n < 3:
        raise DataError(f"distance matrix needs >= 3 sequences, got {aln.n}")
    length = aln.length
    if length == 0:
        raise DataError("empty sequences")
    labels = tuple(sorted(aln.labels))
    row_of = {lab: i for i, lab in enumerate(aln.labels)}
    states = aln.states[[row_of[lab] for lab in labels]]
    n = len(labels)
    # keys are built in the matches buffer: integers below (L + 1)^2, exact
    # in float64
    keys, ts = _pair_counts(states, kind == "k2p")
    np.subtract(length, keys, out=keys)
    if kind == "k2p":
        keys *= length + 1
        keys += ts
    del ts
    # the mask is made again for the scatter below, so it is not held
    # through np.unique's peak
    pair_keys = keys[upper_mask(n)]
    del keys
    distinct, inverse = np.unique(pair_keys, return_inverse=True)
    del pair_keys
    # the first pair of each key in row-major order (a stable sort in
    # np.unique's return_index costs several times this)
    first = np.full(distinct.size, inverse.size)
    np.minimum.at(first, inverse, np.arange(inverse.size))
    counts = distinct.astype(np.int64).tolist()
    values = [0.0] * len(counts)
    for k in np.argsort(first).tolist():
        m, t = divmod(counts[k], length + 1) if kind == "k2p" else (counts[k], 0)
        try:
            if kind == "hamming":
                values[k] = m / length
            elif kind == "jc":
                values[k] = jc_correct(m / length, policy)
            else:
                values[k] = k2p_correct(t / length, (m - t) / length, policy)
        except SaturationError as err:
            i, j = divmod(int(np.flatnonzero(upper_mask(n))[first[k]]), n)
            raise SaturationError(f"pair ({labels[i]}, {labels[j]}): {err}") from None
    d = np.zeros((n, n))
    values = np.array(values)[inverse]
    del inverse
    upper = upper_mask(n)
    d[upper] = values
    d.T[upper] = values
    del values
    return DistanceMatrix(labels, d)
