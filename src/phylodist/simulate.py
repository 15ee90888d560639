"""Birth-death tree simulation and nucleotide sequence evolution.

Trees come from a crown-start birth-death process conditioned on reaching n
extant lineages; extinct lineages are pruned and full extinctions trigger a
resimulation.  Sequences evolve site-independently under JC, K2P or HKY with
optional continuous Gamma rate heterogeneity (mean-1 rates).  All transition
probabilities are exact matrix exponentials obtained from the eigendecomposed
reversible generator.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .alignment import Alignment, TRANSITIONS
from .errors import ConfigError
from .rng import substream
from .tree import NodeTable, scale_branches


@dataclass(frozen=True)
class BDParams:
    """Birth-death simulation parameters (rates per unit time)."""

    lam: float
    mu: float
    n: int

    def __post_init__(self):
        # the sum is the event rate; where it overflows every event is a death
        if not (math.isfinite(self.lam + self.mu) and self.lam > self.mu >= 0):
            raise ConfigError(f"need finite lambda > mu >= 0, got ({self.lam}, {self.mu})")
        if self.n < 3:
            raise ConfigError(f"need n >= 3 leaves, got {self.n}")
        # n lineages wait for the next event at rate (lambda + mu) * n; where
        # that overflows every waiting time, so every branch, is zero
        if not self.n <= sys.float_info.max / (self.lam + self.mu):
            raise ConfigError(f"(lambda + mu) * n overflows for ({self.lam}, {self.mu}, {self.n})")
        # a waiting time is an exponential draw of mean at most 1 / (lambda + mu),
        # and numpy draws none above 64 means: keep the sum of 2**32 such
        # draws, so every raw event time, finite
        if not (self.lam + self.mu) * sys.float_info.max >= 2.0**38:
            least = 2.0**38 / sys.float_info.max
            raise ConfigError(
                f"need lambda + mu >= {least:.4g} for finite event times, got {self.lam + self.mu}"
            )


@dataclass(frozen=True)
class SubstModel:
    """Substitution model: JC, K2P (kappa) or HKY (kappa + base frequencies).

    gamma_shape, when set, draws a mean-1 Gamma(alpha, 1/alpha) rate per site.
    """

    kind: str = "JC"
    kappa: float = 1.0
    base_freqs: tuple = (0.25, 0.25, 0.25, 0.25)
    gamma_shape: float = None

    def __post_init__(self):
        if self.kind not in ("JC", "K2P", "HKY"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        pi = np.asarray(self.base_freqs, dtype=float)
        if pi.shape != (4,) or np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ConfigError("base frequencies must be 4 positive values summing to 1")
        if not 0 < self.kappa < math.inf:
            raise ConfigError("kappa must be positive and finite")
        if self.kind == "JC" and self.kappa != 1.0:
            raise ConfigError("JC forces kappa = 1")
        if self.kind != "HKY" and not np.allclose(pi, 0.25, atol=0):
            raise ConfigError(f"{self.kind} forces uniform base frequencies")
        if self.gamma_shape is not None and not 0 < self.gamma_shape < math.inf:
            raise ConfigError("gamma_shape must be positive and finite")
        object.__setattr__(self, "base_freqs", tuple(float(x) for x in pi))


def sample_hky_frequencies(seed):
    """Dirichlet(5,5,5,5) draw mimicking empirical nucleotide frequency spread."""
    rng = substream(seed, "hky-freqs")
    return tuple(rng.dirichlet([5.0, 5.0, 5.0, 5.0]))


def rate_matrix(model):
    """HKY generator normalized to one expected substitution per unit time.

    Off-diagonal q_ij = kappa*pi_j for transitions and pi_j for transversions;
    JC and K2P arise as restrictions.  Rows sum to zero and pi Q = 0.
    """
    pi = np.asarray(model.base_freqs)
    q = np.tile(pi, (4, 1))
    for i, j in TRANSITIONS:
        q[i, j] *= model.kappa
        q[j, i] *= model.kappa
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    scale = -float(pi @ np.diag(q))
    return q / scale


# -- birth-death trees ---------------------------------------------------------


def _bd_attempt(rng, lam, mu, n):
    """One crown-start run; returns node arrays or None on full extinction."""
    parent = [-1, 0, 0]
    children = [[1, 2], [], []]
    born = [0.0, 0.0, 0.0]
    ended = [0.0, None, None]
    active = [1, 2]
    total = lam + mu
    t = 0.0
    while len(active) < n:
        if not active:
            return None
        t += rng.exponential(1.0 / (total * len(active)))
        k = int(rng.integers(len(active)))
        v = active[k]
        ended[v] = t
        active[k] = active[-1]
        active.pop()
        if rng.random() < lam / total:
            for _ in range(2):
                w = len(parent)
                parent.append(v)
                children[v].append(w)
                children.append([])
                born.append(t)
                ended.append(None)
                active.append(w)
    # observe at a uniform point inside the n-tip interval so the newborn
    # pair gets strictly positive pendant branches
    t += rng.random() * rng.exponential(1.0 / (total * n))
    for v in active:
        ended[v] = t
    extant = set(active)
    return parent, children, born, ended, extant


def _prune(parent, children, born, ended, extant, labels):
    """Drop extinct lineages, suppress unary nodes, relabel extant leaves."""
    n_nodes = len(parent)
    keep = [False] * n_nodes
    for v in range(n_nodes - 1, -1, -1):
        if v in extant:
            keep[v] = True
        else:
            keep[v] = any(keep[c] for c in children[v])

    # the crown is where the unary suppression from node 0 first branches;
    # (node, new parent, edge length) still to append, in preorder
    table = NodeTable()
    leaf_labels = iter(labels)
    stack = [(0, -1, 0.0)]
    while stack:
        v, new_parent, length = stack.pop()
        kept = [c for c in children[v] if keep[c]]
        while len(kept) == 1:  # suppress unary pass-through nodes
            v = kept[0]
            length += ended[v] - born[v]
            kept = [c for c in children[v] if keep[c]]
        idx = table.add(new_parent, length, None if kept else next(leaf_labels))
        stack.extend((c, idx, ended[c] - born[c]) for c in reversed(kept))
    table.length[0] = 0.0  # the crown has no edge above it
    return table.tree(rooted=True)


def simulate_bd_tree(params, seed):
    """Binary rooted tree with exactly params.n extant leaves.

    Crown-start simulation run until the n-th lineage appears; extinct
    lineages are pruned and fully extinct runs are rejected.  Branch lengths
    are expressed in net-diversification time units (raw event times scaled
    by lambda - mu), keeping typical tree diameters in the low single digits;
    pure-birth trees are unaffected.  Deterministic per seed.
    """
    rng = substream(seed, "bd-tree")
    width = len(str(params.n))
    labels = [f"t{i + 1:0{width}d}" for i in range(params.n)]
    while True:
        result = _bd_attempt(rng, params.lam, params.mu, params.n)
        if result is not None:
            tree = _prune(*result, labels)
            return scale_branches(tree, params.lam - params.mu)


# -- sequence evolution ---------------------------------------------------------


def _spectral(model):
    """(U, w, W) with P(t) = U diag(exp(w t)) W for the reversible generator."""
    q = rate_matrix(model)
    pi = np.asarray(model.base_freqs)
    sq = np.sqrt(pi)
    b = (sq[:, None] * q) / sq[None, :]
    w, v = np.linalg.eigh((b + b.T) / 2.0)
    u = v / sq[:, None]
    return u, w, v.T * sq[None, :]


def _stochastic_rows(a, decay, wt):
    """Rows of (a * decay) @ wt, negatives clamped to 0 and each row renormalised.

    With a = U, decay = exp(w t) this is P(t); with a = U[parent states] and an
    L x 4 decay it is the per-site transition rows under Gamma rates.
    """
    p = (a * decay) @ wt
    p[p < 0] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    return p


def _sample_rows(rng, p, rows):
    """One draw per entry of rows, by inverse CDF from that row of the
    stochastic matrix p: the branch's 4 x 4 P(t), or one row per site under
    Gamma rates (rows = 0..L-1).

    One uniform per draw; the state is the number of the first three
    cumulative sums of its row that the uniform exceeds.  The fourth is
    taken as 1.0, which no uniform in [0, 1) exceeds, so it is not compared.
    """
    cdf = np.cumsum(p, axis=1)
    u = rng.random(rows.shape[0])
    rows = rows.astype(np.intp)
    out = (u > cdf[:, 0][rows]).view(np.int8)
    out += u > cdf[:, 1][rows]
    out += u > cdf[:, 2][rows]
    return out


def evolve_alignment(tree, model, length, seed):
    """Evolve an alignment of the given length down a tree.

    The root sequence is drawn from the stationary distribution; each site
    evolves independently with transition matrices expm(r_s * Q * b), where
    r_s is the per-site Gamma rate.  Without Gamma rates every site shares
    the branch's 4 x 4 P(b), so it is computed once per branch.  Every
    branch consumes its own named random stream, so results are deterministic
    per seed regardless of traversal scheduling.
    """
    if length < 1:
        raise ConfigError("alignment length must be >= 1")
    rates = None
    if model.gamma_shape is not None:
        a = model.gamma_shape
        rates = substream(seed, "site-rates").gamma(a, 1.0 / a, size=length)

    u, w, wt = _spectral(model)
    pi = np.asarray(model.base_freqs)[None, :]
    root_rng = substream(seed, "root-seq")
    states = {tree.root: _sample_rows(root_rng, pi, np.zeros(length, dtype=np.int8))}

    for v in reversed(tree.postorder()):  # preorder: parents before children
        if v == tree.root:
            continue
        ps = states[tree.parent(v)]
        t = tree.branch_length(v)
        if t == 0.0:
            states[v] = ps
            continue
        rng = substream(seed, "branch", v)
        if rates is None:
            states[v] = _sample_rows(rng, _stochastic_rows(u, np.exp(w * t), wt), ps)
        else:
            probs = _stochastic_rows(u[ps, :], np.exp(np.outer(rates * t, w)), wt)
            states[v] = _sample_rows(rng, probs, np.arange(length))

    labels = [tree.label(v) for v in tree.leaves]
    return Alignment(labels, np.stack([states[v] for v in tree.leaves]))
