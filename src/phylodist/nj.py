"""Neighbor-joining and BIONJ tree construction.

Input matrices are reindexed into sorted label order before anything else, so
the algorithm (including tie-breaking by first row-major Q minimum, which is
then the lexicographically smallest label pair) is exactly invariant to input
permutations.  Negative inferred branch lengths are clamped to zero without
redistribution.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .matrices import DistanceMatrix
from .tree import PhyloTree


@dataclass(frozen=True)
class JoinRecord:
    pair: tuple
    q_value: float
    branch_lengths: tuple


@dataclass(frozen=True)
class JoinTrace:
    """Audit record of the n-3 join decisions of one NJ/BIONJ run."""

    records: tuple

    def __len__(self):
        return len(self.records)


class _TreeAccumulator:
    def __init__(self, labels):
        self.parent = [-1] * len(labels)
        self.children = [[] for _ in labels]
        self.blen = [0.0] * len(labels)
        self.labels = list(labels)

    def join(self, members, lengths):
        idx = len(self.parent)
        self.parent.append(-1)
        self.children.append(list(members))
        self.blen.append(0.0)
        self.labels.append(None)
        for m, l in zip(members, lengths):
            self.parent[m] = idx
            self.blen[m] = max(0.0, l)
        return idx

    def tree(self):
        return PhyloTree(self.parent, self.children, self.blen, self.labels, rooted=False)


def _prepare(dist):
    if not isinstance(dist, DistanceMatrix):
        raise DataError("expected a DistanceMatrix")
    if dist.n < 4:
        raise DataError(f"neighbor joining needs >= 4 taxa, got {dist.n}")
    order = sorted(range(dist.n), key=dist.labels.__getitem__)
    # index arrays copy, so the joins may overwrite the result in place
    return tuple(dist.labels[i] for i in order), dist.values[np.ix_(order, order)]


def _drop(m, k, j, scratch):
    """Remove row and column j from the leading k x k block of m, in place.

    The trailing rows, then the trailing columns, move up/left by one through
    the flat scratch buffer (no temporaries), so the block keeps its order.
    """
    if j == k - 1:
        return
    rows = scratch[: (k - 1 - j) * k].reshape(k - 1 - j, k)
    np.copyto(rows, m[j + 1 : k, :k])
    m[j : k - 1, :k] = rows
    cols = scratch[: (k - 1) * (k - 1 - j)].reshape(k - 1, k - 1 - j)
    np.copyto(cols, m[: k - 1, j + 1 : k])
    m[: k - 1, j : k - 1] = cols


def _terminate_three(acc, nodes, d, trace):
    a, b, c = 0, 1, 2
    la = 0.5 * (d[a, b] + d[a, c] - d[b, c])
    lb = 0.5 * (d[a, b] + d[b, c] - d[a, c])
    lc = 0.5 * (d[a, c] + d[b, c] - d[a, b])
    acc.join(nodes, (la, lb, lc))
    return acc.tree(), JoinTrace(tuple(trace))


def _join(dist, weighted):
    """The n-3 joins of NJ (weighted=False) or BIONJ, then the last three.

    d (and BIONJ's variances v) live in n x n buffers whose leading k x k
    block is the active matrix; each join rewrites row and column i and drops
    j.  Q, its row-major argmin, the branch lengths and the reduction are
    computed with the same operations in the same order as on a fresh k x k
    copy, so results do not depend on the buffering.
    """
    labels, d = _prepare(dist)
    n = len(labels)
    v = d.copy() if weighted else None
    qbuf = np.empty(n * n)
    rbuf = np.empty(n)
    acc = _TreeAccumulator(labels)
    nodes = list(range(n))
    trace = []
    for k in range(n, 3, -1):
        dk = d[:k, :k]
        r = np.add.reduce(dk, axis=1, out=rbuf[:k])
        q = qbuf[: k * k].reshape(k, k)
        np.multiply(k - 2, dk, out=q)
        np.subtract(q, r[:, None], out=q)
        np.subtract(q, r[None, :], out=q)
        qbuf[: k * k : k + 1] = np.inf  # the diagonal
        i, j = divmod(int(q.argmin()), k)
        dij = dk[i, j]
        li = 0.5 * dij + (r[i] - r[j]) / (2.0 * (k - 2))
        lj = dij - li
        trace.append(
            JoinRecord((acc.labels[nodes[i]], acc.labels[nodes[j]]), float(q[i, j]), (li, lj))
        )
        nodes[i] = acc.join((nodes[i], nodes[j]), (li, lj))
        if weighted:
            vk = v[:k, :k]
            vij = vk[i, j]
            if vij > 0:
                # the m=i and m=j terms of the full-row sum cancel exactly
                lam = 0.5 + float(np.add.reduce(vk[j, :] - vk[i, :])) / (2.0 * (k - 2) * vij)
                lam = min(1.0, max(0.0, lam))
            else:
                lam = 0.5
            du = lam * (dk[i, :] - li) + (1.0 - lam) * (dk[j, :] - lj)
            vu = lam * vk[i, :] + (1.0 - lam) * vk[j, :] - lam * (1.0 - lam) * vij
            vk[i, :] = vu
            vk[:, i] = vu
            vk[i, i] = 0.0
            _drop(v, k, j, qbuf)
        else:
            du = 0.5 * (dk[i, :] + dk[j, :] - dij)
        dk[i, :] = du
        dk[:, i] = du
        dk[i, i] = 0.0
        _drop(d, k, j, qbuf)
        nodes.pop(j)
    return _terminate_three(acc, nodes, d, trace)


def neighbor_join(dist, return_trace=False):
    """Canonical neighbor joining (Saitou-Nei / Studier-Keppler form).

    Exact on additive matrices: the output topology reproduces the generating
    tree.  Returns an unrooted PhyloTree; with return_trace, also the
    JoinTrace of the n-3 join decisions.
    """
    tree, trace = _join(dist, weighted=False)
    return (tree, trace) if return_trace else tree


def bionj(dist, return_trace=False):
    """BIONJ: neighbor joining with a variance-weighted reduction step.

    Estimate variances are taken proportional to the distances; the update
    weight lambda minimizes the variance of the reduced distances and is
    clamped to [0, 1].  Pair selection and branch lengths are as in NJ, so
    additive inputs reproduce the NJ topology exactly.
    """
    tree, trace = _join(dist, weighted=True)
    return (tree, trace) if return_trace else tree
