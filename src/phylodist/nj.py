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
from .tree import NodeTable


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


def _prepare(dist):
    if not isinstance(dist, DistanceMatrix):
        raise DataError("expected a DistanceMatrix")
    if dist.n < 4:
        raise DataError(f"neighbor joining needs >= 4 taxa, got {dist.n}")
    order = sorted(range(dist.n), key=dist.labels.__getitem__)
    # index arrays copy, so the joins may overwrite the result in place; the
    # drop moves rows through the raveled buffer, so it must be C-contiguous
    values = np.ascontiguousarray(dist.values[np.ix_(order, order)])
    return tuple(dist.labels[i] for i in order), values


def _drop(m, o, k, j, scratch):
    """Remove row and column j from the k x k block of m at offset (o, o), in
    place, and return the block's new offset.

    The side of j with fewer rows closes the gap: for j < k//2 the j leading
    rows move down one and the j leading columns right one, and the offset
    grows by one; otherwise the trailing rows move up one and the trailing
    columns left one.  The rows move as one flat slice of the raveled buffer
    (numpy copies an overlapping 1-D slice in place), the columns through the
    flat scratch buffer, so no temporary is made and the block keeps its order.
    """
    n = m.shape[1]
    flat = m.reshape(-1)
    # [lo, hi) runs from the first moved row's block start to the last one's
    # block end; the cells outside the block in between move along unread
    if j < k // 2:
        if j:
            lo, hi = o * n + o, (o + j - 1) * n + o + k
            flat[lo + n : hi + n] = flat[lo:hi]
            cols = scratch[: (k - 1) * j].reshape(k - 1, j)
            np.copyto(cols, m[o + 1 : o + k, o : o + j])
            m[o + 1 : o + k, o + 1 : o + j + 1] = cols
        return o + 1
    if j < k - 1:
        lo, hi = (o + j + 1) * n + o, (o + k - 1) * n + o + k
        flat[lo - n : hi - n] = flat[lo:hi]
        cols = scratch[: (k - 1) * (k - 1 - j)].reshape(k - 1, k - 1 - j)
        np.copyto(cols, m[o : o + k - 1, o + j + 1 : o + k])
        m[o : o + k - 1, o + j : o + k - 1] = cols
    return o


def _add_join(table, members, lengths):
    """Append the internal node joining members, with their negative branch
    lengths clamped to zero; return its index."""
    idx = table.add()
    for m, length in zip(members, lengths):
        table.link(m, idx)
        table.length[m] = max(0.0, length)
    return idx


def _join(dist, weighted):
    """The n-3 joins of NJ (weighted=False) or BIONJ, then the last three.

    d (and BIONJ's variances v) live in n x n buffers whose k x k block at the
    offset (o, o) is the active matrix; each join rewrites row and column i
    and drops j from the shorter side, moving the offset when that is the
    leading one.  Q, its row-major argmin, the branch lengths and the
    reduction are computed with the same operations in the same order as on
    a fresh k x k copy, so results do not depend on the buffering.
    """
    labels, d = _prepare(dist)
    n = len(labels)
    v = d.copy() if weighted else None
    qbuf = np.empty(n * n)
    rbuf = np.empty(n)
    table = NodeTable(labels)
    nodes = list(range(n))
    joins = []
    o = 0
    for k in range(n, 3, -1):
        dk = d[o : o + k, o : o + k]
        r = np.add.reduce(dk, axis=1, out=rbuf[:k])
        q = qbuf[: k * k].reshape(k, k)
        np.multiply(k - 2, dk, out=q)
        np.subtract(q, r[:, None], out=q)
        np.subtract(q, r[None, :], out=q)
        qbuf[: k * k : k + 1] = np.inf  # the diagonal
        ij = int(q.argmin())
        i, j = divmod(ij, k)
        dij = float(dk[i, j])
        li = 0.5 * dij + (float(r[i]) - float(r[j])) / (2.0 * (k - 2))
        lj = dij - li
        joins.append((table.label[nodes[i]], table.label[nodes[j]], float(qbuf[ij]), li, lj))
        nodes[i] = _add_join(table, (nodes[i], nodes[j]), (li, lj))
        if weighted:
            vk = v[o : o + k, o : o + k]
            vij = float(vk[i, j])
            if vij > 0:
                # the m=i and m=j terms of the full-row sum cancel exactly
                lam = 0.5 + float(np.add.reduce(vk[j, :] - vk[i, :])) / (2.0 * (k - 2) * vij)
                lam = min(1.0, max(0.0, lam))
            else:
                lam = 0.5
            du = lam * (dk[i, :] - li) + (1.0 - lam) * (dk[j, :] - lj)
            vu = lam * vk[i, :] + (1.0 - lam) * vk[j, :] - lam * (1.0 - lam) * vij
            vu[i] = 0.0
            vk[i, :] = vu
            vk[:, i] = vu
            _drop(v, o, k, j, qbuf)
        else:
            du = 0.5 * (dk[i, :] + dk[j, :] - dij)
        du[i] = 0.0
        dk[i, :] = du
        dk[:, i] = du
        o = _drop(d, o, k, j, qbuf)
        nodes.pop(j)
    d3 = d[o : o + 3, o : o + 3]  # the last three join at the root
    la = 0.5 * (d3[0, 1] + d3[0, 2] - d3[1, 2])
    lb = 0.5 * (d3[0, 1] + d3[1, 2] - d3[0, 2])
    lc = 0.5 * (d3[0, 2] + d3[1, 2] - d3[0, 1])
    _add_join(table, nodes, (la, lb, lc))
    trace = tuple(JoinRecord((a, b), q, (li, lj)) for a, b, q, li, lj in joins)
    return table.tree(rooted=False), JoinTrace(trace)


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
