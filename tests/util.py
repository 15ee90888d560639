"""Shared test helpers: independent oracles kept deliberately naive."""

import numpy as np

from phylodist import autodiff as ad
from phylodist.net.layers import MeanPoolSites
from phylodist.tree import PhyloTree


def random_binary_tree(rng, n, rooted=True, max_blen=1.0):
    """Random topology by sequential joining; branch lengths U(0.05, max_blen).

    Built directly on the node table so it does not exercise the package's
    own simulator or parser.
    """
    labels = [f"t{i:03d}" for i in range(n)]
    parent = [-1] * n
    children = [[] for _ in range(n)]
    blen = [0.0] * n
    node_label = list(labels)
    active = list(range(n))
    stop = 2 if rooted else 3
    while len(active) > stop:
        i, j = sorted(rng.choice(len(active), size=2, replace=False))
        a, b = active[i], active[j]
        new = len(parent)
        parent.append(-1)
        children.append([a, b])
        blen.append(0.0)
        node_label.append(None)
        parent[a] = new
        parent[b] = new
        active = [x for x in active if x not in (a, b)] + [new]
    root = len(parent)
    parent.append(-1)
    children.append(list(active))
    blen.append(0.0)
    node_label.append(None)
    for x in active:
        parent[x] = root
    for v in range(root):
        blen[v] = float(rng.uniform(0.05, max_blen))
    return PhyloTree(parent, children, blen, node_label, rooted=rooted)


def caterpillar_newick(n):
    """Rooted caterpillar ((((t0001,t0002),t0003),...),tn) as Newick text,
    leaves 1.0 and internal edges 0.5 long; nesting depth n - 1."""
    labels = [f"t{i + 1:04d}" for i in range(n)]
    head = "(" * (n - 1) + f"{labels[0]}:1.0,{labels[1]}:1.0)"
    return head + "".join(f":0.5,{lab}:1.0)" for lab in labels[2:]) + ";"


def reference_join(labels, d, weighted):
    """NJ (weighted=False) or BIONJ that copies the shrinking matrix with
    np.delete at every join.  labels must be sorted, d ordered to match.
    Returns (Newick text, [(pair, q, li, lj) per join]) with lengths in hex."""
    d = np.array(d, dtype=float)
    v = d.copy()
    text = list(labels)
    names = list(labels)
    trace = []
    while d.shape[0] > 3:
        k = d.shape[0]
        r = d.sum(axis=1)
        q = (k - 2) * d - r[:, None] - r[None, :]
        np.fill_diagonal(q, np.inf)
        i, j = divmod(int(np.argmin(q)), k)
        li = 0.5 * d[i, j] + (r[i] - r[j]) / (2.0 * (k - 2))
        lj = d[i, j] - li
        trace.append(((names[i], names[j]), float(q[i, j]).hex(), float(li).hex(), float(lj).hex()))
        if weighted:
            lam = 0.5
            if v[i, j] > 0:
                lam = 0.5 + float(np.sum(v[j, :] - v[i, :])) / (2.0 * (k - 2) * v[i, j])
                lam = min(1.0, max(0.0, lam))
            du = lam * (d[i, :] - li) + (1.0 - lam) * (d[j, :] - lj)
            vu = lam * v[i, :] + (1.0 - lam) * v[j, :] - lam * (1.0 - lam) * v[i, j]
            v[i, :] = vu
            v[:, i] = vu
            v[i, i] = 0.0
        else:
            du = 0.5 * (d[i, :] + d[j, :] - d[i, j])
        d[i, :] = du
        d[:, i] = du
        d[i, i] = 0.0
        text[i] = f"({text[i]}:{max(0.0, float(li))!r},{text[j]}:{max(0.0, float(lj))!r})"
        names[i] = None
        d = np.delete(np.delete(d, j, axis=0), j, axis=1)
        v = np.delete(np.delete(v, j, axis=0), j, axis=1)
        text.pop(j)
        names.pop(j)
    la = 0.5 * (d[0, 1] + d[0, 2] - d[1, 2])
    lb = 0.5 * (d[0, 1] + d[1, 2] - d[0, 2])
    lc = 0.5 * (d[0, 2] + d[1, 2] - d[0, 1])
    ends = [f"{t}:{max(0.0, float(x))!r}" for t, x in zip(text, (la, lb, lc))]
    return "(" + ",".join(ends) + ");", trace


def sample_categorical(rng, probs):
    """One draw per row of a stochastic matrix, via inverse CDF over all four
    cumulative sums, the last set to 1.0."""
    cdf = np.cumsum(probs, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(probs.shape[0])
    return (u[:, None] > cdf).sum(axis=1).astype(np.int8)


def leaf_paths_to_root(tree):
    """node index -> list of nodes from leaf up to the root (inclusive)."""
    paths = {}
    for v in tree.leaves:
        path = [v]
        while tree.parent(path[-1]) is not None:
            path.append(tree.parent(path[-1]))
        paths[v] = path
    return paths


def naive_patristic(tree):
    """All-pairs path-walk oracle: strip the shared root-path suffix and sum
    branch lengths along the two remaining prefixes."""
    paths = leaf_paths_to_root(tree)
    labels = sorted(tree.leaf_labels)
    row = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    d = np.zeros((n, n))
    leaves = list(tree.leaves)
    for ai in range(n):
        for bi in range(ai + 1, n):
            a, b = leaves[ai], leaves[bi]
            pa, pb = list(paths[a]), list(paths[b])
            while len(pa) > 1 and len(pb) > 1 and pa[-2] == pb[-2]:
                pa.pop()
                pb.pop()
            total = sum(tree.branch_length(v) for v in pa[:-1])
            total += sum(tree.branch_length(v) for v in pb[:-1])
            d[row[tree.label(a)], row[tree.label(b)]] = total
            d[row[tree.label(b)], row[tree.label(a)]] = total
    return labels, d


def naive_splits(tree):
    """Split oracle: delete each edge and BFS the remaining adjacency."""
    adj = {v: set() for v in range(tree.n_nodes)}
    for v in range(tree.n_nodes):
        p = tree.parent(v)
        if p is not None:
            adj[v].add(p)
            adj[p].add(v)
    taxa = set(tree.leaf_labels)
    smallest = min(taxa)
    out = set()
    for v in range(tree.n_nodes):
        if tree.parent(v) is None:
            continue
        seen = {v}
        stack = [v]
        blocked = tree.parent(v)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen and not (u == v and w == blocked):
                    seen.add(w)
                    stack.append(w)
        side = {tree.label(u) for u in seen if u in tree.leaves}
        if 2 <= len(side) <= len(taxa) - 2:
            if smallest not in side:
                side = taxa - side
            out.add(frozenset(side))
    return frozenset(out)


def naive_site_forward(spec, aln):
    """Per-site forward oracle: every layer runs without site weights on all
    L one-hot columns, the pair stack on the full (P, 2h, L) tensor of the
    label-sorted pairs.  Returns the (n, n) output tensor in input row order,
    scattered through a dense 0/1 matrix."""
    n = aln.n
    rows = sorted(range(n), key=lambda i: aln.labels[i])
    pairs = [(rows[a], rows[b]) for a in range(n) for b in range(a + 1, n)]
    ii, jj = [i for i, _ in pairs], [j for _, j in pairs]
    t = ad.Tensor(aln.onehot())
    for layer in spec.seq_stack:
        t = layer.forward(t)
    if spec.is_pair_net:
        pair = ad.concat([t[ii], t[jj]], axis=1)
        for layer in spec.pair_stack:
            pair = layer.forward(pair)
        if pair.ndim == 3:
            pair = MeanPoolSites().forward(pair)
        vals = spec.g.forward(pair)
        if spec.config.get("nonneg") == "softplus":
            vals = ad.softplus(vals)
    else:
        z = spec.embed.forward(MeanPoolSites().forward(t))
        if spec.head == "inner_product":
            return z @ ad.moveaxis(z, 0, 1)
        diff = z[ii] - z[jj]
        vals = ad.sqrt(ad.tensor_sum(diff * diff, axis=1))
    scatter = np.zeros((len(pairs), n * n))
    for p, (i, j) in enumerate(pairs):
        scatter[p, i * n + j] = scatter[p, j * n + i] = 1.0
    return ad.reshape(ad.reshape(vals, (1, -1)) @ scatter, (n, n))
