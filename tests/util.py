"""Shared test helpers: independent oracles kept deliberately naive, the
gradient, transition-matrix and compression checks that only tests run, and a
weights file in an older parameter-table layout."""

import base64

import numpy as np

from phylodist import autodiff as ad
from phylodist.alignment import ALPHABET
from phylodist.net.architectures import _FIRST, _SECOND
from phylodist.net.layers import MeanPoolSites, _site_mean
from phylodist.simulate import _spectral, _stochastic_rows
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


def naive_sequence(aln, i):
    """Row i of an alignment as letters, one character at a time."""
    return "".join(ALPHABET[s] for s in aln.states[i])


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


def naive_site_forward(spec, aln, hidden=None):
    """Per-site forward oracle: every layer runs without site weights on all
    L one-hot columns, the pair stack on the full (P, 2h, L) tensor of the
    label-sorted pairs.  Returns the (n, n) output tensor in input row order,
    scattered through a dense 0/1 matrix.  When hidden is a list, each 3-D
    activation of the stacks is appended to it as an array."""
    n = aln.n
    rows = sorted(range(n), key=lambda i: aln.labels[i])
    pairs = [(rows[a], rows[b]) for a in range(n) for b in range(a + 1, n)]
    ii, jj = [i for i, _ in pairs], [j for _, j in pairs]

    def run(stack, t):
        for layer in stack:
            t = layer.forward(t)
            if hidden is not None and t.ndim == 3:
                hidden.append(t.data)
        return t

    t = run(spec.seq_stack, ad.Tensor(aln.onehot()))
    if spec.is_pair_net:
        pair = run(spec.pair_stack, ad.concat([t[ii], t[jj]], axis=1))
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


def _unique_columns(mat):
    """Number of distinct columns, coordinates compared at resolution 1e-6."""
    cols = np.round(np.asarray(mat, float).T / 1e-6).astype(np.int64)
    return int(np.unique(cols, axis=0).shape[0])


def site_pattern_compression(spec, aln):
    """Unique site patterns in the last 3-D hidden activation of the per-site
    forward / unique input patterns."""
    hidden = []
    with ad.no_tape():
        naive_site_forward(spec, aln, hidden)
    columns = _unique_columns(hidden[-1].reshape(-1, aln.length))
    return columns / _unique_columns(aln.onehot().reshape(-1, aln.length))


def reference_head_attention(q, k, v, scale, log_counts=None):
    """softmax(q @ kᵀ * scale + log_counts) @ v as one node per head: the
    per-head attention op that autodiff.attention fuses across heads."""
    q, k, v = ad.as_tensor(q), ad.as_tensor(k), ad.as_tensor(v)
    kt = np.moveaxis(k.data, -1, -2)
    p = q.data @ kt
    p *= scale
    score_shape = p.shape
    if log_counts is not None:
        p = p + log_counts
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def push(g):
        g = np.asarray(g)
        gp = g @ np.swapaxes(v.data, -1, -2)
        gv = np.swapaxes(p, -1, -2) @ g
        gp -= (gp * p).sum(axis=-1, keepdims=True)
        gp *= p
        gs = ad._unbroadcast(gp, score_shape)
        gs *= scale
        gq = gs @ np.swapaxes(kt, -1, -2)
        gkt = np.swapaxes(q.data, -1, -2) @ gs
        q._accumulate(ad._unbroadcast(gq, q.data.shape))
        k._accumulate(np.moveaxis(ad._unbroadcast(gkt, kt.shape), -2, -1))
        v._accumulate(ad._unbroadcast(gv, v.data.shape))

    return ad._node(p @ v.data, (q, k, v), push)


def reference_attention(x, w_q, w_k, w_v, scale, log_counts=None):
    """autodiff.attention composed of separate nodes: x + concat of the heads,
    each head's q, k and v a matmul node of x and a take node of its weights."""
    heads = [tuple(x @ w[h] for w in (w_q, w_k, w_v)) for h in range(w_q.shape[0])]
    outs = [reference_head_attention(q, k, v, scale, log_counts) for q, k, v in heads]
    return x + ad.concat(outs, axis=-1)


def reference_channel_map(w, t, b=None):
    """autodiff.channel_map composed of separate nodes: matmul between two
    moveaxis views, then the reshaped bias added."""
    out = ad.moveaxis(ad.moveaxis(t, 1, 2) @ ad.moveaxis(w, 0, 1), 2, 1)
    return out if b is None else out + ad.reshape(b, (1, -1, 1))


def reference_deep_sets_mix(layer, t, weights=None):
    """DeepSetsMix.forward composed of separate nodes: three channel maps,
    each of matmul nodes, summed by add nodes, the reshaped bias added, then
    the elu node."""
    out = reference_channel_map(layer.w_self, t)
    site_ctx = _site_mean(t, weights, keepdims=True)
    out = out + reference_channel_map(layer.w_site, site_ctx)
    if layer.mixes_taxa:
        taxa_ctx = ad.ordered_sum(t, axis=0, keepdims=True) * (1.0 / t.shape[0])
        out = out + reference_channel_map(layer.w_taxa, taxa_ctx)
    out = out + ad.reshape(layer.bias, (1, -1, 1))
    return ad.activation(out, "elu")


def reference_relu(a):
    """The relu node autodiff.activation replaced: its backward reads the input."""
    a = ad.as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def push(g):
        a._accumulate(g * (a.data > 0.0))

    return ad._node(out_data, (a,), push)


def reference_elu(a):
    """The elu node autodiff.activation replaced: its backward reads the input."""
    a = ad.as_tensor(a)
    neg = np.expm1(np.minimum(a.data, 0.0))
    out_data = np.where(a.data > 0.0, a.data, neg)

    def push(g):
        # out_data equals neg wherever a <= 0
        a._accumulate(g * np.where(a.data > 0.0, 1.0, out_data + 1.0))

    return ad._node(out_data, (a,), push)


def reference_pair_tokens(t, ii, jj):
    """architectures._pair_tokens composed of separate take and concat nodes."""
    first, second = (t[ii], t[jj]) if t.shape[0] > 1 else (t, t)
    return ad.concat([first[:, :, _FIRST], second[:, :, _SECOND]], axis=1)


def tape_bytes_by_op(root):
    """Bytes a taped graph holds, by the op of the node holding them: every
    node's value and every array its push saved (in lists and tuples too).
    Each distinct base array counts once, under the first node that reaches
    it in a walk from root; views count under their base.  The op is the
    function that made the node's push ("leaf" for a node without one)."""
    owners, seen, stack = {}, set(), [root]

    def hold(obj, op):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners.setdefault(id(obj), (op, obj))
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                hold(item, op)

    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        op = node._push.__qualname__.split(".")[0] if node._push else "leaf"
        hold(node.data, op)
        for cell in getattr(node._push, "__closure__", None) or ():
            hold(cell.cell_contents, op)
        stack.extend(node._parents)
    totals = {}
    for op, array in owners.values():
        totals[op] = totals.get(op, 0) + array.nbytes
    return totals


def graph_nbytes(root):
    """Bytes a taped graph holds (see tape_bytes_by_op).  Unlike tracemalloc,
    the count does not depend on the allocator."""
    return sum(tape_bytes_by_op(root).values())


def gradients(loss, params):
    """Backward pass from cleared grads; returns the gradient arrays of the
    given parameters."""
    for p in params:
        p.grad = None
    loss.backward()
    return [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]


def finite_difference_check(f, params):
    """Compare reverse-mode gradients of f() against central differences
    with step 1e-4; the perturbed evaluations keep no tape.

    Returns the worst relative error max |a-fd| / max(|a|+|fd|, 1e-6) over
    every coordinate of every parameter; raises nothing.
    """
    h = 1e-4
    analytic = gradients(f(), params)
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            with ad.no_tape():
                flat[idx] = orig + h
                up = float(f().data)
                flat[idx] = orig - h
                down = float(f().data)
            flat[idx] = orig
            fd = (up - down) / (2.0 * h)
            a_i = float(a.reshape(-1)[idx])
            rel = abs(a_i - fd) / max(abs(a_i) + abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


def transition_probabilities(model, t):
    """Stochastic matrix P(t) = expm(Q t) for one branch duration t >= 0."""
    u, w, wt = _spectral(model)
    return _stochastic_rows(u, np.exp(w * t), wt)


# A SitesInvariantS weights file (2 channels, trained two epochs) written while
# every DeepSetsMix held a w_taxa, so its table lists seq1.w_taxa and
# seq2.w_taxa, each (2, 2), which the network never reads.
SITES_CHECKPOINT_WITH_TAXA_WEIGHTS = base64.b64decode(
    "UERORVQAAQAAAKkCAAB7ImNvbmZpZyI6IHsiYXJjaGl0ZWN0dXJlIjogIlNpdGVzSW52YXJpYW50UyIsICJj"
    "aGFubmVscyI6IDIsICJlbWJlZF9kaW0iOiAyLCAiZ19oaWRkZW4iOiBbMTYsIDE2LCAxNl0sICJoZWFkIjog"
    "ImV1Y2xpZGVhbiIsICJoZWFkcyI6IDEsICJub25uZWciOiBudWxsLCAic2VlZCI6IDN9LCAicGFyYW1fY291"
    "bnQiOiA0NCwgInBhcmFtcyI6IFt7Im5hbWUiOiAic2VxMC53ZWlnaHQiLCAic2hhcGUiOiBbMiwgNF19LCB7"
    "Im5hbWUiOiAic2VxMC5iaWFzIiwgInNoYXBlIjogWzJdfSwgeyJuYW1lIjogInNlcTEud19zZWxmIiwgInNo"
    "YXBlIjogWzIsIDJdfSwgeyJuYW1lIjogInNlcTEud19zaXRlIiwgInNoYXBlIjogWzIsIDJdfSwgeyJuYW1l"
    "IjogInNlcTEud190YXhhIiwgInNoYXBlIjogWzIsIDJdfSwgeyJuYW1lIjogInNlcTEuYmlhcyIsICJzaGFw"
    "ZSI6IFsyXX0sIHsibmFtZSI6ICJzZXEyLndfc2VsZiIsICJzaGFwZSI6IFsyLCAyXX0sIHsibmFtZSI6ICJz"
    "ZXEyLndfc2l0ZSIsICJzaGFwZSI6IFsyLCAyXX0sIHsibmFtZSI6ICJzZXEyLndfdGF4YSIsICJzaGFwZSI6"
    "IFsyLCAyXX0sIHsibmFtZSI6ICJzZXEyLmJpYXMiLCAic2hhcGUiOiBbMl19LCB7Im5hbWUiOiAiZW1iZWQu"
    "d2VpZ2h0IiwgInNoYXBlIjogWzIsIDJdfSwgeyJuYW1lIjogImVtYmVkLmJpYXMiLCAic2hhcGUiOiBbMl19"
    "XX3TFwa0O/DmP2wPq2Hcbdy/3QhHl+VX37/GBhOkVPTcP/XfJjOiXvC/mTrQ9YFL0z89De6QcXjnP3D0J/Wf"
    "aOA/q0LJuemAiz+a2lxhvnWMv+6JyEvwFeK/V8oZ83/e4L/T0zIaY3nYv4QMkZSrQdg/WmdzJFxB9z+slYG5"
    "S0D5vzpAswau6+o/aO3K3gZwtr+QwIK+QL3MPz/cgxSERt6/uDbO5gms0r94RUYxO0nFP9ZQ2+0gmos/TvjM"
    "lp6vjb+a9GedsFXWP78BAwhNXOS/+Ergg4n75z/baS6wGAynvxkGl3A4zN2/gkqsowJc7r+80ulosqzlP7of"
    "zL+Cr8S/LxTMokux4j+GToUK9r3Cvxck0O5NA9u/pQK340rM6z/cK4E/FeiQP6b6gKmmoos/qZu2Ydmi6D87"
    "mT9m+mjVP1WDDnaMONQ/Z7lNrgpR8r9jLPkJ7NHAPY2N0xyNtMA9"
)
