"""Weighted binary trees over labeled taxa.

A PhyloTree is an immutable node table.  The representation root has two
children for rooted trees and three for the conventional representation of an
unrooted tree.  Branch lengths are nonnegative reals in expected
substitutions per site.

Splits, Robinson-Foulds distance, patristic distances, MRCA covariances and
the tree diameter are computed here; the inverse Gromov transform lives in
``matrices`` since it is a pure matrix operation.
"""

import numpy as np

from .errors import DataError, NewickError
from .files import open_input
from .matrices import CovarianceMatrix, DistanceMatrix, blocks, canonical_order


class PhyloTree:
    """Immutable rooted/unrooted weighted binary tree.

    Parameters
    ----------
    parent : sequence of int, -1 for the root
    children : sequence of tuples of child indices
    branch_lengths : per-node length of the edge above the node (root: 0)
    labels : per-node taxon name; None on internal nodes
    rooted : True if the root is a true root (two children)
    """

    def __init__(self, parent, children, branch_lengths, labels, rooted):
        self._parent = np.asarray(parent, dtype=int)
        self._parent.setflags(write=False)
        self._children = tuple(tuple(c) for c in children)
        self._blen = np.asarray(branch_lengths, dtype=float)
        self._blen.setflags(write=False)
        self._label = tuple(labels)
        self.rooted = bool(rooted)
        self._validate()

    def _validate(self):
        n = self.n_nodes
        if not (len(self._children) == len(self._label) == self._blen.size == n):
            raise DataError("inconsistent node table sizes")
        roots = np.nonzero(self._parent < 0)[0]
        if roots.size != 1:
            raise DataError(f"tree must have exactly one root, found {roots.size}")
        self.root = int(roots[0])
        for i, kids in enumerate(self._children):
            for c in kids:
                if self._parent[c] != i:
                    raise DataError(f"child link {i}->{c} has no matching parent link")
            if i == self.root:
                want = 2 if self.rooted else 3
                if len(kids) != want and self.n_nodes > 1:
                    raise DataError(
                        f"root must have {want} children "
                        f"({'rooted' if self.rooted else 'unrooted'}), got {len(kids)}"
                    )
            elif len(kids) not in (0, 2):
                raise DataError(f"internal node {i} has {len(kids)} children")
        if np.any(self._blen < 0):
            raise DataError("negative branch length")
        if not np.all(np.isfinite(self._blen)):
            raise DataError("non-finite branch length")
        leaves = [i for i in range(n) if not self._children[i]]
        for i in leaves:
            if not self._label[i]:
                raise DataError(f"leaf {i} has no label")
        names = [self._label[i] for i in leaves]
        if len(set(names)) != len(names):
            dup = sorted({x for x in names if names.count(x) > 1})
            raise DataError(f"duplicate leaf labels: {dup}")
        self._leaves = tuple(leaves)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self):
        return len(self._children)

    @property
    def n_leaves(self):
        return len(self._leaves)

    @property
    def leaves(self):
        return self._leaves

    @property
    def leaf_labels(self):
        """Leaf labels in node-index order."""
        return tuple(self._label[i] for i in self._leaves)

    def parent(self, i):
        p = int(self._parent[i])
        return None if p < 0 else p

    def children(self, i):
        return self._children[i]

    def branch_length(self, i):
        return float(self._blen[i])

    def label(self, i):
        return self._label[i]

    def is_leaf(self, i):
        return not self._children[i]

    def postorder(self):
        order = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(self._children[v])
        return order[::-1]

    def depths(self):
        """Root-to-node path length for every node."""
        d = np.zeros(self.n_nodes)
        for v in reversed(self.postorder()):  # preorder
            p = self._parent[v]
            if p >= 0:
                d[v] = d[p] + self._blen[v]
        return d

    def __repr__(self):
        kind = "rooted" if self.rooted else "unrooted"
        return f"PhyloTree({kind}, n_leaves={self.n_leaves})"


class NodeTable:
    """The node table of a PhyloTree under construction: parent, children,
    branch length and label lists, appended to in step.

    NodeTable(labels) starts with one unlinked leaf per label.
    """

    def __init__(self, labels=()):
        self.parent = [-1] * len(labels)
        self.children = [[] for _ in labels]
        self.length = [0.0] * len(labels)
        self.label = list(labels)

    def add(self, parent=-1, length=0.0, label=None):
        """Append a node, linked under parent when that is >= 0; return its index."""
        idx = len(self.parent)
        self.parent.append(-1)
        self.children.append([])
        self.length.append(length)
        self.label.append(label)
        if parent >= 0:
            self.link(idx, parent)
        return idx

    def link(self, child, parent):
        """Attach child as the last child of parent."""
        self.parent[child] = parent
        self.children[parent].append(child)

    def tree(self, rooted):
        return PhyloTree(self.parent, self.children, self.length, self.label, rooted)


# -- Newick ----------------------------------------------------------------

_RESERVED = set("()[]{}:;, \t\n'\"")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.table = NodeTable()

    def error(self, msg):
        raise NewickError(msg, offset=self.pos)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1
        if self.peek() == "[":
            self.error("Newick comments are not supported")

    def read_label(self):
        self.skip_ws()
        if self.peek() == "'":
            self.pos += 1
            out = []
            while True:
                if self.pos >= len(self.text):
                    self.error("unterminated quoted label")
                ch = self.text[self.pos]
                if ch == "'":
                    if self.text[self.pos : self.pos + 2] == "''":
                        out.append("'")
                        self.pos += 2
                        continue
                    self.pos += 1
                    return "".join(out)
                out.append(ch)
                self.pos += 1
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in _RESERVED:
            self.pos += 1
        return self.text[start : self.pos]

    def read_length(self):
        self.skip_ws()
        if self.peek() != ":":
            return 0.0
        self.pos += 1
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos] in "+-.eE" or self.text[self.pos].isdigit()
        ):
            self.pos += 1
        try:
            val = float(self.text[start : self.pos])
        except ValueError:
            self.error("malformed branch length")
        if val < 0:
            self.error(f"negative branch length {val}")
        return val

    def subtree(self):
        """Parse one subtree and return its node index.

        Open groups sit on an explicit stack, so nesting depth is bounded by
        memory rather than by the recursion limit.
        """
        table = self.table
        open_groups = []
        while True:
            self.skip_ws()
            if self.peek() == "(":
                self.pos += 1
                open_groups.append(table.add())
                continue
            name = self.read_label()
            if not name:
                self.error("leaf without a label")
            node = table.add(length=self.read_length(), label=name)
            while open_groups:  # attach the finished node, closing groups
                group = open_groups[-1]
                table.link(node, group)
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    break
                if self.peek() != ")":
                    self.error("expected ',' or ')'")
                self.pos += 1
                open_groups.pop()
                self.read_label()  # internal labels accepted, ignored
                table.length[group] = self.read_length()
                node = group
            else:
                return node

    def parse(self):
        root = self.subtree()
        self.skip_ws()
        if self.peek() != ";":
            self.error("expected ';'")
        self.pos += 1
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing characters after ';'")
        return root


def parse_newick(text):
    """Parse a Newick string into a PhyloTree.

    Quoted labels are supported; comments are rejected.  A missing branch
    length reads as 0.  The tree is rooted if the outermost group has two
    children, unrooted if it has three.
    """
    p = _Parser(text)
    root = p.parse()
    table = p.table
    table.length[root] = 0.0  # root edge length, if present, is meaningless
    n_root_children = len(table.children[root])
    if n_root_children not in (2, 3) and len(table.parent) > 1:
        raise NewickError(f"root has {n_root_children} children; expected 2 or 3")
    return table.tree(rooted=n_root_children == 2)


def _quote_label(name):
    if name and not any(ch in _RESERVED for ch in name):
        return name
    return "'" + name.replace("'", "''") + "'"


def serialize_newick(tree):
    """Serialize a PhyloTree to Newick with shortest round-trip float format."""
    out = []
    stack = [tree.root]  # node indices still to emit, and literal closers
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        edge = "" if item == tree.root else f":{tree.branch_length(item)!r}"
        if tree.is_leaf(item):
            out.append(_quote_label(tree.label(item)) + edge)
            continue
        first, *rest = tree.children(item)
        out.append("(")
        stack.append(")" + edge)
        for c in reversed(rest):
            stack.extend((c, ","))
        stack.append(first)
    return "".join(out) + ";"


def read_newick_file(path):
    """Read a Newick file with one tree per line; DataError if it holds none."""
    with open_input(path) as fh:
        trees = [parse_newick(line.strip()) for line in fh if line.strip()]
        if not trees:
            raise DataError("no Newick tree in file")
        return trees


# -- splits and Robinson-Foulds ---------------------------------------------


def _split_masks(tree, collapse_zero):
    """Non-trivial splits as leaf bitmasks: bit i is the i-th label in canonical order.

    A node's mask is the sum of its children's masks, which equals their OR
    since their leaf sets are disjoint.  Each split is normalized to the side
    holding bit 0.  With collapse_zero, edges of length zero are dropped.
    """
    labels = tree.leaf_labels
    rank = {labels[k]: i for i, k in enumerate(canonical_order(labels))}
    n = len(rank)
    full = (1 << n) - 1
    mask, splits = {}, set()
    for v in tree.postorder():
        if tree.is_leaf(v):
            mask[v] = 1 << rank[tree.label(v)]
        else:
            mask[v] = sum(mask.pop(c) for c in tree.children(v))
        if v == tree.root or (collapse_zero and tree.branch_length(v) <= 0.0):
            continue
        side = mask[v]
        if 2 <= side.bit_count() <= n - 2:
            splits.add(side if side & 1 else full ^ side)
    return splits


def tree_splits(tree, collapse_zero=False):
    """Non-trivial splits of the unrooted topology.

    Each split is the frozenset of labels on the side containing the first
    taxon in canonical order.  With collapse_zero, splits from edges of
    length zero are dropped.
    """
    leaves = tree.leaf_labels
    labels = [leaves[k] for k in canonical_order(leaves)]
    return frozenset(
        frozenset(lab for i, lab in enumerate(labels) if side >> i & 1)
        for side in _split_masks(tree, collapse_zero)
    )


def rf_distance(t1, t2, collapse_zero=False):
    """Normalized Robinson-Foulds distance in [0, 1].

    |S1 symmetric-difference S2| / |S1 union S2| over non-trivial splits of
    the unrooted topologies; 0 iff the topologies are identical.
    """
    x1, x2 = set(t1.leaf_labels), set(t2.leaf_labels)
    if x1 != x2:
        raise DataError(
            f"leaf sets differ: only in first {sorted(x1 - x2)}, "
            f"only in second {sorted(x2 - x1)}"
        )
    if len(x1) < 4:
        raise DataError(f"Robinson-Foulds needs >= 4 taxa, got {len(x1)}")
    s1 = _split_masks(t1, collapse_zero)
    s2 = _split_masks(t2, collapse_zero)
    union = s1 | s2
    if not union:
        return 0.0
    return len(s1 ^ s2) / len(union)


# -- unrooting ---------------------------------------------------------------


def unroot(tree):
    """Return the unrooted representation (root of degree 3).

    The two edges at a rooted tree's root are merged.  A 2-leaf tree has no
    unrooted representation.
    """
    if not tree.rooted:
        return tree
    a, b = tree.children(tree.root)
    if tree.is_leaf(a) and tree.is_leaf(b):
        raise DataError("cannot unroot a 2-leaf tree")
    top, other = (a, b) if not tree.is_leaf(a) else (b, a)
    merged = tree.branch_length(a) + tree.branch_length(b)

    # Rebuild the node table rooted at `top`, in preorder, with `other` as
    # its last child: (node, new parent, edge length) still to append
    table = NodeTable()
    stack = [(other, 0, merged), (top, -1, 0.0)]
    while stack:
        v, new_parent, length = stack.pop()
        idx = table.add(new_parent, length, tree.label(v))
        stack.extend((c, idx, tree.branch_length(c)) for c in reversed(tree.children(v)))
    return table.tree(rooted=False)


# -- distances on trees -------------------------------------------------------


def _mrca_depths(tree):
    """(labels, depth-of-MRCA matrix with leaf depths on the diagonal).

    Leaves are numbered in postorder, where each clade's leaves are
    contiguous, so an internal node fills one block per pair of its
    children's leaf ranges.  One permutation then puts the rows in canonical order.
    """
    depth = tree.depths()
    n = tree.n_leaves
    m = np.zeros((n, n))
    order = []  # leaves in postorder
    span = {}  # node -> (first, end) of its leaf range
    for v in tree.postorder():
        if tree.is_leaf(v):
            span[v] = (len(order), len(order) + 1)
            order.append(v)
            continue
        ranges = [span.pop(c) for c in tree.children(v)]
        for i, (a, b) in enumerate(ranges):
            for c, e in ranges[i + 1 :]:
                m[a:b, c:e] = m[c:e, a:b] = depth[v]
        span[v] = (ranges[0][0], ranges[-1][1])
    m[np.diag_indices(n)] = depth[order]
    labels = [tree.label(v) for v in order]
    rows = canonical_order(labels)
    return tuple(labels[k] for k in rows), m[np.ix_(rows, rows)]


def patristic_matrix(tree):
    """Pairwise path-length (patristic) distance matrix, labels in canonical order."""
    labels, d = _mrca_depths(tree)
    leaf_depth = np.diag(d).copy()
    # d_ij = depth_i + depth_j - 2 * mrca_ij over the MRCA matrix, in blocks of its rows
    for rows in blocks(len(labels), 8 * len(labels)):
        block = d[rows]
        block[...] = leaf_depth[rows, None] + leaf_depth[None, :] - 2.0 * block
        block[block < 0] = 0.0  # guard against rounding; keeps -0.0
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(labels, d)


def covariance_matrix(tree):
    """Phylogenetic covariance: C_ab = depth of MRCA(a, b), C_aa = depth of a.

    Requires a rooted tree.
    """
    if not tree.rooted:
        raise DataError("covariance_matrix requires a rooted tree")
    labels, m = _mrca_depths(tree)
    return CovarianceMatrix(labels, m)


def diameter(tree):
    """Maximum patristic distance between any two leaves."""
    return float(np.max(patristic_matrix(tree).values))


def tree_height(tree):
    """Maximum root-to-leaf path length."""
    d = tree.depths()
    return float(max(d[v] for v in tree.leaves))


def scale_branches(tree, factor):
    """Copy of the tree with every branch length multiplied by factor."""
    if factor < 0:
        raise DataError("scale factor must be nonnegative")
    return PhyloTree(
        tree._parent,
        tree._children,
        tree._blen * factor,
        tree._label,
        tree.rooted,
    )
