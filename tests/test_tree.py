import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from phylodist.alignment import Alignment
from phylodist.distances import distance_matrix
from phylodist.errors import DataError, NewickError
from phylodist.matrices import (
    CovarianceMatrix,
    DistanceMatrix,
    canonical_order,
    inverse_gromov,
    upper_mask,
)
from phylodist.nj import neighbor_join
from phylodist.simulate import BDParams, simulate_bd_tree
from phylodist.tree import (
    PhyloTree,
    covariance_matrix,
    diameter,
    parse_newick,
    patristic_matrix,
    rf_distance,
    serialize_newick,
    tree_splits,
    unroot,
)

from util import caterpillar_newick, naive_patristic, naive_splits, random_binary_tree

BASIC = "((A:1,B:1):1,C:2);"


# -- parsing ------------------------------------------------------------------


def test_parse_basic_topology():
    t = parse_newick(BASIC)
    assert t.rooted
    assert t.n_leaves == 3
    assert sorted(t.leaf_labels) == ["A", "B", "C"]
    kids = t.children(t.root)
    sizes = sorted(len([v for v in t.postorder() if t.is_leaf(v) and _under(t, v, k)]) for k in kids)
    assert sizes == [1, 2]


def _under(tree, v, ancestor):
    while v is not None:
        if v == ancestor:
            return True
        v = tree.parent(v)
    return False


def test_roundtrip_preserves_splits_and_lengths():
    t = parse_newick(BASIC)
    t2 = parse_newick(serialize_newick(t))
    assert tree_splits(t) == tree_splits(t2)
    labels, d = naive_patristic(t)
    labels2, d2 = naive_patristic(t2)
    assert labels == labels2
    assert np.allclose(d, d2, atol=1e-9)


def test_roundtrip_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = random_binary_tree(rng, int(rng.integers(4, 15)))
        t2 = parse_newick(serialize_newick(t))
        assert tree_splits(t) == tree_splits(t2)
        assert np.allclose(
            patristic_matrix(t).values, patristic_matrix(t2).values, atol=1e-9
        )


def test_deep_caterpillar_round_trips():
    # nesting far beyond the interpreter's recursion limit
    text = caterpillar_newick(5000)
    tree = parse_newick(text)
    assert tree.n_leaves == 5000 and tree.rooted
    assert serialize_newick(tree) == text
    flat = serialize_newick(unroot(tree))
    assert serialize_newick(parse_newick(flat)) == flat


def test_parse_quoted_label():
    t = parse_newick("('taxon one':1,'it''s':2,C:1);")
    assert set(t.leaf_labels) == {"taxon one", "it's", "C"}
    t2 = parse_newick(serialize_newick(t))
    assert set(t2.leaf_labels) == {"taxon one", "it's", "C"}


def test_parse_errors_carry_offsets():
    with pytest.raises(NewickError) as err:
        parse_newick("((A:1,B:1:1,C:2);")
    assert "byte" in str(err.value)
    with pytest.raises(NewickError):
        parse_newick("(A:1,B:1)")  # missing ';'
    with pytest.raises(NewickError):
        parse_newick("(A:1,B:-1);")
    with pytest.raises(NewickError):
        parse_newick("(A[comment]:1,B:1);")
    with pytest.raises(DataError):
        parse_newick("((A:1,A:1):1,C:2);")
    with pytest.raises(DataError, match="non-finite"):
        parse_newick("(a:1e999,b:1,c:1);")


def test_unrooted_parse():
    t = parse_newick("(A:1,B:1,C:1);")
    assert not t.rooted
    assert len(t.children(t.root)) == 3


# -- patristic ----------------------------------------------------------------


def test_patristic_hand_values():
    d = patristic_matrix(parse_newick(BASIC))
    assert d.get("A", "B") == pytest.approx(2.0, abs=1e-12)
    assert d.get("A", "C") == pytest.approx(4.0, abs=1e-12)
    assert d.get("B", "C") == pytest.approx(4.0, abs=1e-12)


def test_patristic_star_tree():
    d = patristic_matrix(parse_newick("(A:1,B:1,C:1);"))
    off = d.values[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 2.0, atol=1e-12)


def test_patristic_matches_path_walk_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        t = random_binary_tree(rng, 20)
        labels, d_naive = naive_patristic(t)
        d = patristic_matrix(t)
        assert list(d.labels) == labels
        assert np.allclose(d.values, d_naive, atol=1e-9)


def four_point_holds(d, tol=1e-9):
    n = d.shape[0]
    for i, j, k, l in itertools.combinations(range(n), 4):
        sums = sorted([d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k]])
        if not sums[2] - sums[1] <= tol:
            return False
    return True


def test_patristic_four_point_condition():
    rng = np.random.default_rng(3)
    for _ in range(5):
        t = random_binary_tree(rng, 9)
        assert four_point_holds(patristic_matrix(t).values)


# -- covariance / inverse Gromov ----------------------------------------------


def test_covariance_hand_values():
    c = covariance_matrix(parse_newick(BASIC))
    i = {lab: k for k, lab in enumerate(c.labels)}
    assert c.values[i["A"], i["B"]] == pytest.approx(1.0, abs=1e-12)
    assert c.values[i["A"], i["C"]] == pytest.approx(0.0, abs=1e-12)
    assert c.values[i["A"], i["A"]] == pytest.approx(2.0, abs=1e-12)


def test_covariance_requires_rooted():
    with pytest.raises(DataError):
        covariance_matrix(parse_newick("(A:1,B:1,C:1);"))


def test_covariance_psd_and_gromov_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = random_binary_tree(rng, int(rng.integers(4, 16)))
        c = covariance_matrix(t)
        assert np.linalg.eigvalsh(c.values)[0] >= -1e-8
        back = inverse_gromov(c)
        pat = patristic_matrix(t)
        assert back.labels == pat.labels
        assert np.allclose(back.values, pat.values, atol=1e-9)


def test_inverse_gromov_identity_matrix():
    from phylodist.matrices import CovarianceMatrix

    c = CovarianceMatrix(["A", "B", "C"], np.eye(3))
    d = inverse_gromov(c)
    off = d.values[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 2.0, atol=1e-15)


def test_inverse_gromov_duplicate_taxa():
    from phylodist.matrices import CovarianceMatrix

    c = CovarianceMatrix(["A", "B"], np.array([[1.0, 1.0], [1.0, 1.0]]))
    d = inverse_gromov(c)
    assert d.values[0, 1] == 0.0


def test_inverse_gromov_rejects_non_psd():
    from phylodist.errors import NumericError
    from phylodist.matrices import CovarianceMatrix

    c = CovarianceMatrix(["A", "B"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NumericError):
        inverse_gromov(c)


def test_upper_mask_orders_pairs_as_triu_indices():
    for n in range(7):
        got = np.nonzero(upper_mask(n))
        want = np.triu_indices(n, 1)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def test_covariance_reorder_gathers_rows_and_columns():
    c = covariance_matrix(random_binary_tree(np.random.default_rng(8), 6))
    labels = [c.labels[i] for i in (3, 0, 5, 1, 4, 2)]
    idx = [c.labels.index(l) for l in labels]
    got = c.reorder(labels)
    assert type(got) is CovarianceMatrix
    assert got.labels == tuple(labels)
    assert np.array_equal(got.values, c.values[np.ix_(idx, idx)])


def test_reorder_checks_its_labels_and_keeps_the_values_read_only():
    d = patristic_matrix(random_binary_tree(np.random.default_rng(9), 5))
    a, b, c = d.labels[:3]
    with pytest.raises(DataError, match="duplicate labels"):
        d.reorder([a, b, a])
    with pytest.raises(ValueError):
        d.reorder([a, b, "unknown"])
    got = d.reorder([c, a])  # a principal submatrix is still a valid one
    assert got == DistanceMatrix([c, a], d.values[np.ix_([2, 0], [2, 0])])
    with pytest.raises(ValueError):
        got.values[0, 1] = 1.0


def test_reorder_holds_one_matrix():
    # a second, validated copy of the gather peaked at 64.9 MiB for this 30.5 MiB result
    d = patristic_matrix(simulate_bd_tree(BDParams(1.0, 0.5, 2000), seed=10))
    labels = d.labels[::-1]
    tracemalloc.start()
    try:
        got = d.reorder(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.labels == labels
    assert peak < 1.3 * got.values.nbytes


def test_reorder_names_an_unknown_label_and_matches_the_gather():
    # large enough that a linear scan per label would cost more than the gather
    n = 2000
    x = np.random.default_rng(11).random(n)
    d = DistanceMatrix([f"t{i}" for i in range(n)], np.abs(x[:, None] - x[None, :]))
    idx = np.random.default_rng(12).permutation(n)
    got = d.reorder([d.labels[i] for i in idx])
    assert got.labels == tuple(d.labels[i] for i in idx)
    assert np.array_equal(got.values, d.values[np.ix_(idx, idx)])
    with pytest.raises(ValueError, match="unknown label 'u'"):
        d.reorder(["t0", "u"])


def test_repr_names_the_class():
    assert repr(CovarianceMatrix(["A", "B"], np.eye(2))) == "CovarianceMatrix(n=2)"
    assert repr(DistanceMatrix(["A", "B"], np.zeros((2, 2)))) == "DistanceMatrix(n=2)"


# -- splits / RF ----------------------------------------------------------------


def test_splits_match_edge_deletion_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        t = random_binary_tree(rng, 8, rooted=bool(rng.integers(2)))
        assert tree_splits(t) == naive_splits(t)


def test_every_user_of_the_taxon_order_agrees_on_labels_numpy_ties():
    """distances, tree and nj order taxa by matrices.canonical_order, where
    "a" and "a\\x00" stay distinct although numpy's strings tie them."""
    labels = ("b", "a\x00", "a", "c", "d", "é")
    canonical = [labels[i] for i in canonical_order(labels)]
    states = np.random.default_rng(29).integers(0, 4, size=(6, 40), dtype=np.int8)
    aln = Alignment(labels, states)
    d = distance_matrix(aln, "hamming")
    t1 = neighbor_join(d)
    t2 = parse_newick("(((b:1,'a\x00':1):1,a:1):1,(c:1,d:1):1,é:1);")
    assert list(d.labels) == list(patristic_matrix(t1).labels) == canonical
    s1, s2 = tree_splits(t1), tree_splits(t2)
    assert s1 == naive_splits(t1) and s2 == naive_splits(t2)
    assert rf_distance(t1, t2) == len(s1 ^ s2) / len(s1 | s2) > 0


def test_rf_identity():
    rng = np.random.default_rng(17)
    t = random_binary_tree(rng, 8)
    assert rf_distance(t, t) == 0.0


def test_rf_disjoint_caterpillars():
    t1 = parse_newick("(((('a':1,'b':1):1,'c':1):1,'d':1):1,'e':1);")
    t2 = parse_newick("(((('c':1,'e':1):1,'a':1):1,'d':1):1,'b':1);")
    assert rf_distance(t1, t2) == 1.0


def test_rf_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(19)
    for _ in range(15):
        t1 = random_binary_tree(rng, 8)
        t2 = random_binary_tree(rng, 8)
        s1, s2 = naive_splits(t1), naive_splits(t2)
        expected = len(s1 ^ s2) / len(s1 | s2)
        assert rf_distance(t1, t2) == pytest.approx(expected, abs=1e-12)


def test_rf_is_a_metric_on_topologies():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(6, 11))
        a, b, c = (random_binary_tree(rng, n) for _ in range(3))
        dab, dba = rf_distance(a, b), rf_distance(b, a)
        assert dab == dba
        assert rf_distance(a, c) <= dab + rf_distance(b, c) + 1e-12


def test_rf_mismatched_leaves_raises():
    rng = np.random.default_rng(29)
    t1 = random_binary_tree(rng, 6)
    t2 = parse_newick("((x:1,y:1):1,(z:1,(w:1,(u:1,v:1):1):1):1);")
    with pytest.raises(DataError):
        rf_distance(t1, t2)


def test_rf_unrooted_equals_rooted_input():
    rng = np.random.default_rng(31)
    for _ in range(10):
        t1 = random_binary_tree(rng, 7)
        t2 = random_binary_tree(rng, 7)
        assert rf_distance(t1, t2) == rf_distance(unroot(t1), unroot(t2))


def test_collapse_zero_drops_splits():
    t1 = parse_newick("(((A:1,B:1):0,C:1):1,(D:1,E:1):1);")
    t2 = parse_newick("(((A:1,C:1):0,B:1):1,(D:1,E:1):1);")
    assert rf_distance(t1, t2) > 0.0
    assert rf_distance(t1, t2, collapse_zero=True) == 0.0


def test_rf_memory_is_bounded():
    # per-node label sets peaked at 261 MB here
    cat = parse_newick(caterpillar_newick(2000))
    flat = unroot(cat)
    tracemalloc.start()
    try:
        assert rf_distance(cat, flat) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_patristic_memory_is_bounded():
    # the full-matrix broadcast sum and its temporaries peaked at 96 MB traced
    cat = parse_newick(caterpillar_newick(2000))
    tracemalloc.start()
    try:
        d = patristic_matrix(cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * d.values.nbytes


def _rebuild(tree, blen, labels):
    parent = [-1 if tree.parent(v) is None else tree.parent(v) for v in range(tree.n_nodes)]
    children = [tree.children(v) for v in range(tree.n_nodes)]
    return PhyloTree(parent, children, blen, labels, tree.rooted)


def _zero_some_edges(tree, rng):
    blen = [0.0 if rng.random() < 0.2 else tree.branch_length(v) for v in range(tree.n_nodes)]
    return _rebuild(tree, blen, [tree.label(v) for v in range(tree.n_nodes)])


def _shuffle_labels(tree, rng):
    names = rng.permutation([tree.label(v) for v in tree.leaves])
    labels = [None] * tree.n_nodes
    for v, name in zip(tree.leaves, names):
        labels[v] = str(name)
    return _rebuild(tree, [tree.branch_length(v) for v in range(tree.n_nodes)], labels)


# Recorded before splits became leaf bitmasks and MRCA blocks leaf ranges.
TREE_DIGEST = "2b79c1561af8ba718630a5a95b2d5d5be104997248ddc935203f452f3901e187"


def test_tree_outputs_match_golden_digest():
    rng = np.random.default_rng(43)
    pairs = []
    for k in range(50):
        n = int(rng.integers(4, 40))
        pairs.append(
            [_zero_some_edges(random_binary_tree(rng, n, rooted=bool(k % 2)), rng) for _ in range(2)]
        )
    for k in range(50):
        n = int(rng.integers(4, 60))
        pairs.append([simulate_bd_tree(BDParams(1.0, 0.5, n), seed=2 * k + s) for s in range(2)])
    for n in (4, 300):
        cat = parse_newick(caterpillar_newick(n))
        pairs.append([cat, _zero_some_edges(_shuffle_labels(cat, rng), rng)])
    h = hashlib.sha256()
    for pair in pairs:
        for t in pair:
            for mat in [patristic_matrix(t)] + ([covariance_matrix(t)] if t.rooted else []):
                h.update(repr(mat.labels).encode() + mat.values.tobytes())
            for collapse in (False, True):
                splits = sorted(sorted(s) for s in tree_splits(t, collapse_zero=collapse))
                h.update(repr(splits).encode())
        a, b = pair
        rfs = [rf_distance(a, b), rf_distance(b, a, collapse_zero=True), rf_distance(a, unroot(a))]
        h.update(repr(rfs).encode())
    assert h.hexdigest() == TREE_DIGEST


# -- diameter -------------------------------------------------------------------


def test_diameter_hand_values():
    assert diameter(parse_newick(BASIC)) == pytest.approx(4.0)
    assert diameter(parse_newick("(A:1,B:1,C:1);")) == pytest.approx(2.0)


# -- invariants -----------------------------------------------------------------


def test_tree_table_is_immutable():
    t = parse_newick(BASIC)
    with pytest.raises(ValueError):
        t._blen[0] = 5.0
