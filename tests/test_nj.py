import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from phylodist import nj
from phylodist.distances import distance_matrix
from phylodist.errors import DataError
from phylodist.matrices import DistanceMatrix
from phylodist.nj import bionj, neighbor_join
from phylodist.simulate import BDParams, SubstModel, evolve_alignment, simulate_bd_tree
from phylodist.tree import parse_newick, patristic_matrix, rf_distance, serialize_newick, tree_splits

from util import caterpillar_newick, random_binary_tree, reference_join

QUARTET = DistanceMatrix(
    ["A", "B", "C", "D"],
    np.array(
        [
            [0.0, 2.0, 6.0, 6.0],
            [2.0, 0.0, 6.0, 6.0],
            [6.0, 6.0, 0.0, 2.0],
            [6.0, 6.0, 2.0, 0.0],
        ]
    ),
)


def test_dominant_quartet_topology():
    for method in (neighbor_join, bionj):
        t = method(QUARTET)
        assert not t.rooted
        assert frozenset({frozenset({"A", "B"})}) == tree_splits(t)


def test_exact_on_additive_matrices():
    rng = np.random.default_rng(1)
    for n in (4, 7, 12, 20, 50):
        src = random_binary_tree(rng, n, rooted=False)
        d = patristic_matrix(src)
        for method in (neighbor_join, bionj):
            out = method(d)
            assert set(out.leaf_labels) == set(src.leaf_labels)
            assert rf_distance(out, src) == 0.0


def test_recovered_branch_lengths_on_additive_input():
    rng = np.random.default_rng(2)
    src = random_binary_tree(rng, 10, rooted=False)
    d = patristic_matrix(src)
    out = neighbor_join(d)
    assert np.allclose(patristic_matrix(out).values, d.values, atol=1e-9)


def test_join_trace_length():
    rng = np.random.default_rng(3)
    for n in (4, 6, 11):
        src = random_binary_tree(rng, n, rooted=False)
        _, trace = neighbor_join(patristic_matrix(src), return_trace=True)
        assert len(trace) == n - 3


def test_permutation_consistency():
    rng = np.random.default_rng(4)
    src = random_binary_tree(rng, 12, rooted=False)
    d = patristic_matrix(src)
    perm = rng.permutation(d.n)
    labels = [d.labels[i] for i in perm]
    shuffled = DistanceMatrix(labels, d.values[np.ix_(perm, perm)])
    for method in (neighbor_join, bionj):
        assert tree_splits(method(d)) == tree_splits(method(shuffled))


def test_atteson_radius_perturbations():
    rng = np.random.default_rng(5)
    for trial in range(20):
        src = random_binary_tree(rng, 10, rooted=False)
        d = patristic_matrix(src)
        internal = [
            src.branch_length(v)
            for v in range(src.n_nodes)
            if not src.is_leaf(v) and v != src.root
        ]
        eps = 0.49 * min(internal)
        noise = rng.uniform(-eps, eps, size=d.values.shape)
        noise = np.triu(noise, 1)
        noise = noise + noise.T
        perturbed = np.maximum(d.values + noise, 0.0)
        np.fill_diagonal(perturbed, 0.0)
        out = neighbor_join(DistanceMatrix(d.labels, perturbed))
        assert rf_distance(out, src) == 0.0


def test_bionj_matches_nj_on_noisy_estimates():
    from phylodist.distances import distance_matrix
    from phylodist.simulate import BDParams, SubstModel, evolve_alignment, simulate_bd_tree

    rfs_nj, rfs_bionj = [], []
    for seed in range(30):
        tree = simulate_bd_tree(BDParams(1.0, 0.5, 12), seed=seed)
        aln = evolve_alignment(tree, SubstModel("JC"), 300, seed=seed)
        d = distance_matrix(aln, "jc")
        rfs_nj.append(rf_distance(neighbor_join(d), tree))
        rfs_bionj.append(rf_distance(bionj(d), tree))
    assert abs(np.mean(rfs_nj) - np.mean(rfs_bionj)) < 0.05


def test_rejects_small_or_invalid_input():
    with pytest.raises(DataError):
        neighbor_join(
            DistanceMatrix(["a", "b", "c"], np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0.0]]))
        )
    with pytest.raises(DataError):
        neighbor_join("not a matrix")


def test_output_leaf_set_equals_input_labels():
    rng = np.random.default_rng(6)
    src = random_binary_tree(rng, 9, rooted=False)
    d = patristic_matrix(src)
    out = neighbor_join(d)
    assert tuple(sorted(out.leaf_labels)) == d.labels


def test_runtime_scales_cubically():
    rng = np.random.default_rng(7)

    def run(n):
        src = random_binary_tree(rng, n, rooted=False)
        d = patristic_matrix(src)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            neighbor_join(d)
            best = min(best, time.perf_counter() - t0)
        return best

    run(32)  # warm caches
    t32, t64 = run(32), run(64)
    assert t64 / t32 <= 10.0


def golden_matrices():
    rng = np.random.default_rng(5)
    d = patristic_matrix(simulate_bd_tree(BDParams(1.0, 0.3, 60), seed=6))
    noisy = d.values * np.exp(rng.normal(0.0, 0.2, (d.n, d.n)))
    noisy = (noisy + noisy.T) / 2.0
    np.fill_diagonal(noisy, 0.0)
    ties = rng.integers(1, 4, (40, 40)).astype(float)
    ties = ties + ties.T
    np.fill_diagonal(ties, 0.0)
    tree = simulate_bd_tree(BDParams(1.0, 0.3, 50), seed=7)
    jc = distance_matrix(evolve_alignment(tree, SubstModel("K2P", kappa=2.0), 400, seed=7), "jc")
    perm = rng.permutation(d.n)
    return {
        "noisy": DistanceMatrix(d.labels, noisy),
        "ties": DistanceMatrix([f"x{i:02d}" for i in range(40)], ties),
        "jc": jc,
        "permuted": DistanceMatrix([d.labels[i] for i in perm], noisy[np.ix_(perm, perm)]),
    }


GOLDEN_JOINS = {
    "noisy": "9e2c7768295a41dd9f3f34b0f31d3ab005b8777d36719dbaf62db99f1a6ead14",
    "ties": "4ea8be0f16f6b4f21dd01bdefc5065106585b068506d69ae51161f6dfdbbe96d",
    "jc": "2c808fd1928a4fe809f4a659fae608a81a06a4694f96319581b492f987cfc260",
    # sorted-label order makes the result independent of the input order
    "permuted": "9e2c7768295a41dd9f3f34b0f31d3ab005b8777d36719dbaf62db99f1a6ead14",
}


def test_joins_match_golden_digests():
    # Newick output plus every JoinTrace q-value and branch length in hex,
    # for NJ and BIONJ, recorded from the np.delete-per-join implementation.
    found = {}
    for name, mat in golden_matrices().items():
        h = hashlib.sha256()
        for build in (neighbor_join, bionj):
            tree, trace = build(mat, return_trace=True)
            h.update(serialize_newick(tree).encode())
            for rec in trace.records:
                h.update(repr(rec.pair).encode())
                h.update(" ".join(float(x).hex() for x in (rec.q_value, *rec.branch_lengths)).encode())
        found[name] = h.hexdigest()
    assert found == GOLDEN_JOINS


def noisy_bd_matrix(n, seed):
    """A BD tree's patristic matrix times symmetric log-normal noise (sd 0.3)."""
    d = patristic_matrix(simulate_bd_tree(BDParams(1.0, 0.3, n), seed=seed))
    noisy = d.values * np.exp(np.random.default_rng(seed).normal(0.0, 0.3, (d.n, d.n)))
    noisy = (noisy + noisy.T) / 2.0
    np.fill_diagonal(noisy, 0.0)
    return DistanceMatrix(d.labels, noisy)


def test_joins_equal_the_copying_reference_on_large_blocks(monkeypatch):
    # The caterpillar's spine starts half and three quarters of the way through
    # the sorted labels, so joins run along it from the middle of the block:
    # the first input drops from the leading side only, the second mostly from
    # the trailing side, each moving thousands of rows.
    n = 160
    cat = patristic_matrix(parse_newick(caterpillar_newick(n)))
    spine = [int(label[1:]) - 1 for label in cat.labels]
    inputs = [
        DistanceMatrix([f"t{(p + shift) % n:04d}" for p in spine], cat.values)
        for shift in (n // 2, 3 * n // 4)
    ]
    inputs.append(noisy_bd_matrix(n, seed=8))
    moved = {"leading": 0, "trailing": 0}
    shift = nj._drop

    def drop(m, o, k, j, scratch):
        if 0 < j < k - 1:
            moved["leading" if j < k // 2 else "trailing"] += 1
        return shift(m, o, k, j, scratch)

    monkeypatch.setattr(nj, "_drop", drop)
    for mat in inputs:
        order = sorted(range(mat.n), key=mat.labels.__getitem__)
        labels = [mat.labels[i] for i in order]
        values = mat.values[np.ix_(order, order)]
        for build, weighted in ((neighbor_join, False), (bionj, True)):
            tree, trace = build(mat, return_trace=True)
            got = [(rec.pair, *(float(y).hex() for y in (rec.q_value, *rec.branch_lengths)))
                   for rec in trace.records]
            assert (serialize_newick(tree), got) == reference_join(labels, values, weighted)
    assert min(moved.values()) >= 100


def test_joins_make_no_matrix_sized_temporary():
    # d and the Q scratch (and BIONJ's variances) are the only n x n buffers
    n = 600
    mat = noisy_bd_matrix(n, seed=3)
    for build, buffers in ((neighbor_join, 2.25), (bionj, 3.25)):
        tracemalloc.start()
        try:
            build(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= buffers * n * n * 8
