import math
import tracemalloc

import numpy as np
import pytest

from phylodist.audit import audit_metric
from phylodist.embed import (
    embedding_distortion,
    euclidean_matrix,
    llr_embed,
    measure_distortion,
)
from phylodist.errors import DataError
from phylodist.evaluate import evaluate_pipeline, write_report_csv
from phylodist.matrices import DistanceMatrix
from phylodist.simulate import BDParams, SubstModel, evolve_alignment, simulate_bd_tree
from phylodist.tree import patristic_matrix

from util import random_binary_tree


# -- llr embedding ----------------------------------------------------------------


def test_two_points_separate():
    d = DistanceMatrix(["a", "b"], np.array([[0.0, 3.0], [3.0, 0.0]]))
    emb = llr_embed(d, seed=0)
    assert emb.shape == (2, 1)
    assert emb[0, 0] != emb[1, 0]


def test_embedding_dimension_is_log2():
    rng = np.random.default_rng(0)
    for n, k in ((4, 2), (16, 4), (31, 4), (32, 5)):
        d = patristic_matrix(random_binary_tree(rng, n))
        assert llr_embed(d, seed=1).shape == (n, k)


def test_coordinates_never_expand():
    rng = np.random.default_rng(1)
    d = patristic_matrix(random_binary_tree(rng, 16))
    emb = llr_embed(d, seed=2)
    n = d.n
    for i in range(n):
        for j in range(n):
            for c in range(emb.shape[1]):
                assert abs(emb[i, c] - emb[j, c]) <= d.values[i, j] + 1e-12


def test_embedding_deterministic_per_seed():
    rng = np.random.default_rng(2)
    d = patristic_matrix(random_binary_tree(rng, 12))
    assert np.array_equal(llr_embed(d, seed=5), llr_embed(d, seed=5))
    assert not np.array_equal(llr_embed(d, seed=5), llr_embed(d, seed=6))


def test_distortion_sweep_on_tree_metrics_bounded():
    # single-subset-per-scale embeddings have heavy-tailed distortion; the
    # sweep constant is the best embedding found across seeds
    rng = np.random.default_rng(3)
    for n in (16, 32):
        d = patristic_matrix(random_binary_tree(rng, n))
        rhos = [embedding_distortion(d, seed=s).rho for s in range(100)]
        assert min(rhos) <= 4.0 * math.log2(n)


def test_single_point_embedding_rejected():
    with pytest.raises(DataError):
        llr_embed(DistanceMatrix(["a"], np.zeros((1, 1))), seed=0)


# -- distortion measurement -----------------------------------------------------------


def test_pure_scaling_distortion_one():
    rng = np.random.default_rng(4)
    d1 = patristic_matrix(random_binary_tree(rng, 8))
    d2 = DistanceMatrix(d1.labels, 3.0 * d1.values)
    rep = measure_distortion(d1, d2)
    assert rep.rho == pytest.approx(1.0)
    assert rep.r == pytest.approx(3.0)
    rep_same = measure_distortion(d1, d1)
    assert rep_same.rho == pytest.approx(1.0)
    assert rep_same.r == pytest.approx(1.0)


def test_distortion_matches_bruteforce_ratio_scan():
    rng = np.random.default_rng(5)
    d1 = patristic_matrix(random_binary_tree(rng, 9))
    d2 = patristic_matrix(random_binary_tree(rng, 9))
    d2 = DistanceMatrix(d1.labels, d2.values)
    rep = measure_distortion(d1, d2)
    ratios = []
    for i in range(d1.n):
        for j in range(i + 1, d1.n):
            ratios.append(d2.values[i, j] / d1.values[i, j])
    assert rep.rho == pytest.approx(max(ratios) / min(ratios), rel=1e-12)
    assert rep.r == pytest.approx(min(ratios), rel=1e-12)


def test_collision_reported_as_infinite():
    labels = ("a", "b", "c")
    d1 = DistanceMatrix(labels, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0.0]]))
    pts = np.array([[0.0], [0.0], [1.0]])  # a and b collide
    rep = measure_distortion(d1, euclidean_matrix(labels, pts))
    assert math.isinf(rep.rho)
    assert set(rep.worst_contracting) == {"a", "b"}


def test_euclidean_matrix_matches_broadcast_formula():
    # row blocks of 97 and 53 rows, and of 50, 50 and 30, and k >= 9 so numpy's
    # pairwise summation of the k squares is not a plain left-to-right loop
    rng = np.random.default_rng(8)
    for n, k in ((150, 9), (130, 20)):
        pts = rng.normal(size=(n, k)) * rng.uniform(0.1, 100.0, size=k)
        want = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        np.fill_diagonal(want, 0.0)
        got = euclidean_matrix([f"t{i}" for i in range(n)], pts)
        assert np.array_equal(got.values, want)


def test_euclidean_matrix_memory_is_bounded():
    # one n x n x k difference tensor and its square peaked at 672 MB here
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(2000, 10))
    labels = [f"t{i}" for i in range(2000)]
    tracemalloc.start()
    try:
        euclidean_matrix(labels, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6


def test_zero_off_diagonal_input_rejected():
    labels = ("a", "b", "c")
    vals = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0.0]])
    with pytest.raises(DataError):
        measure_distortion(DistanceMatrix(labels, vals), DistanceMatrix(labels, vals))


def test_distortion_of_one_point_rejected():
    d = DistanceMatrix(["a"], [[0.0]])
    with pytest.raises(DataError, match="at least 2 points"):
        measure_distortion(d, d)


# -- metric audit -----------------------------------------------------------------------


def test_tree_metrics_pass_audit():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = audit_metric(patristic_matrix(random_binary_tree(rng, 10)))
        assert a.is_metric
        assert a.triangle_violations == 0


def test_constructed_violation_found():
    vals = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
    a = audit_metric(vals)
    assert not a.is_metric
    assert a.triangle_violations >= 1
    assert a.worst_margin == pytest.approx(8.0)


def test_audit_flags_asymmetry_and_diagonal():
    vals = np.array([[0.0, 1.0], [2.0, 0.5]])
    a = audit_metric(vals)
    assert not a.is_symmetric
    assert not a.zero_diagonal
    assert not a.is_dissimilarity


def test_audit_sampled_mode_matches_exhaustive_flag():
    rng = np.random.default_rng(7)
    d = patristic_matrix(random_binary_tree(rng, 70))
    a = audit_metric(d)
    assert a.sampled
    assert a.is_metric
    b = audit_metric(d.values, exhaustive=True)
    assert not b.sampled
    assert b.is_metric


def test_exhaustive_audit_memory_and_counts():
    # counts recorded with the n x n x n margin tensor, which peaked at 432 MB traced
    d = np.triu(np.random.default_rng(7).uniform(0.5, 2.0, (300, 300)), 1)
    d = d + d.T
    tracemalloc.start()
    try:
        a = audit_metric(d, exhaustive=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (a.triangle_violations, a.worst_margin) == (662558, 0.9932128219155065)
    assert peak < 20e6


def test_audit_rejects_nonsquare():
    with pytest.raises(DataError):
        audit_metric(np.zeros((2, 3)))


# -- evaluation pipeline -----------------------------------------------------------------


def make_test_set(count, n=8, length=300, seed0=100):
    out = []
    for s in range(count):
        tree = simulate_bd_tree(BDParams(1.0, 0.5, n), seed=seed0 + s)
        aln = evolve_alignment(tree, SubstModel("JC"), length, seed=seed0 + s)
        out.append((aln, tree))
    return out


def test_truth_fed_pipeline_gives_zero_rf():
    data = make_test_set(5)
    rep = evaluate_pipeline("truth", data)
    assert rep.mean == 0.0


def test_jc_pipeline_reasonable_and_deterministic(tmp_path):
    data = make_test_set(8)
    rep1 = evaluate_pipeline("jc", data)
    rep2 = evaluate_pipeline("jc", data)
    assert rep1.rf_values == rep2.rf_values
    assert 0.0 <= rep1.mean < 0.7
    lo, hi = rep1.iqr
    assert lo <= rep1.median <= hi
    write_report_csv([rep1], tmp_path / "report.csv")
    text = (tmp_path / "report.csv").read_text()
    assert text.startswith("method,count,mean_rf")
    assert "jc" in text


def test_bionj_pipeline_runs():
    data = make_test_set(4)
    rep = evaluate_pipeline("hamming", data, algorithm="bionj")
    assert rep.count == 4
