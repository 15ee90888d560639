import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest

from phylodist import distances
from phylodist.distances import (
    SaturationPolicy,
    _pair_counts,
    d_hamming,
    d_jc,
    d_k2p,
    distance_matrix,
    jc_correct,
    k2p_correct,
    transition_transversion_fractions,
)
from phylodist.alignment import Alignment
from phylodist.errors import ConfigError, DataError, SaturationError
from phylodist.net.architectures import _joint_counts
from phylodist.simulate import BDParams, SubstModel, evolve_alignment, simulate_bd_tree
from phylodist.tree import parse_newick

getcontext().prec = 50


def decimal_ln(x):
    return float(Decimal(x).ln())


# -- Hamming --------------------------------------------------------------------


def test_hamming_basic():
    assert d_hamming("ACGT", "ACGA") == pytest.approx(0.25, abs=0)
    assert d_hamming("ACGT", "ACGT") == 0.0


def test_hamming_matches_naive_loop():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 4, 200)
    y = rng.integers(0, 4, 200)
    naive = sum(1 for a, b in zip(x, y) if a != b) / 200
    assert d_hamming(x, y) == pytest.approx(naive, abs=0)


def test_hamming_length_mismatch():
    with pytest.raises(DataError):
        d_hamming("ACGT", "ACG")


# -- Jukes-Cantor ------------------------------------------------------------------


def test_jc_zero():
    assert jc_correct(0.0) == 0.0


def test_jc_matches_high_precision_formula():
    p = 0.3
    expected = -0.75 * decimal_ln(Decimal(1) - Decimal(4) * Decimal(p) / Decimal(3))
    assert jc_correct(p) == pytest.approx(expected, abs=1e-12)


def test_jc_saturation_policies():
    assert jc_correct(0.75, SaturationPolicy("ceiling", 5.0)) == 5.0
    assert jc_correct(0.9) == 5.0
    with pytest.raises(SaturationError):
        jc_correct(0.75, SaturationPolicy("error"))


def test_jc_dominates_hamming_below_saturation():
    for p in np.linspace(0.0, 0.74, 100):
        assert jc_correct(p) >= p


# -- Kimura 2P ----------------------------------------------------------------------


def test_k2p_zero():
    assert k2p_correct(0.0, 0.0) == 0.0


def test_k2p_matches_high_precision_formula():
    p = q = 0.1
    expected = -0.5 * decimal_ln(Decimal(1) - 2 * Decimal(p) - Decimal(q)) - 0.25 * decimal_ln(
        Decimal(1) - 2 * Decimal(q)
    )
    assert k2p_correct(p, q) == pytest.approx(expected, abs=1e-12)


def test_k2p_saturation():
    assert k2p_correct(0.45, 0.2) == 5.0
    with pytest.raises(SaturationError):
        k2p_correct(0.45, 0.2, SaturationPolicy("error"))


def test_transition_transversion_fractions():
    # A->G transition at site 0, A->C transversion at site 1, 2 matches
    p, q = transition_transversion_fractions("AAGT", "GCGT")
    assert p == 0.25 and q == 0.25


def test_k2p_consistent_with_simulation():
    d_true = 0.5
    t = parse_newick(f"(a:{d_true / 2},b:{d_true / 2});")
    L = 1_000_000
    aln = evolve_alignment(t, SubstModel("K2P", kappa=2.0), L, seed=21)
    est = d_k2p(aln.row("a"), aln.row("b"))
    p, q = transition_transversion_fractions(aln.row("a"), aln.row("b"))
    # Kimura's delta-method variance
    a = 1.0 / (1.0 - 2 * p - q)
    b = 0.5 * (a + 1.0 / (1.0 - 2 * q))
    sigma = math.sqrt((a * a * p + b * b * q - (a * p + b * q) ** 2) / L)
    assert abs(est - d_true) < 3 * sigma


def test_estimators_symmetric_in_arguments():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.integers(0, 4, 300)
        y = rng.integers(0, 4, 300)
        assert d_hamming(x, y) == d_hamming(y, x)
        assert d_jc(x, y) == d_jc(y, x)
        assert d_k2p(x, y) == d_k2p(y, x)


def test_estimators_monotone_in_mismatch():
    grid = np.linspace(0, 0.7, 50)
    jc_vals = [jc_correct(p) for p in grid]
    assert all(b >= a for a, b in zip(jc_vals, jc_vals[1:]))
    qgrid = np.linspace(0, 0.33, 30)
    k2p_in_p = [k2p_correct(p, 0.05) for p in np.linspace(0, 0.44, 30)]
    assert all(b >= a for a, b in zip(k2p_in_p, k2p_in_p[1:]))
    k2p_in_q = [k2p_correct(0.05, q) for q in qgrid]
    assert all(b >= a for a, b in zip(k2p_in_q, k2p_in_q[1:]))


def test_jc_statistical_consistency_shrinks_with_length():
    d_true = 0.3
    t = parse_newick(f"(a:{d_true / 2},b:{d_true / 2});")
    errors = []
    for L in (10**3, 10**4, 10**5, 10**6):
        runs = [
            abs(
                d_jc(a.row("a"), a.row("b")) - d_true
            )
            for a in (
                evolve_alignment(t, SubstModel("JC"), L, seed=s) for s in range(3)
            )
        ]
        errors.append(np.mean(runs))
    assert errors[-1] < errors[0]
    assert errors[-1] < 0.01


# -- full matrix ---------------------------------------------------------------------


def test_identical_sequences_zero_matrix():
    a = Alignment.from_sequences(["x", "y", "z"], ["ACGT", "ACGT", "ACGT"])
    for kind in ("hamming", "jc", "k2p"):
        m = distance_matrix(a, kind)
        assert np.all(m.values == 0.0)


def test_matrix_exactly_symmetric():
    rng = np.random.default_rng(9)
    a = Alignment(["a", "b", "c", "d"], rng.integers(0, 4, (4, 100), dtype=np.int8))
    m = distance_matrix(a, "jc")
    assert np.array_equal(m.values, m.values.T)


def test_matrix_close_to_patristic_on_simulated_data():
    from phylodist.simulate import BDParams, simulate_bd_tree
    from phylodist.tree import patristic_matrix

    tree = simulate_bd_tree(BDParams(1.0, 0.5, 10), seed=2)
    L = 100_000
    aln = evolve_alignment(tree, SubstModel("JC"), L, seed=2)
    est = distance_matrix(aln, "jc")
    pat = patristic_matrix(tree).reorder(est.labels)
    for i in range(est.n):
        for j in range(i + 1, est.n):
            d = pat.values[i, j]
            p = 0.75 * (1 - math.exp(-4 * d / 3))
            sigma = math.sqrt(p * (1 - p) / L) / (1 - 4 * p / 3)
            assert abs(est.values[i, j] - d) < 3.5 * sigma


def test_saturated_pair_named_in_error():
    a = Alignment.from_sequences(["u", "v", "w"], ["AAAA", "CCCC", "AAAA"])
    with pytest.raises(SaturationError) as err:
        distance_matrix(a, "jc", SaturationPolicy("error"))
    assert "u" in str(err.value) and "v" in str(err.value)


def test_saturation_error_names_the_first_pair_in_row_major_order():
    # (t0, t1) is all transitions (p=1, q=0), (t0, t2) and (t1, t2) all
    # transversions (p=0, q=1); the transversion key m (L + 1) + t sorts first
    a = Alignment.from_sequences(["t0", "t1", "t2"], ["AAAA", "GGGG", "CCCC"])
    with pytest.raises(SaturationError) as err:
        distance_matrix(a, "k2p", SaturationPolicy("error"))
    assert str(err.value) == "pair (t0, t1): K2P correction at (p=1.0, q=0.0) is saturated"


@pytest.mark.parametrize("kind", ["jc", "k2p"])
def test_one_correction_per_distinct_count(kind, monkeypatch):
    tree = simulate_bd_tree(BDParams(1.0, 0.5, 40), seed=6)
    aln = evolve_alignment(tree, SubstModel("K2P", kappa=2.0), 300, seed=6)
    pairs = [(aln.states[i], aln.states[j]) for i in range(aln.n) for j in range(i + 1, aln.n)]
    if kind == "jc":
        distinct = {d_hamming(x, y) for x, y in pairs}
    else:
        distinct = {transition_transversion_fractions(x, y) for x, y in pairs}
    name = f"{kind}_correct"
    calls = []
    scalar = getattr(distances, name)
    monkeypatch.setattr(distances, name, lambda *args: calls.append(args) or scalar(*args))
    distance_matrix(aln, kind)
    assert len(calls) == len(distinct) < len(pairs)


def _state_counts(states):
    """(n, 4, n, 4) int64 co-occurrence counts, from an int64 einsum."""
    onehot = (states[:, None, :] == np.arange(4)[:, None]).astype(np.int64)
    return np.einsum("iax,jbx->iajb", onehot, onehot)


@pytest.mark.parametrize("n, length", [(200, 1000), (3, 50_000)], ids=["many-blocks", "widest-block"])
def test_pair_counts_are_exact_across_blocks(n, length):
    states = np.random.default_rng(n).integers(0, 4, (n, length), dtype=np.int8)
    exact = _state_counts(states)
    matches, ts = _pair_counts(states, transitions=True)
    assert np.array_equal(matches, np.einsum("iaja->ij", exact))
    one_way = exact[:, 0, :, 2] + exact[:, 1, :, 3]  # A-G and C-T
    assert np.array_equal(ts, one_way + one_way.T)
    assert np.array_equal(_joint_counts(states), exact)


_BLAS_DIGEST = """
import hashlib
import numpy as np
from phylodist.distances import distance_matrix
from phylodist.net.architectures import _joint_counts
from phylodist.simulate import BDParams, SubstModel, evolve_alignment, simulate_bd_tree
tree = simulate_bd_tree(BDParams(1.0, 0.5, 200), seed=8)
aln = evolve_alignment(tree, SubstModel("K2P", kappa=2.0, gamma_shape=0.5), 1000, seed=8)
h = hashlib.sha256(distance_matrix(aln, "k2p").values.tobytes())
h.update(_joint_counts(np.random.default_rng(8).integers(0, 4, (64, 200))).tobytes())
print(h.hexdigest())
"""


def test_counts_and_distances_do_not_depend_on_blas_threads():
    src = Path(__file__).resolve().parent.parent / "src"
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _BLAS_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        digests.add(done.stdout)
    assert len(digests) == 1


def test_unknown_kind_rejected():
    a = Alignment.from_sequences(["x", "y", "z"], ["ACGT", "ACGT", "ACGT"])
    with pytest.raises(ConfigError):
        distance_matrix(a, "hky")


def test_distance_matrix_memory_is_bounded():
    # a one-hot float64 copy of the whole alignment would take ~100 MB
    rng = np.random.default_rng(0)
    aln = Alignment([f"t{i:02d}" for i in range(32)],
                    rng.integers(0, 4, (32, 100_000), dtype=np.int8))
    tracemalloc.start()
    try:
        distance_matrix(aln, "k2p")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # many taxa: the n x n count, key and result matrices dominate
    aln = Alignment([f"t{i:04d}" for i in range(2000)],
                    rng.integers(0, 4, (2000, 200), dtype=np.int8))
    tracemalloc.start()
    try:
        distance_matrix(aln, "k2p")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 130 * 2**20


def test_distance_matrices_match_golden_digest():
    # Recorded from the pair-by-pair implementation; a vectorized logarithm,
    # which differs from math.log/log1p in the last ulp, would change it.
    tree = simulate_bd_tree(BDParams(1.0, 0.5, 30), seed=4)
    model = SubstModel("HKY", kappa=2.0, base_freqs=(0.3, 0.2, 0.2, 0.3), gamma_shape=0.5)
    aln = evolve_alignment(tree, model, 1000, seed=4)
    h = hashlib.sha256()
    for kind in ("hamming", "jc", "k2p"):
        d = distance_matrix(aln, kind)
        h.update(repr(d.labels).encode())
        h.update(d.values.tobytes())
    assert h.hexdigest() == "cb9a11b051546f883714384fc23b6afb06ce09f7197e6731e65e122b95a1934d"
