import hashlib
import tracemalloc

import numpy as np
import pytest

from phylodist.errors import ConfigError
from phylodist.simulate import (
    BDParams,
    SubstModel,
    evolve_alignment,
    rate_matrix,
    sample_hky_frequencies,
    simulate_bd_tree,
)
from phylodist.tree import PhyloTree, diameter, parse_newick, serialize_newick, tree_height

from util import transition_probabilities

TRANSITION_PAIRS = {(0, 2), (2, 0), (1, 3), (3, 1)}


# -- parameters ----------------------------------------------------------------


def test_bd_params_validation():
    with pytest.raises(ConfigError):
        BDParams(0.5, 1.0, 10)
    with pytest.raises(ConfigError):
        BDParams(1.0, 0.5, 2)
    # where lambda + mu is not finite every event was a death, so the
    # resimulation after each extinction never ended
    for lam, mu in ((float("inf"), 0.0), (float("nan"), 0.0), (1.7e308, 1e308)):
        with pytest.raises(ConfigError):
            BDParams(lam, mu, 5)
    # a finite sum whose event rate (lambda + mu) * n overflows made every
    # waiting time, so every branch, zero
    with pytest.raises(ConfigError, match="overflows"):
        BDParams(1e308, 0.0, 5)
    BDParams(1e307, 0.0, 5)
    # a sum so small that the waiting-time scale 1 / ((lambda + mu) * k)
    # overflowed gave inf and nan branch lengths
    with pytest.raises(ConfigError, match="event times"):
        BDParams(1e-320, 0.0, 5)
    tree = simulate_bd_tree(BDParams(1.6e-297, 0.0, 30), 1)
    assert all(np.isfinite(tree.branch_length(v)) for v in range(tree.n_nodes))


def test_subst_model_validation():
    with pytest.raises(ConfigError):
        SubstModel("JC", kappa=2.0)
    with pytest.raises(ConfigError):
        SubstModel("K2P", kappa=2.0, base_freqs=(0.4, 0.2, 0.2, 0.2))
    with pytest.raises(ConfigError):
        SubstModel("HKY", base_freqs=(0.5, 0.5, 0.25, -0.25))
    for bad in (float("inf"), float("nan"), 0.0, -1.0):
        with pytest.raises(ConfigError):
            SubstModel("K2P", kappa=bad)
        with pytest.raises(ConfigError):
            SubstModel("JC", gamma_shape=bad)
    SubstModel("HKY", kappa=3.0, base_freqs=(0.1, 0.2, 0.3, 0.4))


# -- rate matrices ---------------------------------------------------------------


def test_jc_rate_matrix_uniform_third():
    q = rate_matrix(SubstModel("JC"))
    off = q[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 1.0 / 3.0, atol=1e-15)
    assert np.allclose(q.sum(axis=1), 0.0, atol=1e-15)


def test_k2p_transitions_twice_transversions():
    q = rate_matrix(SubstModel("K2P", kappa=2.0))
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            ratio = 2.0 if (i, j) in TRANSITION_PAIRS else 1.0
            base = q[0, 1]  # a transversion entry
            assert q[i, j] == pytest.approx(ratio * base, rel=1e-12)


def test_stationarity_pi_q_zero():
    for seed in range(5):
        pi = sample_hky_frequencies(seed)
        m = SubstModel("HKY", kappa=2.5, base_freqs=pi)
        q = rate_matrix(m)
        assert np.allclose(np.asarray(pi) @ q, 0.0, atol=1e-12)
        assert -float(np.asarray(pi) @ np.diag(q)) == pytest.approx(1.0, rel=1e-12)


def test_transition_matrices_stochastic():
    m = SubstModel("HKY", kappa=3.0, base_freqs=(0.1, 0.2, 0.3, 0.4))
    for t in [0.0, 1e-6, 0.01, 0.1, 1.0, 10.0, 100.0]:
        p = transition_probabilities(m, t)
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_detailed_balance():
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    m = SubstModel("HKY", kappa=2.0, base_freqs=tuple(pi))
    p = transition_probabilities(m, 0.37)
    flux = pi[:, None] * p
    assert np.allclose(flux, flux.T, atol=1e-10)


# -- birth-death trees ------------------------------------------------------------


def test_pure_birth_minimal_tree():
    t = simulate_bd_tree(BDParams(1.0, 0.0, 3), seed=4)
    assert t.rooted
    assert t.n_leaves == 3
    internal = [v for v in range(t.n_nodes) if not t.is_leaf(v)]
    assert len(internal) == 2
    assert all(t.branch_length(v) > 0 for v in range(t.n_nodes) if v != t.root)


def test_bd_deterministic_per_seed():
    p = BDParams(1.0, 0.5, 12)
    s1 = serialize_newick(simulate_bd_tree(p, seed=99))
    s2 = serialize_newick(simulate_bd_tree(p, seed=99))
    assert s1 == s2
    assert s1 != serialize_newick(simulate_bd_tree(p, seed=100))


def test_bd_leaf_count_always_exact():
    for seed in range(20):
        t = simulate_bd_tree(BDParams(1.0, 0.7, 9), seed=seed)
        assert t.n_leaves == 9
        assert parse_newick(serialize_newick(t)).n_leaves == 9


def test_bd_mean_diameter_in_expected_window():
    p = BDParams(1.0, 0.5, 20)
    diameters = [diameter(simulate_bd_tree(p, seed=s)) for s in range(10_000)]
    mean = float(np.mean(diameters))
    assert 3.0 <= mean <= 4.5


# -- sequence evolution ------------------------------------------------------------


def zero_length_tree():
    parent = [-1, 0, 0, 1, 1]
    children = [[1, 2], [3, 4], [], [], []]
    blen = [0.0] * 5
    labels = [None, None, "c", "a", "b"]
    return PhyloTree(parent, children, blen, labels, rooted=True)


def test_zero_branches_copy_root_sequence():
    aln = evolve_alignment(zero_length_tree(), SubstModel("JC"), 200, seed=1)
    assert len(set(aln.sequence(i) for i in range(aln.n))) == 1


def test_jc_mismatch_fraction_matches_closed_form():
    d = 0.4
    t = parse_newick(f"(a:{d / 2},b:{d / 2});")
    L = 1_000_000
    aln = evolve_alignment(t, SubstModel("JC"), L, seed=7)
    mismatch = float(np.mean(aln.row("a") != aln.row("b")))
    p = 0.75 * (1.0 - np.exp(-4.0 * d / 3.0))
    sigma = np.sqrt(p * (1 - p) / L)
    assert abs(mismatch - p) < 3 * sigma


def test_hky_stationary_frequencies():
    pi = (0.1, 0.2, 0.3, 0.4)
    m = SubstModel("HKY", kappa=2.0, base_freqs=pi)
    t = parse_newick("(a:20.0,b:20.0);")
    L = 1_000_000
    aln = evolve_alignment(t, m, L, seed=3)
    counts = np.bincount(aln.row("b"), minlength=4) / L
    for k in range(4):
        sigma = np.sqrt(pi[k] * (1 - pi[k]) / L)
        assert abs(counts[k] - pi[k]) < 3 * sigma


def test_gamma_rates_mean_one():
    m = SubstModel("JC", gamma_shape=1.0)
    from phylodist.rng import substream

    rates = substream(12, "site-rates").gamma(1.0, 1.0, size=100_000)
    assert abs(rates.mean() - 1.0) < 3 * rates.std() / np.sqrt(rates.size)
    # evolving with rates still yields a full alignment
    t = parse_newick("((a:0.1,b:0.1):0.1,c:0.2);")
    aln = evolve_alignment(t, m, 500, seed=12)
    assert aln.n == 3 and aln.length == 500


def test_evolution_deterministic_per_seed():
    t = simulate_bd_tree(BDParams(1.0, 0.5, 8), seed=5)
    m = SubstModel("K2P", kappa=2.0)
    a1 = evolve_alignment(t, m, 300, seed=44)
    a2 = evolve_alignment(t, m, 300, seed=44)
    assert a1 == a2
    assert a1 != evolve_alignment(t, m, 300, seed=45)


GOLDEN_MODELS = {
    "JC": SubstModel("JC"),
    "K2P": SubstModel("K2P", kappa=2.0),
    "HKY": SubstModel("HKY", kappa=3.0, base_freqs=(0.1, 0.2, 0.3, 0.4)),
    "HKY+G": SubstModel("HKY", kappa=3.0, base_freqs=(0.1, 0.2, 0.3, 0.4), gamma_shape=0.5),
}
GOLDEN_STATES = {
    "JC": "f17095bd3bf3b64a53f960a0861490ef2950dfea89a81ad26e8cc49fc79a36ab",
    "K2P": "805830cac8b4dbc3eb23a4e226e2934710ad0e652e3cf0b875554aed305837b5",
    "HKY": "f42f9cf1af12ca6ceb72c7081f290e666a1b2bedb871ea06616761c006974311",
    "HKY+G": "8e68a7ddb80c2b8da2ea18b3457a4d721bb77ac9bbdf97ff1c8f8621aa4e376f",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_evolved_states_match_golden_digest(name):
    # Recorded from the per-site implementation (an L x 4 block of transition
    # rows per branch); one P(t) per branch must draw the same states.
    tree = simulate_bd_tree(BDParams(1.0, 0.5, 30), seed=11)
    h = hashlib.sha256()
    for length in (1, 1000):
        h.update(evolve_alignment(tree, GOLDEN_MODELS[name], length, seed=12).states.tobytes())
    assert h.hexdigest() == GOLDEN_STATES[name]


def test_evolve_alignment_memory_is_bounded():
    tree = simulate_bd_tree(BDParams(1.0, 0.5, 16), seed=2)
    model = SubstModel("K2P", kappa=2.0)
    evolve_alignment(tree, model, 1000, seed=3)  # warm-up
    tracemalloc.start()
    try:
        evolve_alignment(tree, model, 200_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
