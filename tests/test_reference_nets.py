import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phylodist.alignment import Alignment
from phylodist.distances import (
    d_hamming,
    distance_matrix,
    jc_correct,
    k2p_correct,
    transition_transversion_fractions,
)
from phylodist.errors import DataError
from phylodist.net.architectures import network_forward, pair_values
from phylodist.net.reference import (
    JC_RANGE,
    K2P_RANGE,
    build_reference_net,
    fit_pwl_coefficients,
    jc_curve,
)
from phylodist.net.serialize import load_network, save_network
from phylodist.simulate import BDParams, SubstModel, evolve_alignment, simulate_bd_tree

EYE = np.eye(4)


def onehot(states):
    return np.ascontiguousarray(np.moveaxis(EYE[states], -1, -2))


def random_pairs(rng, count, length, max_divergence=1.0):
    x = rng.integers(0, 4, (count, length))
    y = x.copy()
    for b in range(count):
        k = rng.integers(0, int(max_divergence * length) + 1)
        idx = rng.choice(length, min(k, length), replace=False)
        y[b, idx] = (x[b, idx] + rng.integers(1, 4, idx.size)) % 4
    return x, y


def test_hamming_net_exact():
    rng = np.random.default_rng(0)
    for length in (10, 200):
        net = build_reference_net("H", length)
        x, y = random_pairs(rng, 300, length)
        vals = pair_values(net, onehot(x), onehot(y))
        ref = np.array([d_hamming(a, b) for a, b in zip(x, y)])
        assert np.max(np.abs(vals - ref)) < 1e-6


def test_pair_values_rejects_non_onehot_batches():
    net = build_reference_net("H", 10)
    x, y = random_pairs(np.random.default_rng(2), 3, 10)
    soft = onehot(y) * 0.5
    for bad in (soft, onehot(y)[:2], onehot(y)[:, :, :9]):
        with pytest.raises(DataError):
            pair_values(net, onehot(x), bad)


def test_jc_net_matches_formula_on_fitted_range():
    rng = np.random.default_rng(1)
    length = 400
    net = build_reference_net("JC", length)
    assert net.config["fit_sup_error"] < 1e-4
    x, y = random_pairs(rng, 300, length, max_divergence=JC_RANGE)
    vals = pair_values(net, onehot(x), onehot(y))
    for b in range(x.shape[0]):
        p = d_hamming(x[b], y[b])
        if p <= JC_RANGE:
            assert abs(vals[b] - jc_correct(p)) < 1e-3


def test_k2p_net_matches_formula_on_fitted_range():
    rng = np.random.default_rng(2)
    length = 400
    net = build_reference_net("K2P", length)
    x, y = random_pairs(rng, 300, length, max_divergence=0.5)
    vals = pair_values(net, onehot(x), onehot(y))
    checked = 0
    for b in range(x.shape[0]):
        p, q = transition_transversion_fractions(x[b], y[b])
        if 2 * p + q <= K2P_RANGE and 2 * q <= K2P_RANGE:
            assert abs(vals[b] - k2p_correct(p, q)) < 1e-3
            checked += 1
    assert checked > 100


def test_identical_pairs_give_exact_zero():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 4, (5, 50))
    for target in ("H", "JC", "K2P"):
        net = build_reference_net(target, 50)
        vals = pair_values(net, onehot(x), onehot(x))
        assert np.all(vals == 0.0)


def test_reference_net_as_full_pair_network():
    tree = simulate_bd_tree(BDParams(1.0, 0.5, 10), seed=9)
    aln = evolve_alignment(tree, SubstModel("JC"), 200, seed=9)
    net = build_reference_net("H", 200)
    got = network_forward(net, aln)
    want = distance_matrix(aln, "hamming").reorder(got.labels)
    assert np.max(np.abs(got.values - want.values)) < 1e-6


def test_pwl_fit_quality():
    knots, coeffs, sup = fit_pwl_coefficients(jc_curve, JC_RANGE, pole=0.75)
    assert sup < 1e-4
    assert knots[0] == 0.0


_WEIGHTS_DIGEST = """
import hashlib
import numpy as np
from phylodist.net.architectures import pair_values
from phylodist.net.reference import build_reference_net
rng = np.random.default_rng(5)
x, y = (np.moveaxis(np.eye(4)[rng.integers(0, 4, size=(50, 300))], -1, -2) for _ in range(2))
h = hashlib.sha256()
for target in ("H", "JC", "K2P"):
    net = build_reference_net(target, 300)
    for p in net.parameters():
        h.update(p.data.tobytes())
    h.update(pair_values(net, x, y).tobytes())
print(h.hexdigest())
"""


def test_reference_nets_do_not_depend_on_blas_threads():
    src = Path(__file__).resolve().parent.parent / "src"
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _WEIGHTS_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        digests.add(done.stdout)
    assert len(digests) == 1


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    x, y = random_pairs(rng, 20, 60)
    for target in ("H", "JC", "K2P"):
        net = build_reference_net(target, 60)
        path = tmp_path / f"{target}.pdnet"
        save_network(net, path)
        loaded = load_network(path)
        assert np.array_equal(
            pair_values(net, onehot(x), onehot(y)),
            pair_values(loaded, onehot(x), onehot(y)),
        )
        manifest = (tmp_path / f"{target}.pdnet.manifest.txt").read_text()
        assert f"Reference{target}" in manifest


def test_failed_save_keeps_the_previous_checkpoint(tmp_path):
    path = tmp_path / "net.pdnet"
    save_network(build_reference_net("H", 10), path)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    net = build_reference_net("H", 10)
    _, last = net.named_params()[-1]
    last.data = np.full(last.data.shape, "x", dtype=object)  # raises once written
    with pytest.raises(ValueError):
        save_network(net, path)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_trained_architecture_serialization_roundtrip(tmp_path):
    from phylodist.net.architectures import build_architecture

    rng = np.random.default_rng(5)
    aln = Alignment(
        [f"s{i}" for i in range(5)], rng.integers(0, 4, (5, 12), dtype=np.int8)
    )
    for name in ("FullInvariantS", "HybridAttentionSP"):
        spec = build_architecture(name, channels=8, heads=2, embed_dim=6, g_hidden=(6,), seed=3)
        path = tmp_path / f"{name}.pdnet"
        save_network(spec, path)
        loaded = load_network(path)
        assert np.array_equal(
            network_forward(spec, aln).values, network_forward(loaded, aln).values
        )
