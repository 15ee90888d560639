import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from phylodist import autodiff as ad
from phylodist.alignment import Alignment
from phylodist.errors import ConfigError, TrainingDiverged
from phylodist.losses import batch_loss
from phylodist.net.architectures import build_architecture, forward_matrix, network_forward
from phylodist.rng import substream
from phylodist.simulate import BDParams, SubstModel, evolve_alignment, simulate_bd_tree
from phylodist.train import (
    Adam,
    TrainConfig,
    cosine_lr,
    fit_scalar_head,
    matrix_loss_gamma,
    train,
    training_targets,
    validation_rf,
    write_history_csv,
)

from util import graph_nbytes, tape_bytes_by_op

SMALL = dict(channels=8, heads=2, embed_dim=6, g_hidden=(6,))


def make_dataset(spec, n_taxa, length, count, seed0=0):
    data = []
    for s in range(count):
        tree = simulate_bd_tree(BDParams(1.0, 0.5, n_taxa), seed=seed0 + s)
        aln = evolve_alignment(tree, SubstModel("JC"), length, seed=seed0 + s)
        data.append((aln, training_targets(spec, tree, aln.labels), tree))
    return data


def test_adam_fits_linear_model():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 64)
    w = ad.Tensor(np.array(0.0), requires_grad=True)
    opt = Adam([w])
    for step in range(800):
        pred = w * x
        loss = ad.tensor_sum((pred - 2.0 * x) ** 2.0) * (1.0 / x.size)
        loss.backward()
        opt.step(cosine_lr(step, 800, 0.05))
    assert abs(float(w.data) - 2.0) < 1e-3


def test_train_rejects_empty_training_set():
    spec = build_architecture("SitesInvariantS", seed=5, **SMALL)
    with pytest.raises(ConfigError):
        train(spec, [], TrainConfig(max_epochs=1))


@pytest.mark.parametrize("lr", [0.0, -1.0, math.nan, math.inf])
def test_train_config_rejects_a_learning_rate_that_is_not_positive_and_finite(lr):
    with pytest.raises(ConfigError, match="learning rate"):
        TrainConfig(learning_rate=lr)


def test_train_config_rejects_an_unknown_loss():
    with pytest.raises(ConfigError, match="loss"):
        TrainConfig(loss="huber")


def test_matrix_loss_gamma_is_checked_only_where_a_loss_applies_it():
    dist = build_architecture("SitesInvariantS", channels=4)
    cov = build_architecture("FullInvariantS", head="inner_product", channels=4)
    assert matrix_loss_gamma(dist, TrainConfig(loss="mae", gamma=0.0)) is None
    assert matrix_loss_gamma(cov, TrainConfig(loss="logdet", gamma=0.0)) is None
    assert matrix_loss_gamma(dist, TrainConfig(loss="vonneumann", gamma=0.5)) == 0.5
    for gamma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            matrix_loss_gamma(dist, TrainConfig(loss="logdet", gamma=gamma))


def test_adam_step_clears_grads():
    spec = build_architecture("FullAttentionSP", seed=5, **SMALL)
    aln, target, _ = make_dataset(spec, n_taxa=5, length=30, count=1)[0]
    _, out = forward_matrix(spec, aln)
    batch_loss("mae", [(out, target)]).backward()
    opt = Adam(spec.parameters())
    opt.step(0.01)
    assert all(p.grad is None for p in spec.parameters())


def test_cosine_schedule_contract():
    lrs = [cosine_lr(s, 100, 0.01) for s in range(101)]
    assert lrs[0] == 0.01
    assert lrs[-1] <= 1e-3 * 0.01
    assert all(b <= a + 1e-15 for a, b in zip(lrs, lrs[1:]))


def test_training_loss_decreases_first_epochs():
    spec = build_architecture("SitesInvariantS", seed=1, **SMALL)
    data = make_dataset(spec, n_taxa=8, length=100, count=12)
    cfg = TrainConfig(max_epochs=5, batch_size=4, seed=1)
    result = train(spec, [(a, t) for a, t, _ in data], cfg)
    losses = [row["train_loss"] for row in result.history]
    assert len(losses) == 5
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_training_deterministic_given_seed():
    datasets = []
    weights = []
    for _ in range(2):
        spec = build_architecture("SitesInvariantS", seed=2, **SMALL)
        data = make_dataset(spec, n_taxa=6, length=60, count=8)
        cfg = TrainConfig(max_epochs=3, batch_size=4, seed=7)
        train(spec, [(a, t) for a, t, _ in data], cfg)
        weights.append([p.data.copy() for p in spec.parameters()])
        datasets.append(data)
    for w1, w2 in zip(*weights):
        assert np.array_equal(w1, w2)


def test_early_stopping_restores_best_weights():
    spec = build_architecture("SitesInvariantS", seed=3, **SMALL)
    data = make_dataset(spec, n_taxa=6, length=80, count=8)
    val = [(a, tree) for a, _, tree in data[:4]]
    cfg = TrainConfig(max_epochs=6, batch_size=4, seed=3, patience=2)
    result = train(spec, [(a, t) for a, t, _ in data], cfg, val_data=val)
    best_seen = min(row["val_rf"] for row in result.history)
    assert result.best_val_rf == best_seen
    assert validation_rf(spec, val) == pytest.approx(best_seen, abs=1e-12)


def test_nan_loss_aborts_with_diagnostics():
    spec = build_architecture("SitesInvariantS", seed=4, **SMALL)
    data = make_dataset(spec, n_taxa=6, length=60, count=4)
    spec.parameters()[0].data[0, 0] = math.nan
    cfg = TrainConfig(max_epochs=10, batch_size=4, seed=4)
    with pytest.raises(TrainingDiverged) as err:
        train(spec, [(a, t) for a, t, _ in data], cfg)
    assert err.value.epoch == 0
    assert "epoch" in str(err.value)


def _diverge_on_second_alignment(spec, data):
    """train() on a batch of two whose second alignment has a NaN target."""
    cfg = TrainConfig(max_epochs=1, batch_size=2, seed=8)
    second = substream(cfg.seed, "batch-order").permutation(2)[1]
    pairs = [(a, np.full_like(t, np.nan) if i == second else t) for i, (a, t, _) in enumerate(data[:2])]
    with pytest.raises(TrainingDiverged):
        train(spec, pairs, cfg)


def test_nan_target_on_second_alignment_leaves_weights_unchanged():
    spec = build_architecture("FullAttentionSP", seed=8, **SMALL)
    data = make_dataset(spec, n_taxa=6, length=40, count=2)
    before = [p.data.copy() for p in spec.parameters()]
    _diverge_on_second_alignment(spec, data)
    # the first alignment's backward ran before the second term raised
    assert any(p.grad is not None for p in spec.parameters())
    for p, w in zip(spec.parameters(), before):
        assert np.array_equal(p.data, w)


def test_later_training_matches_a_fresh_copy():
    # grads left behind by an earlier, diverged train() must not leak into the next
    cfg = TrainConfig(max_epochs=2, batch_size=3, seed=9)
    weights = []
    for diverge_first in (True, False):
        spec = build_architecture("FullAttentionSP", seed=9, **SMALL)
        data = make_dataset(spec, n_taxa=6, length=40, count=5)
        if diverge_first:
            _diverge_on_second_alignment(spec, data)
        train(spec, [(a, t) for a, t, _ in data], cfg)
        weights.append([p.data for p in spec.parameters()])
    for w1, w2 in zip(*weights):
        assert np.array_equal(w1, w2)


@pytest.mark.parametrize(
    "arch, bound_mib",
    [("FullAttentionSP", 60), ("HybridAttentionSP", 50)],
    ids=["FullAttentionSP", "HybridAttentionSP"],
)
def test_training_epoch_memory_is_bounded(arch, bound_mib):
    # the bench train shape.  One backward over the whole batch held the graphs
    # of its four alignments, and the previous step's graph with them: 701 MB
    # for FullAttentionSP; a graph whose backward keeps what its nodes saved,
    # 146 MiB; one whose tape also keeps the per-head outputs of each attention
    # layer and the product before each bias, 105.7 MiB (HybridAttentionSP 76.4);
    # one that also keeps the q, k and v projections, each conv's value before
    # its activation and the pair-stage gathers, 84.1 MiB (HybridAttentionSP 61.5)
    spec = build_architecture(arch, channels=16, heads=2, seed=1)
    data = make_dataset(spec, n_taxa=10, length=100, count=8)
    cfg = TrainConfig(max_epochs=1, batch_size=4, seed=1)
    tracemalloc.start()
    try:
        train(spec, [(a, t) for a, t, _ in data], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def _one_alignment_tape(arch, n_taxa, channels, heads):
    """(spec, n, MAE loss of one L=100 alignment, taped) at weights seed 1."""
    spec = build_architecture(arch, channels=channels, heads=heads, seed=1)
    ((aln, target, _),) = make_dataset(spec, n_taxa=n_taxa, length=100, count=1)
    _, out = forward_matrix(spec, aln)
    return spec, aln.n, batch_loss("mae", [(out, target)])


# the bench train shape, and the CLI's 64 channels and 4 heads with 20 taxa
TAPE_SHAPES = {"FullAttentionSP": (10, 16, 2), "SitesAttentionP": (20, 64, 4)}


def test_one_alignment_graph_holds_only_what_backward_reads():
    # the bench train shape; the tape that also kept the per-head outputs of
    # each attention layer and the product before each bias held 69.5 MiB, and
    # one that also kept the q, k and v projections, each conv's value before
    # its activation and the pair-stage gathers 58.8 MiB
    _, _, loss = _one_alignment_tape("FullAttentionSP", *TAPE_SHAPES["FullAttentionSP"])
    assert graph_nbytes(loss) <= 45 * 2**20


def test_site_attention_pair_graph_is_bounded():
    # pattern tokens keep this tape the same at any L; it held 60.7 MiB while
    # it kept the q, k and v projections, each conv's value before its
    # activation and the pair-stage gathers
    _, _, loss = _one_alignment_tape("SitesAttentionP", *TAPE_SHAPES["SitesAttentionP"])
    assert graph_nbytes(loss) <= 36 * 2**20


@pytest.mark.parametrize("arch", sorted(TAPE_SHAPES))
def test_tape_keeps_no_projection_and_no_pair_gather(arch):
    spec, n, loss = _one_alignment_tape(arch, *TAPE_SHAPES[arch])
    by_op = tape_bytes_by_op(loss)
    # the matmul nodes left are the pair head's dense layers, (P, width) each,
    # and the one take scatters the pair values: its (n, n) value and index
    pairs = n * (n - 1) // 2
    assert by_op["matmul"] <= sum(pairs * layer.weight.shape[1] * 8 for layer in spec.g.dense)
    assert by_op["take"] <= 2 * n * n * 8


# Recorded before train() ran backward one alignment at a time; pins the final
# weights and history bit for bit, including a partial last batch.
TRAIN_DIGEST = "96cdbef61afed06e7d3b72e1cf8f085896b0b6362345c4ceafa276645ee4c4dc"


def test_training_matches_golden_digest():
    h = hashlib.sha256()
    for name in ("FullAttentionSP", "SitesInvariantS"):
        for loss in ("mae", "l21"):
            spec = build_architecture(name, seed=6, **SMALL)
            data = make_dataset(spec, n_taxa=6, length=40, count=7, seed0=20)
            cfg = TrainConfig(max_epochs=3, batch_size=3, loss=loss, seed=6)
            result = train(spec, [(a, t) for a, t, _ in data], cfg)
            for p in spec.parameters():
                h.update(np.ascontiguousarray(p.data).tobytes())
            h.update(repr(result.history).encode())
    assert h.hexdigest() == TRAIN_DIGEST


# One epoch of each architecture at the bench train shapes (16 channels, 2
# heads, batch 4, seed 1): sha256 of the final weights and the history.  Run
# with one BLAS thread, since the nets that mix taxa do not yet keep their bits
# across thread counts.  Recorded before the tape stopped keeping the attention
# projections, the conv pre-activations and the pair-stage gathers.
_BENCH_EPOCH = """
import hashlib, json
import numpy as np
from phylodist.net.architectures import build_architecture
from phylodist.simulate import BDParams, SubstModel, evolve_alignment, simulate_bd_tree
from phylodist.train import TrainConfig, train, training_targets
out = {}
for c, (arch, n, length, loss, head) in enumerate(%r):
    spec = build_architecture(arch, head=head, channels=16, heads=2, n_taxa=n, seed=1)
    sets = []
    for s in np.random.default_rng([1, 10 + c]).integers(0, 2**62, size=10):
        truth = simulate_bd_tree(BDParams(1.0, 0.5, n), int(s))
        sets.append((evolve_alignment(truth, SubstModel("K2P", kappa=2.0), length, int(s)), truth))
    data = [(a, training_targets(spec, t, a.labels)) for a, t in sets[:8]]
    cfg = TrainConfig(max_epochs=1, patience=100, batch_size=4, loss=loss, seed=1)
    result = train(spec, data, cfg, val_data=sets[8:])
    h = hashlib.sha256()
    for p in spec.parameters():
        h.update(np.ascontiguousarray(p.data).tobytes())
    h.update(repr(result.history).encode())
    out[arch] = h.hexdigest()
print(json.dumps(out))
"""
BENCH_CASES = (
    ("SitesAttentionP", 10, 100, "mae", None),
    ("FullAttentionSP", 10, 100, "mae", None),
    ("HybridAttentionSP", 10, 100, "mae", None),
    ("FullAttentionS", 10, 100, "mae", None),
    ("SitesInvariantS", 64, 200, "mse", "euclidean"),
    ("FullInvariantS", 64, 200, "mae", "inner_product"),
)
BENCH_EPOCH_DIGESTS = {
    "SitesAttentionP": "5d9e9ebb8198a34a8244543a7785a442e99817e5955015401f87a3384c5f9919",
    "FullAttentionSP": "4d271545b800748a34f352d2f89f77bf6b174a715eadf1f1c2a728b0aa756741",
    "HybridAttentionSP": "37530e1a9a41dbfebb675410d9ac7821b7cffbff4008274a90bc85ba1fded112",
    "FullAttentionS": "0aba650b94c72bc785d56ff1bce6eeac447750eeeb0ff990dac14fafbce94468",
    "SitesInvariantS": "89d1b12becca5d6a714ea2f83ce63a6cc93c4a8bb65a52816e4002e3b6e5082f",
    "FullInvariantS": "fb30358ec090f07cac5bd20baecf852b47b8c39d020d5b694789bcc28290da0b",
}


def test_bench_shape_epoch_matches_golden_digests():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _BENCH_EPOCH % (BENCH_CASES,)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == BENCH_EPOCH_DIGESTS


def test_history_csv_roundtrip(tmp_path):
    rows = [
        {"epoch": 0, "train_loss": 0.5, "val_rf": 0.25, "lr": 0.01},
        {"epoch": 1, "train_loss": 0.4, "val_rf": 0.2, "lr": 0.009},
    ]
    path = tmp_path / "history.csv"
    write_history_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_rf,lr"
    assert len(lines) == 3


def test_inner_product_targets_are_covariances():
    spec = build_architecture("FullInvariantS", head="inner_product", **SMALL)
    tree = simulate_bd_tree(BDParams(1.0, 0.5, 6), seed=11)
    aln = evolve_alignment(tree, SubstModel("JC"), 50, seed=11)
    target = training_targets(spec, tree, aln.labels)
    assert np.allclose(target, target.T)
    assert np.linalg.eigvalsh(target)[0] >= -1e-8
    assert np.all(np.diag(target) > 0)


# -- scalar-map fitting -------------------------------------------------------------


def test_fit_adam_learns_linear_map():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, 400)
    y = 3.0 * x + 0.5
    mlp = fit_scalar_head(x, y, hidden=(8, 8), epochs=500, seed=5)
    grid = np.linspace(0.1, 0.9, 50)
    pred = mlp.forward(ad.Tensor(grid[:, None])).data
    assert np.max(np.abs(pred - (3.0 * grid + 0.5))) < 0.1


# Recorded before the labeled-matrix classes shared one body; pins the
# covariance path (CovarianceMatrix -> inverse_gromov) of inner-product heads
# and the targets of both heads, on rows out of label order.
COVARIANCE_DIGEST = "9810cba5cee5821cf36038ac0e413fdda4d81c3719fff69947cdd41473f66275"


def test_covariance_path_matches_golden_digest():
    tree = simulate_bd_tree(BDParams(1.0, 0.5, 7), seed=31)
    aln = evolve_alignment(tree, SubstModel("K2P", kappa=2.0), 30, seed=31)
    perm = np.random.default_rng(31).permutation(aln.n)
    aln = Alignment([aln.labels[i] for i in perm], aln.states[perm])
    h = hashlib.sha256()
    for name in ("SitesInvariantS", "FullInvariantS", "FullAttentionS"):
        spec = build_architecture(name, head="inner_product", seed=7, **SMALL)
        d = network_forward(spec, aln)
        h.update(repr(d.labels).encode())
        h.update(d.values.tobytes())
    for head in ("euclidean", "inner_product"):
        spec = build_architecture("SitesInvariantS", head=head, seed=7, **SMALL)
        h.update(np.ascontiguousarray(training_targets(spec, tree, aln.labels)).tobytes())
    assert h.hexdigest() == COVARIANCE_DIGEST
