import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from phylodist import autodiff as ad
from phylodist.errors import ConfigError, TrainingDiverged
from phylodist.losses import batch_loss
from phylodist.net.architectures import build_architecture, forward_matrix
from phylodist.rng import substream
from phylodist.simulate import BDParams, SubstModel, evolve_alignment, simulate_bd_tree
from phylodist.train import (
    Adam,
    TrainConfig,
    cosine_lr,
    fit_scalar_head,
    train,
    training_targets,
    validation_rf,
    write_history_csv,
)

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


def test_training_epoch_memory_is_bounded():
    # one backward over the whole batch held the graphs of its four
    # alignments, and the previous step's graph with them: 701 MB here
    spec = build_architecture("FullAttentionSP", channels=16, heads=2, seed=1)
    data = make_dataset(spec, n_taxa=10, length=100, count=8)
    cfg = TrainConfig(max_epochs=1, batch_size=4, seed=1)
    tracemalloc.start()
    try:
        train(spec, [(a, t) for a, t, _ in data], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250e6


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
