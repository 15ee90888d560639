import math

import numpy as np
import pytest

from phylodist import autodiff as ad
from phylodist.errors import TrainingDiverged
from phylodist.net.architectures import build_architecture
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
        loss = ad.mean((pred - 2.0 * x) ** 2.0)
        loss.backward()
        opt.step(cosine_lr(step, 800, 0.05))
    assert abs(float(w.data) - 2.0) < 1e-3


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


def test_fit_identity_function():
    x = np.linspace(0, 1, 500)
    mlp = fit_scalar_head(x, x, method="pwl_lstsq")
    pred = mlp.forward(ad.Tensor(x[:, None])).data
    assert np.max(np.abs(pred - x)) < 1e-3


def test_fit_jc_curve():
    x = np.linspace(0, 0.7, 2000)
    y = -0.75 * np.log1p(-4 * x / 3)
    mlp = fit_scalar_head(x, y, method="pwl_lstsq", knots=160)
    pred = mlp.forward(ad.Tensor(x[:, None])).data
    assert np.max(np.abs(pred - y)) < 1e-3


def test_fit_adam_learns_linear_map():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, 400)
    y = 3.0 * x + 0.5
    mlp = fit_scalar_head(x, y, method="adam", hidden=(8, 8), epochs=500, seed=5)
    grid = np.linspace(0.1, 0.9, 50)
    pred = mlp.forward(ad.Tensor(grid[:, None])).data
    assert np.max(np.abs(pred - (3.0 * grid + 0.5))) < 0.1


def test_degenerate_samples_rejected():
    from phylodist.errors import ConfigError

    with pytest.raises(ConfigError):
        fit_scalar_head(np.ones(10), np.ones(10), method="pwl_lstsq")
