import numpy as np
import pytest

from phylodist import autodiff as ad
from phylodist.errors import NumericError
from phylodist.losses import (
    batch_loss,
    exp_transform,
    logdet_divergence,
    mae,
    matrix_loss,
    mse,
    von_neumann_divergence,
)

from util import finite_difference_check


def random_spd(rng, n, scale=1.0):
    m = rng.normal(size=(n, n))
    return scale * (m @ m.T + n * np.eye(n))


def random_symmetric_zero_diag(rng, n):
    m = np.abs(rng.normal(size=(n, n)))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


def test_divergences_vanish_on_identical_input():
    rng = np.random.default_rng(0)
    x = random_spd(rng, 5)
    assert abs(float(logdet_divergence(x, x).data)) < 1e-9
    assert abs(float(von_neumann_divergence(x, x).data)) < 1e-9


def test_logdet_scaling_invariance():
    rng = np.random.default_rng(1)
    x, y = random_spd(rng, 5), random_spd(rng, 5)
    base = float(logdet_divergence(x, y).data)
    for alpha in (0.1, 10.0):
        scaled = float(logdet_divergence(alpha * x, alpha * y).data)
        assert abs(scaled - base) < 1e-8


def test_divergences_invariant_under_permutation_conjugation():
    rng = np.random.default_rng(2)
    x, y = random_spd(rng, 6), random_spd(rng, 6)
    perm = np.eye(6)[rng.permutation(6)]
    xp, yp = perm.T @ x @ perm, perm.T @ y @ perm
    assert abs(
        float(logdet_divergence(x, y).data) - float(logdet_divergence(xp, yp).data)
    ) < 1e-8
    assert abs(
        float(von_neumann_divergence(x, y).data)
        - float(von_neumann_divergence(xp, yp).data)
    ) < 1e-8


def test_divergences_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y = random_spd(rng, 4), random_spd(rng, 4)
        assert float(logdet_divergence(x, y).data) >= -1e-9
        assert float(von_neumann_divergence(x, y).data) >= -1e-9


def test_elementwise_losses_zero_iff_equal():
    rng = np.random.default_rng(4)
    x = random_symmetric_zero_diag(rng, 5)
    assert float(mae(x, x).data) == 0.0
    assert float(mse(x, x).data) == 0.0
    y = x.copy()
    y[0, 1] = y[1, 0] = y[0, 1] + 0.5
    assert float(mae(x, y).data) > 0
    assert float(mse(x, y).data) > 0
    assert float(matrix_loss("l21", x, y).data) > 0


def test_upper_triangle_only():
    x = np.zeros((3, 3))
    y = np.zeros((3, 3))
    y += np.diag([5.0, 5.0, 5.0])  # diagonal differences must not count
    assert float(mae(x, y).data) == 0.0


def test_batch_l21_sums_per_tree_rms():
    rng = np.random.default_rng(5)
    pairs = []
    expect = 0.0
    for _ in range(3):
        a = random_symmetric_zero_diag(rng, 4)
        b = random_symmetric_zero_diag(rng, 4)
        pairs.append((a, b))
        expect += np.sqrt(float(mse(a, b).data))
    got = float(batch_loss("l21", pairs).data)
    assert got == pytest.approx(expect, rel=1e-12)


def test_exp_transform_maps_tree_metric_into_psd_cone():
    from phylodist.tree import patristic_matrix
    from util import random_binary_tree

    rng = np.random.default_rng(6)
    t = random_binary_tree(rng, 8)
    d = patristic_matrix(t).values
    k = exp_transform(d, gamma=1.0).data
    assert np.linalg.eigvalsh(k)[0] > -1e-10


def test_divergence_on_distance_matrices_via_gamma():
    from phylodist.tree import patristic_matrix
    from util import random_binary_tree

    rng = np.random.default_rng(7)
    d1 = patristic_matrix(random_binary_tree(rng, 6)).values
    loss = matrix_loss("logdet", d1, d1, gamma=1.0)
    assert abs(float(loss.data)) < 1e-9
    d2 = patristic_matrix(random_binary_tree(rng, 6)).values
    assert float(matrix_loss("vonneumann", d1, d2, gamma=1.0).data) > 0


def test_singular_target_rejected():
    rng = np.random.default_rng(8)
    x = random_spd(rng, 4)
    y = np.zeros((4, 4))
    with pytest.raises(NumericError):
        logdet_divergence(x, y)
    with pytest.raises(NumericError):
        von_neumann_divergence(x, y)


def test_asymmetric_input_rejected():
    rng = np.random.default_rng(9)
    x = random_spd(rng, 4)
    bad = x.copy()
    bad[0, 1] += 1.0
    with pytest.raises(NumericError):
        logdet_divergence(bad, x)


def test_divergence_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    y = random_spd(rng, 4)
    base = random_spd(rng, 4)

    x = ad.Tensor(base.copy(), requires_grad=True)

    def sym_loss_ld():
        xs = (x + ad.moveaxis(x, 0, 1)) * 0.5  # keep FD perturbations symmetric
        return logdet_divergence(xs, y)

    assert finite_difference_check(sym_loss_ld, [x]) < 1e-4

    x2 = ad.Tensor(base.copy(), requires_grad=True)

    def sym_loss_vn():
        xs = (x2 + ad.moveaxis(x2, 0, 1)) * 0.5
        return von_neumann_divergence(xs, y)

    assert finite_difference_check(sym_loss_vn, [x2]) < 1e-4
