import threading
import tracemalloc

import numpy as np
import pytest

from phylodist import autodiff as ad
from phylodist.errors import NumericError

from util import finite_difference_check, gradients


def _param(data):
    return ad.Tensor(np.array(data, float), requires_grad=True)


def test_sum_of_squares_gradient_analytic():
    p = _param(np.array([1.0, -2.0, 3.0]))
    loss = ad.tensor_sum(p * p)
    (g,) = gradients(loss, [p])
    assert np.allclose(g, 2.0 * p.data, atol=0)


def test_constant_loss_zero_gradients():
    p = _param(np.array([1.0, 2.0]))
    loss = ad.Tensor(5.0)
    loss_total = loss + 0.0 * ad.tensor_sum(p)
    (g,) = gradients(loss_total, [p])
    assert np.allclose(g, 0.0)


def test_backward_rejects_non_scalar():
    p = _param(np.array([1.0, 2.0]))
    with pytest.raises(NumericError):
        (p * p).backward()


def test_grad_accumulates_through_shared_subexpression():
    p = _param(np.array(2.0))
    y = p * p  # used twice below
    loss = y + y
    (g,) = gradients(loss, [p])
    assert g == pytest.approx(8.0)


def test_backward_per_term_accumulates_like_backward_of_sum():
    # train() backpropagates a batch one term at a time: the shared parameters
    # must receive the same additions, in the same order, as one backward of
    # the weighted sum of the terms
    rng = np.random.default_rng(3)
    p = _param(rng.normal(size=(2, 5, 3)))
    w = _param(rng.normal(size=(3, 3)))
    consts = [ad.Tensor(rng.normal(size=(2, 5, 3))) for _ in range(3)]

    def term(c):
        h = ad.elu((p + c) @ w)
        return ad.tensor_sum(ad.attention(h, h, p, 0.5) ** 2.0)

    for weight in (1.0, 1.0 / 3.0):
        summed = gradients((term(consts[0]) + term(consts[1]) + term(consts[2])) * weight, [p, w])
        for q in (p, w):
            q.grad = None
        for c in consts:
            term(c).backward(weight)
        for g, q in zip(summed, (p, w)):
            assert np.array_equal(g, q.grad)
        assert all(c.grad is None for c in consts)


def test_a_graph_backpropagates_once():
    rng = np.random.default_rng(4)
    p = _param(rng.normal(size=(2, 5, 3)))
    loss = ad.tensor_sum(ad.attention(ad.elu(p), p, p, 0.5) ** 2.0)
    loss.backward()
    first = p.grad.copy()
    with pytest.raises(NumericError):
        loss.backward()
    assert np.array_equal(p.grad, first)


def test_backward_frees_the_attention_probabilities():
    # each (rows, T, T) probability array is score-sized; q, k and v are not
    rng = np.random.default_rng(5)
    rows, t, d = 4, 200, 4
    q, k, v = (_param(rng.normal(size=(rows, t, d))) for _ in range(3))
    tracemalloc.start()
    try:
        loss = ad.tensor_sum(ad.attention(q, k, v, 0.5) + ad.attention(q, k, v, 0.25))
        before = tracemalloc.get_traced_memory()[0]
        loss.backward()
        for leaf in (q, k, v):
            leaf.grad = None
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed >= 2 * rows * t * t * 8


def test_gradients_ignore_stale_grads():
    p = _param(np.array([1.0, -2.0, 3.0]))
    p.grad = np.full(3, 100.0)
    (g,) = gradients(ad.tensor_sum(p * p), [p])
    assert np.array_equal(g, 2.0 * p.data)


@pytest.mark.parametrize(
    "op",
    [
        lambda t: ad.tensor_sum(ad.exp(t)),
        lambda t: ad.tensor_sum(ad.sqrt(t + 5.0)),
        lambda t: ad.tensor_sum(ad.absolute(t) * t),
        lambda t: ad.tensor_sum(ad.elu(t)),
        lambda t: ad.tensor_sum(ad.softplus(t)),
        lambda t: ad.tensor_sum(ad.ordered_sum(t, axis=1) ** 2),
        lambda t: ad.tensor_sum(ad.tensor_sum(t, axis=0) ** 3),
        lambda t: ad.tensor_sum(ad.moveaxis(t, 0, 1) @ t),
        lambda t: ad.tensor_sum(ad.reshape(t, (4, 3))[1:3, :] ** 2),
        lambda t: ad.tensor_sum(ad.concat([t, t * 2.0], axis=0)),
        lambda t: ad.tensor_sum(ad.take(t, np.array([0, 2, 2])) ** 2),
        lambda t: ad.tensor_sum(ad.stack([t, t * t], axis=0)),
    ],
)
def test_elementwise_ops_match_finite_differences(op):
    rng = np.random.default_rng(0)
    p = _param(rng.normal(size=(3, 4)) + 0.1)
    worst = finite_difference_check(lambda: op(p), [p])
    assert worst < 1e-4


def test_matmul_shapes_match_finite_differences():
    rng = np.random.default_rng(1)
    cases = [
        ((3, 4), (4, 2)),
        ((5, 3, 4), (4, 2)),
        ((5, 3, 4), (5, 4, 2)),
    ]
    for sa, sb in cases:
        a = _param(rng.normal(size=sa))
        b = _param(rng.normal(size=sb))
        worst = finite_difference_check(lambda: ad.tensor_sum((a @ b) ** 2), [a, b])
        assert worst < 1e-4, (sa, sb, worst)


def _random_spd(rng, n, jitter=0.0):
    m = rng.normal(size=(n, n))
    return m @ m.T + (n + jitter) * np.eye(n)


def test_matrix_ops_match_finite_differences():
    rng = np.random.default_rng(2)
    a = _param(_random_spd(rng, 4))
    worst = finite_difference_check(lambda: ad.logdet(a), [a])
    assert worst < 1e-4
    b = _param(_random_spd(rng, 4))
    worst = finite_difference_check(lambda: ad.trace(ad.inv(b)), [b])
    assert worst < 1e-4
    c = _param(_random_spd(rng, 4))
    target = _random_spd(rng, 4)
    worst = finite_difference_check(
        lambda: ad.tensor_sum(ad.symlog(c) * target), [c]
    )
    assert worst < 1e-4


def test_ordered_sum_is_permutation_stable():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 50))
    perm = rng.permutation(50)
    s1 = ad.ordered_sum(ad.Tensor(x), axis=1).data
    s2 = ad.ordered_sum(ad.Tensor(x[:, perm]), axis=1).data
    assert np.array_equal(s1, s2)


def _log_counts(rng, rows, tokens):
    """(rows, 1, tokens) log site counts with absent (-inf) keys in some rows."""
    counts = rng.integers(0, 4, size=(rows, 1, tokens)).astype(float)
    counts[:, 0, 0] += 1.0  # every row keeps a key
    counts[0, 0, 1:3] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(counts)


@pytest.mark.parametrize("counted", [False, True], ids=["scores", "log_counts"])
def test_attention_matches_finite_differences(counted):
    rng = np.random.default_rng(6)
    # pattern-token nets share one row of q, k, v across the rows of log_counts
    rows, log_counts = (1, _log_counts(rng, 4, 5)) if counted else (2, None)
    q, k, v = (_param(rng.normal(size=(rows, 5, 3))) for _ in range(3))
    probe = rng.normal(size=(4 if counted else rows, 5, 3))
    worst = finite_difference_check(
        lambda: ad.tensor_sum(ad.attention(q, k, v, 0.7, log_counts) * probe), [q, k, v]
    )
    assert worst < 1e-4


def test_attention_probability_rows_sum_to_one():
    rng = np.random.default_rng(5)
    q, k = (ad.Tensor(rng.normal(size=(1, 9, 4)) * 10) for _ in range(2))
    log_counts = _log_counts(rng, 7, 9)
    p = ad.attention(q, k, np.eye(9)[None], 1.0, log_counts).data  # @ I returns p
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(p[0, :, 1:3] == 0.0)  # absent keys get no weight


def test_no_tape_is_local_to_its_thread():
    p = _param(np.array([1.0, 2.0]))
    inside, release = threading.Event(), threading.Event()

    def untaped():
        with ad.no_tape():
            inside.set()
            release.wait(10)

    worker = threading.Thread(target=untaped)
    worker.start()
    try:
        assert inside.wait(10)
        taped = p * p
    finally:
        release.set()
        worker.join(10)
    assert not worker.is_alive()
    assert taped.requires_grad
    with ad.no_tape():
        untaped_value = p * p
    assert not untaped_value.requires_grad
    assert np.array_equal(untaped_value.data, taped.data)
