import threading
import tracemalloc

import numpy as np
import pytest

from phylodist import autodiff as ad
from phylodist.errors import ConfigError, NumericError
from phylodist.net.architectures import _pair_tokens

from util import (
    finite_difference_check,
    gradients,
    reference_attention,
    reference_channel_map,
    reference_pair_tokens,
)


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
    ws = [_param(rng.normal(size=(1, 3, 3))) for _ in range(3)]
    consts = [ad.Tensor(rng.normal(size=(2, 5, 3))) for _ in range(3)]

    def term(c):
        h = ad.elu((p + c) @ w)
        return ad.tensor_sum(ad.attention(h, *ws, 0.5) ** 2.0)

    params = [p, w] + ws
    for weight in (1.0, 1.0 / 3.0):
        summed = gradients((term(consts[0]) + term(consts[1]) + term(consts[2])) * weight, params)
        for q in params:
            q.grad = None
        for c in consts:
            term(c).backward(weight)
        for g, q in zip(summed, params):
            assert np.array_equal(g, q.grad)
        assert all(c.grad is None for c in consts)


def test_a_graph_backpropagates_once():
    rng = np.random.default_rng(4)
    p = _param(rng.normal(size=(2, 5, 3)))
    ws = [_param(rng.normal(size=(1, 3, 3))) for _ in range(3)]
    loss = ad.tensor_sum(ad.attention(ad.elu(p), *ws, 0.5) ** 2.0)
    loss.backward()
    first = p.grad.copy()
    with pytest.raises(NumericError):
        loss.backward()
    assert np.array_equal(p.grad, first)


def test_backward_frees_the_attention_probabilities():
    # each head's (rows, T, T) probability array is score-sized; x and the weights are not
    rng = np.random.default_rng(5)
    rows, t, d = 4, 200, 4
    x = _param(rng.normal(size=(rows, t, 2 * d)))
    ws = [_param(rng.normal(size=(2, 2 * d, d))) for _ in range(3)]
    tracemalloc.start()
    try:
        loss = ad.tensor_sum(ad.attention(x, *ws, 0.5))
        before = tracemalloc.get_traced_memory()[0]
        loss.backward()
        for leaf in [x] + ws:
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
    # pattern-token nets share one row of x, q, k, v across the rows of log_counts
    rows, log_counts = (1, _log_counts(rng, 4, 5)) if counted else (2, None)
    x = _param(rng.normal(size=(rows, 5, 4)))
    ws = [_param(rng.normal(size=(2, 4, 2))) for _ in range(3)]
    probe = rng.normal(size=(4 if counted else rows, 5, 4))
    worst = finite_difference_check(
        lambda: ad.tensor_sum(ad.attention(x, *ws, 0.7, log_counts) * probe), [x] + ws
    )
    assert worst < 1e-4


def test_attention_probability_rows_sum_to_one():
    rng = np.random.default_rng(5)
    w_q, w_k = (rng.normal(size=(1, 9, 4)) * 10 for _ in range(2))
    log_counts = _log_counts(rng, 7, 9)
    eye = np.eye(9)[None]  # x = I, so v = I @ I and the value is I + p @ I
    p = ad.attention(eye, w_q, w_k, eye, 1.0, log_counts).data - eye
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(p[0, :, 1:3] == 0.0)  # absent keys get no weight


def _assert_same_bits(a, b):
    # layout too: later reductions and matmuls read it
    assert a.shape == b.shape and a.strides == b.strides
    assert a.tobytes() == b.tobytes()


def _assert_graphs_agree(fused, reference, params, probe):
    """Equal value bits, and equal gradient bits for every parameter."""
    outs, grads = [], []
    for build in (fused, reference):
        out = build()
        outs.append(out.data)
        grads.append(gradients(ad.tensor_sum(out * probe), params))
    _assert_same_bits(*outs)
    for g, ref in zip(*grads):
        _assert_same_bits(g, ref)


@pytest.mark.parametrize("counted", [False, True], ids=["scores", "log_counts"])
@pytest.mark.parametrize("projected", [False, True], ids=["leaves", "projected"])
def test_attention_matches_per_head_composition_bit_for_bit(projected, counted):
    # three heads, and log_counts widening one row to four.  x is a leaf, or
    # the moveaxis view of a (rows, d, site) leaf that Attention.forward
    # projects onto site tokens
    rng = np.random.default_rng(7)
    log_counts = _log_counts(rng, 4, 5) if counted else None
    x_leaf = _param(rng.normal(size=(1, 6, 5) if projected else (1, 5, 6)))
    ws = [_param(rng.normal(size=(3, 6, 2))) for _ in range(3)]

    def run(op):
        x = ad.moveaxis(x_leaf, 1, 2) if projected else x_leaf
        return op(x, *ws, 0.4, log_counts)

    params = [x_leaf] + ws
    probe = rng.normal(size=(4 if counted else 1, 5, 6))
    _assert_graphs_agree(
        lambda: run(ad.attention), lambda: run(reference_attention), params, probe
    )


@pytest.mark.parametrize("biased", [True, False], ids=["bias", "context"])
def test_channel_map_matches_composition_bit_for_bit(biased):
    # a biased map on a moveaxis view, and a bias-less one on a (rows, c, 1) context
    rng = np.random.default_rng(8)
    w, b = _param(rng.normal(size=(5, 4))), _param(rng.normal(size=5))
    if biased:
        t_leaf = _param(rng.normal(size=(3, 40, 4)))
        params = [t_leaf, w, b]
    else:
        t_leaf = _param(rng.normal(size=(3, 4, 1)))
        params, b = [t_leaf, w], None

    def run(op):
        return op(w, ad.moveaxis(t_leaf, 2, 1) if biased else t_leaf, b)

    # in the layout of the map's value, as the next layer hands its gradient back
    probe = np.moveaxis(rng.normal(size=(3, 40 if biased else 1, 5)), 2, 1)
    _assert_graphs_agree(
        lambda: run(ad.channel_map), lambda: run(reference_channel_map), params, probe
    )


@pytest.mark.parametrize("activation", ["elu", "relu"])
def test_channel_map_activation_matches_composition_bit_for_bit(activation):
    # the activation overwrites the map's value in place; zeros, a subnormal
    # and large magnitudes sit on both sides of the kink
    rng = np.random.default_rng(9)
    w, b = _param(rng.normal(size=(5, 4))), _param(rng.normal(size=5))
    t_leaf = _param(rng.normal(size=(3, 40, 4)))
    t_leaf.data[0, :5] = [[0.0] * 4, [-0.0] * 4, [5e-324] * 4, [800.0] * 4, [-800.0] * 4]
    w.data[0], b.data[0] = 0.0, 0.0  # the first output channel is exactly zero

    def run(op):
        return op(w, ad.moveaxis(t_leaf, 2, 1), b)

    def fused(*args):
        return ad.channel_map(*args, activation)

    def separate(*args):
        return ad.ACTIVATIONS[activation](reference_channel_map(*args))

    probe = np.moveaxis(rng.normal(size=(3, 40, 5)), 2, 1)
    _assert_graphs_agree(lambda: run(fused), lambda: run(separate), [t_leaf, w, b], probe)


def test_channel_map_rejects_an_activation_it_cannot_apply_in_place():
    with pytest.raises(ConfigError, match="softplus"):
        ad.channel_map(np.eye(2), np.ones((1, 2, 3)), activation="softplus")


def test_gather_pairs_matches_take_and_concat_bit_for_bit():
    # pairs of rows of a moveaxis view, some rows in several pairs
    rng = np.random.default_rng(10)
    t_leaf = _param(rng.normal(size=(5, 7, 3)))
    ii, jj = np.array([0, 0, 1, 3, 2, 4]), np.array([1, 2, 2, 4, 4, 0])

    def run(op):
        return op(ad.moveaxis(t_leaf, 2, 1))

    probe = rng.normal(size=(6, 6, 7))
    _assert_graphs_agree(
        lambda: run(lambda t: ad.gather_pairs(t, ii, jj)),
        lambda: run(lambda t: ad.concat([t[ii], t[jj]], axis=1)),
        [t_leaf],
        probe,
    )


@pytest.mark.parametrize("rows", [1, 5], ids=["shared", "per-taxon"])
def test_pair_tokens_match_take_and_concat_bit_for_bit(rows):
    # (1 or taxa, C, 4) state features in the layout a channel map leaves
    rng = np.random.default_rng(11)
    t_leaf = _param(rng.normal(size=(rows, 4, 3)))
    ii, jj = np.array([0, 0, 1, 3, 2, 4]), np.array([1, 2, 2, 4, 4, 0])

    def run(op):
        return op(ad.moveaxis(t_leaf, 2, 1), ii, jj)

    probe = rng.normal(size=(1 if rows == 1 else 6, 6, 16))
    _assert_graphs_agree(
        lambda: run(_pair_tokens), lambda: run(reference_pair_tokens), [t_leaf], probe
    )


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
