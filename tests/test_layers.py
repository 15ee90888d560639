import numpy as np
import pytest

from phylodist import autodiff as ad
from phylodist.net.layers import (
    Attention,
    ChannelConv,
    DeepSetsMix,
    EquivariantPair,
    InvariantPair,
    MeanPoolSites,
    PerMemberConv,
    ScalarMLP,
    SiteWeights,
)

from util import finite_difference_check, reference_deep_sets_mix


def pair_tensor(rng, p=3, c=4, length=10):
    return ad.Tensor(rng.normal(size=(p, 2 * c, length)))


def site_permuted(t, perm):
    return ad.Tensor(t.data[:, :, perm])


# -- equivariant pair layer ------------------------------------------------------


def test_identity_configuration():
    rng = np.random.default_rng(0)
    t = pair_tensor(rng)
    layer = EquivariantPair([[1.0, 0.0, 0.0, 0.0, 0.0]], activation="identity")
    assert np.array_equal(layer.forward(t).data, t.data)


def test_swap_configuration():
    rng = np.random.default_rng(1)
    t = pair_tensor(rng, p=2, c=3, length=5)
    layer = EquivariantPair([[0.0, 1.0, 0.0, 0.0, 0.0]], activation="identity")
    out = layer.forward(t).data
    swapped = t.data.reshape(2, 2, 3, 5)[:, ::-1].reshape(2, 6, 5)
    assert np.array_equal(out, swapped)


def test_joint_site_permutation_equivariance_bitwise():
    rng = np.random.default_rng(2)
    for trial in range(10):
        t = pair_tensor(rng, p=2, c=3, length=23)
        layer = EquivariantPair(rng.normal(size=(2, 5)), activation="relu")
        perm = rng.permutation(23)
        direct = layer.forward(site_permuted(t, perm)).data
        permuted_after = layer.forward(t).data[:, :, perm]
        assert np.array_equal(direct, permuted_after)


def test_member_swap_equivariance_bitwise():
    rng = np.random.default_rng(3)
    t = pair_tensor(rng, p=2, c=3, length=7)
    layer = EquivariantPair(rng.normal(size=(1, 5)), activation="elu")
    swapped_in = ad.Tensor(t.data.reshape(2, 2, 3, 7)[:, ::-1].reshape(2, 6, 7))
    out_swapped = layer.forward(swapped_in).data.reshape(2, 2, 3, 7)
    out_plain = layer.forward(t).data.reshape(2, 2, 3, 7)
    assert np.array_equal(out_swapped[:, ::-1], out_plain)


def test_equivariant_gradcheck():
    rng = np.random.default_rng(4)
    t = pair_tensor(rng, p=2, c=2, length=6)
    layer = EquivariantPair(rng.normal(size=(2, 5)), activation="elu")
    worst = finite_difference_check(
        lambda: ad.tensor_sum(layer.forward(t) ** 2), [layer.weights]
    )
    assert worst < 1e-4


# -- invariant layer --------------------------------------------------------------


def test_invariant_layer_site_and_swap_invariance():
    rng = np.random.default_rng(5)
    t = pair_tensor(rng, p=3, c=4, length=11)
    layer = InvariantPair(0.25, -0.5)
    base = layer.forward(t).data
    perm = rng.permutation(11)
    assert np.array_equal(layer.forward(site_permuted(t, perm)).data, base)
    swapped = ad.Tensor(t.data.reshape(3, 2, 4, 11)[:, ::-1].reshape(3, 8, 11))
    assert np.array_equal(layer.forward(swapped).data, base)


def test_invariant_gradcheck():
    rng = np.random.default_rng(6)
    t = pair_tensor(rng, p=2, c=2, length=5)
    layer = InvariantPair(0.3, 0.1)
    worst = finite_difference_check(
        lambda: ad.tensor_sum(layer.forward(t) ** 2), [layer.weights]
    )
    assert worst < 1e-4


# -- channel convolutions -----------------------------------------------------------


def test_channel_conv_is_per_site():
    rng = np.random.default_rng(7)
    layer = ChannelConv.random(4, 6, rng, activation="identity")
    t = ad.Tensor(rng.normal(size=(3, 4, 9)))
    out = layer.forward(t).data
    for s in range(9):
        expected = layer.weight.data @ t.data[:, :, s].T + layer.bias.data[:, None]
        assert np.allclose(out[:, :, s], expected.T, atol=1e-12)


def test_per_member_conv_preserves_blocks():
    rng = np.random.default_rng(8)
    layer = PerMemberConv.random(4, 3, rng, activation="identity")
    t = pair_tensor(rng, p=2, c=4, length=5)
    out = layer.forward(t).data
    x = t.data[:, :4]
    plain = ChannelConv(layer.weight.data, layer.bias.data, "identity")
    assert np.allclose(out[:, :3], plain.forward(ad.Tensor(x)).data, atol=1e-12)


def test_conv_gradcheck():
    rng = np.random.default_rng(9)
    layer = ChannelConv.random(3, 3, rng, activation="elu")
    t = ad.Tensor(rng.normal(size=(2, 3, 4)))
    worst = finite_difference_check(
        lambda: ad.tensor_sum(layer.forward(t) ** 2), [layer.weight, layer.bias]
    )
    assert worst < 1e-4


# -- deep-sets mixing --------------------------------------------------------------


def test_deepsets_site_permutation_invariant_context():
    rng = np.random.default_rng(10)
    layer = DeepSetsMix.random(4, 5, rng, use_taxa=True)
    t = ad.Tensor(rng.normal(size=(6, 4, 13)))
    perm = rng.permutation(13)
    direct = layer.forward(ad.Tensor(t.data[:, :, perm])).data
    after = layer.forward(t).data[:, :, perm]
    assert np.array_equal(direct, after)


def test_deepsets_taxa_permutation_equivariant():
    rng = np.random.default_rng(11)
    layer = DeepSetsMix.random(4, 4, rng, use_taxa=True)
    t = ad.Tensor(rng.normal(size=(6, 4, 13)))
    perm = rng.permutation(6)
    direct = layer.forward(ad.Tensor(t.data[perm])).data
    after = layer.forward(t).data[perm]
    assert np.array_equal(direct, after)


def test_deepsets_gradcheck():
    rng = np.random.default_rng(12)
    layer = DeepSetsMix.random(3, 3, rng, use_taxa=True)
    t = ad.Tensor(rng.normal(size=(4, 3, 5)))
    worst = finite_difference_check(
        lambda: ad.tensor_sum(layer.forward(t) ** 2),
        [p for _, p in layer.params()],
    )
    assert worst < 1e-4


@pytest.mark.parametrize("tokens", ["columns", "patterns"])
@pytest.mark.parametrize("use_taxa", [False, True], ids=["sites", "taxa"])
def test_deepsets_mix_keeps_the_bits_of_the_separate_nodes(use_taxa, tokens):
    # pattern tokens are one (1, c, 4) row with a per-taxon composition, so
    # the site context has a row per taxon and widens the value to them.  The
    # input is the moveaxis view of a (rows, site, c) leaf, as a stack hands
    # one layer's value to the next
    rng = np.random.default_rng(14)
    layer = DeepSetsMix.random(4, 5, rng, use_taxa=use_taxa)
    layer.bias.data = rng.normal(size=5)  # not zero, so where it is added shows
    if tokens == "patterns":
        leaf = ad.Tensor(rng.normal(size=(1, 4, 4)), requires_grad=True)
        weights = SiteWeights(rng.multinomial(30, [0.25] * 4, size=6), 30)
    else:
        leaf = ad.Tensor(rng.normal(size=(6, 13, 4)), requires_grad=True)
        weights = None
    params = [leaf] + [p for _, p in layer.params()]
    probe = np.moveaxis(rng.normal(size=(6, leaf.shape[1], 5)), 2, 1)
    runs = []
    for forward in (layer.forward, lambda t, w: reference_deep_sets_mix(layer, t, w)):
        for p in params:
            p.grad = None
        out = forward(ad.moveaxis(leaf, 2, 1), weights)
        ad.tensor_sum(out * probe).backward()
        runs.append([out.data] + [p.grad for p in params])
    # a layer with site context only holds no taxa weight
    assert (layer.w_taxa is None) == (not use_taxa) == ("w_taxa" not in layer.param_names)
    for fused, separate in zip(*runs):
        assert fused.shape == separate.shape and fused.strides == separate.strides
        assert fused.tobytes() == separate.tobytes()


# -- attention ----------------------------------------------------------------------


def test_zero_value_matrices_leave_input_unchanged():
    rng = np.random.default_rng(13)
    layer = Attention.random(8, 2, rng, axis="site")
    layer.w_v.data = np.zeros_like(layer.w_v.data)
    t = ad.Tensor(rng.normal(size=(3, 8, 7)))
    assert np.allclose(layer.forward(t).data, t.data, atol=0)


def test_single_token_attention_is_residual_plus_value():
    rng = np.random.default_rng(14)
    layer = Attention.random(6, 2, rng, axis="site")
    t = ad.Tensor(rng.normal(size=(2, 6, 1)))
    out = layer.forward(t).data
    x = np.moveaxis(t.data, 1, 2)
    v = np.concatenate([x @ layer.w_v.data[h] for h in range(2)], axis=-1)
    assert np.allclose(out, np.moveaxis(x + v, 2, 1), atol=1e-12)


@pytest.mark.parametrize("axis,shape_axis", [("site", 2), ("taxa", 0)])
def test_attention_permutation_equivariance(axis, shape_axis):
    rng = np.random.default_rng(15)
    layer = Attention.random(8, 4, rng, axis=axis)
    t = ad.Tensor(rng.normal(size=(5, 8, 9)))
    perm = rng.permutation(t.shape[shape_axis])
    idx = [slice(None)] * 3
    idx[shape_axis] = perm
    idx_t = tuple(idx)
    direct = layer.forward(ad.Tensor(t.data[idx_t])).data
    after = layer.forward(t).data[idx_t]
    assert np.allclose(direct, after, atol=1e-12)


def test_attention_rejects_bad_head_count():
    rng = np.random.default_rng(17)
    from phylodist.errors import ConfigError

    with pytest.raises(ConfigError):
        Attention.random(8, 3, rng)


def test_attention_gradcheck():
    rng = np.random.default_rng(18)
    layer = Attention.random(4, 2, rng, axis="site")
    t = ad.Tensor(rng.normal(size=(2, 4, 5)))
    worst = finite_difference_check(
        lambda: ad.tensor_sum(layer.forward(t) ** 2),
        [p for _, p in layer.params()],
    )
    assert worst < 1e-4


# -- pooling and scalar maps -----------------------------------------------------------


def test_mean_pool_site_invariance():
    rng = np.random.default_rng(19)
    t = ad.Tensor(rng.normal(size=(4, 3, 17)))
    perm = rng.permutation(17)
    pool = MeanPoolSites()
    assert np.array_equal(
        pool.forward(ad.Tensor(t.data[:, :, perm])).data, pool.forward(t).data
    )


def test_scalar_mlp_gradcheck():
    rng = np.random.default_rng(20)
    mlp = ScalarMLP.random(3, (5, 5), rng)
    t = ad.Tensor(rng.normal(size=(7, 3)))
    worst = finite_difference_check(
        lambda: ad.tensor_sum(mlp.forward(t) ** 2),
        [p for _, p in mlp.params()],
    )
    assert worst < 1e-4
