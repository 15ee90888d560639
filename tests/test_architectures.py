import tracemalloc

import numpy as np
import pytest

from phylodist.alignment import Alignment
from phylodist.errors import ConfigError, NumericError
from phylodist.losses import batch_loss
from phylodist.net.architectures import (
    ARCHITECTURES,
    NetworkSpec,
    build_architecture,
    default_embed_dim,
    forward_embedding,
    forward_matrix,
    network_forward,
    site_pattern_compression,
)
from phylodist.net.layers import ChannelConv, Dense, ScalarMLP

SMALL = dict(channels=8, heads=2, embed_dim=6, g_hidden=(6,))


def random_alignment(rng, n=5, length=12):
    labels = [f"x{i}" for i in range(n)]
    return Alignment(labels, rng.integers(0, 4, size=(n, length), dtype=np.int8))


def build_small(name, seed=0):
    return build_architecture(name, seed=seed, **SMALL)


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_forward_produces_valid_distance_matrix(name):
    rng = np.random.default_rng(0)
    aln = random_alignment(rng)
    spec = build_small(name)
    d = network_forward(spec, aln)
    assert d.labels == aln.labels
    assert np.array_equal(d.values, d.values.T)
    assert np.all(d.values >= 0)


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_taxa_permutation_equivariance(name):
    rng = np.random.default_rng(1)
    spec = build_small(name)
    for trial in range(5):
        aln = random_alignment(rng, n=6, length=10)
        perm = rng.permutation(6)
        permuted = Alignment([aln.labels[i] for i in perm], aln.states[perm])
        base = network_forward(spec, aln).values
        out = network_forward(spec, permuted).values
        assert np.max(np.abs(out - base[np.ix_(perm, perm)])) <= 1e-9


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_site_permutation_invariance(name):
    rng = np.random.default_rng(2)
    spec = build_small(name)
    aln = random_alignment(rng, n=5, length=15)
    perm = rng.permutation(15)
    shuffled = Alignment(aln.labels, aln.states[:, perm])
    base = network_forward(spec, aln).values
    out = network_forward(spec, shuffled).values
    assert np.max(np.abs(out - base)) <= 1e-9


def test_euclidean_head_satisfies_triangle_inequality():
    rng = np.random.default_rng(3)
    spec = build_small("FullInvariantS")
    aln = random_alignment(rng, n=7, length=20)
    d = network_forward(spec, aln).values
    n = d.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_inner_product_head_gram_is_psd():
    rng = np.random.default_rng(4)
    spec = build_architecture("FullInvariantS", head="inner_product", **SMALL)
    aln = random_alignment(rng, n=6, length=18)
    _, gram = forward_matrix(spec, aln)
    w = np.linalg.eigvalsh(gram.data)
    assert w[0] >= -1e-8
    d = network_forward(spec, aln)
    assert np.all(d.values >= 0)


def test_duplicate_sequences_embed_identically():
    rng = np.random.default_rng(5)
    spec = build_small("SitesInvariantS")
    states = rng.integers(0, 4, size=(4, 10), dtype=np.int8)
    states[2] = states[0]
    aln = Alignment(["a", "b", "c", "d"], states)
    d = network_forward(spec, aln)
    assert d.values[0, 2] == 0.0


def test_non_finite_output_is_a_numeric_error():
    rng = np.random.default_rng(9)
    spec = build_small("SitesAttentionP")
    spec.parameters()[0].data[...] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        network_forward(spec, random_alignment(rng))


def test_pair_scatter_memory_is_bounded():
    # the bound rules out a dense (n^2, P) pair-scatter matrix: ~400 MB at n=100
    rng = np.random.default_rng(10)
    spec = build_architecture("SitesInvariantS", channels=16, n_taxa=100)
    aln = random_alignment(rng, n=100, length=100)
    tracemalloc.start()
    try:
        _, out = forward_matrix(spec, aln)
        batch_loss("mse", [(out, np.zeros((100, 100)))]).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_head_architecture_compatibility():
    with pytest.raises(ConfigError):
        build_architecture("SitesAttentionP", head="euclidean", **SMALL)
    with pytest.raises(ConfigError):
        build_architecture("FullAttentionS", head="pair_scalar", **SMALL)
    with pytest.raises(ConfigError):
        build_architecture("NoSuchNet", **SMALL)


def test_embedding_shape_and_default_dim():
    rng = np.random.default_rng(6)
    spec = build_small("FullAttentionS")
    aln = random_alignment(rng, n=5, length=9)
    z = forward_embedding(spec, aln)
    assert z.shape == (5, SMALL["embed_dim"])
    assert default_embed_dim(20) == 20
    assert default_embed_dim(2) == 8


def test_param_counts_are_positive_and_distinct():
    counts = {name: build_small(name).param_count() for name in ARCHITECTURES}
    assert all(c > 0 for c in counts.values())
    assert counts["FullAttentionSP"] > counts["SitesInvariantS"]


# -- site-pattern compression -------------------------------------------------------


def identity_pair_spec():
    conv = ChannelConv(np.eye(4), np.zeros(4), "identity")
    g = ScalarMLP([Dense(np.ones((8, 1)), np.zeros(1), "identity")])
    config = {"architecture": "SitesAttentionP", "head": "pair_scalar", "nonneg": "identity"}
    return NetworkSpec(config, [conv], [], g=g)


def constant_pair_spec():
    conv = ChannelConv(np.zeros((4, 4)), np.full(4, 0.5), "identity")
    g = ScalarMLP([Dense(np.ones((8, 1)), np.zeros(1), "identity")])
    config = {"architecture": "SitesAttentionP", "head": "pair_scalar", "nonneg": "identity"}
    return NetworkSpec(config, [conv], [], g=g)


def test_compression_identity_network_is_one():
    rng = np.random.default_rng(7)
    aln = random_alignment(rng, n=5, length=30)
    assert site_pattern_compression(identity_pair_spec(), aln) == pytest.approx(1.0)


def test_compression_constant_network_is_reciprocal_pattern_count():
    rng = np.random.default_rng(8)
    aln = random_alignment(rng, n=5, length=30)
    onehot = aln.onehot()
    n_patterns = np.unique(onehot.reshape(-1, 30).T, axis=0).shape[0]
    ratio = site_pattern_compression(constant_pair_spec(), aln)
    assert ratio == pytest.approx(1.0 / n_patterns)
