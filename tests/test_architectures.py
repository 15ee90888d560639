import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from phylodist import autodiff as ad
from phylodist import matrices
from phylodist.alignment import Alignment
from phylodist.distances import distance_matrix
from phylodist.embed import euclidean_matrix
from phylodist.errors import ConfigError, NumericError
from phylodist.losses import batch_loss
from phylodist.net.architectures import (
    ARCHITECTURES,
    NetworkSpec,
    build_architecture,
    default_embed_dim,
    forward_matrix,
    network_forward,
    pair_values,
)
from phylodist.net.layers import ChannelConv, Dense, ScalarMLP
from phylodist.net.reference import build_reference_net
from phylodist.simulate import BDParams, SubstModel, evolve_alignment, simulate_bd_tree
from phylodist.tree import patristic_matrix

from util import gradients, naive_site_forward, random_binary_tree, site_pattern_compression

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
    trials = [(random_alignment(rng, n=6, length=10), rng.permutation(6)) for _ in range(5)]
    # numpy's strings drop trailing NULs, so they tie "a" and "a\x00"; the
    # reversal swaps the two, which a tie would leave in input order
    states = rng.integers(0, 4, size=(6, 10), dtype=np.int8)
    trials.append((Alignment(["b", "a\x00", "a", "c", "d", "é"], states), np.arange(6)[::-1]))
    for aln, perm in trials:
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


def test_attention_training_step_memory_is_bounded():
    # attention as separate ops kept q @ kT, the scaled scores and the
    # probabilities of every head on the tape: 283 MB here; keeping each
    # head's probabilities through the backward that used them, 85 MB
    rng = np.random.default_rng(13)
    spec = build_architecture("FullAttentionSP", channels=16, heads=2, seed=1)
    aln = random_alignment(rng, n=10, length=100)
    target = rng.uniform(0.1, 1.0, size=(10, 10))
    tracemalloc.start()
    try:
        _, out = forward_matrix(spec, aln)
        batch_loss("mae", [(out, target + target.T)]).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 86e6


def test_inference_keeps_no_tape():
    # a taped forward of this net holds 306 MB
    rng = np.random.default_rng(14)
    spec = build_architecture("FullAttentionS", channels=16, heads=2, n_taxa=20, seed=1)
    aln = random_alignment(rng, n=20, length=200)
    tracemalloc.start()
    try:
        got = network_forward(spec, aln).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    _, taped = forward_matrix(spec, aln)
    assert np.array_equal(got, taped.data)


def test_untaped_attention_forward_memory_is_block_sized():
    # whole (rows, T, T) scores for each head peaked at 59.3 MiB
    spec = build_architecture("HybridAttentionSP", channels=16, heads=2, seed=1)
    tree = simulate_bd_tree(BDParams(1.0, 0.5, 12), seed=1)
    aln = evolve_alignment(tree, SubstModel("K2P", kappa=2.0), 300, seed=1)
    tracemalloc.start()
    try:
        network_forward(spec, aln)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def _blocked_kernel_outputs():
    """The outputs of every kernel that runs in matrices.blocks, and the
    gradients of attention."""
    rng = np.random.default_rng(34)
    tree = simulate_bd_tree(BDParams(1.0, 0.5, 10), seed=3)
    aln = evolve_alignment(tree, SubstModel("K2P", kappa=2.0), 301, seed=3)
    x = ad.Tensor(rng.normal(size=(37, 10, 6)), requires_grad=True)
    ws = [ad.Tensor(rng.normal(size=(3, 6, 2)), requires_grad=True) for _ in range(3)]
    out = ad.attention(x, *ws, 0.4)
    ad.tensor_sum(out * rng.normal(size=out.shape)).backward()
    return [
        euclidean_matrix([f"t{i}" for i in range(17)], rng.normal(size=(17, 9))).values,
        *(patristic_matrix(random_binary_tree(rng, 40, rooted)).values for rooted in (True, False)),
        distance_matrix(aln, "k2p").values,
        network_forward(build_architecture("SitesAttentionP", channels=8, heads=2, seed=1), aln).values,
        out.data, x.grad, *(w.grad for w in ws),
    ]


def test_blocks_never_change_bits(monkeypatch):
    # a 4 KiB budget gives every kernel several blocks and a short last one:
    # Euclidean rows 3 at a time (17 rows), patristic rows 12 (40 rows),
    # indicators 25 sites (301 sites; the pair counts too), and attention 2
    # pairs of 16-token scores (45 pairs) and 5 rows of 10-token scores (37 rows)
    whole = _blocked_kernel_outputs()
    monkeypatch.setattr(matrices, "BLOCK_BYTES", 4096)
    for want, got in zip(whole, _blocked_kernel_outputs(), strict=True):
        assert want.tobytes() == got.tobytes()


# the nets whose bits do not depend on the BLAS thread count yet; the three
# that attend across taxa differ between 1 and 2 threads at this shape
_BLAS_DIGEST = """
import hashlib
from phylodist.net.architectures import build_architecture, network_forward
from phylodist.simulate import BDParams, SubstModel, evolve_alignment, simulate_bd_tree
tree = simulate_bd_tree(BDParams(1.0, 0.5, 20), seed=1)
aln = evolve_alignment(tree, SubstModel("K2P", kappa=2.0), 300, seed=1)
h = hashlib.sha256()
for name in ("SitesInvariantS", "FullInvariantS", "SitesAttentionP"):
    h.update(network_forward(build_architecture(name, channels=64, heads=4, seed=1), aln).values.tobytes())
print(h.hexdigest())
"""


def test_network_forward_does_not_depend_on_blas_threads():
    src = Path(__file__).resolve().parent.parent / "src"
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _BLAS_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        digests.add(done.stdout)
    assert len(digests) == 1


# Recorded before the layer and pair_values paths were merged; pins the forward
# values and gradients of every architecture bit for bit.  Re-derived when
# SitesInvariantS stopped holding the taxa weights it never read: the same
# computation on the older code with their (zero) gradients left out.
FORWARD_DIGEST = "bf8ff2cc5729d3649023d71a8a7ad3f88f1746c7270d472e8042a5e71bdc753e"


def test_forward_values_match_golden_digest():
    rng = np.random.default_rng(41)
    aln = Alignment(["t3", "t1", "t4", "t0", "t2"], rng.integers(0, 4, size=(5, 12), dtype=np.int8))
    target = rng.uniform(0.1, 2.0, size=(5, 5))
    target = target + target.T
    h = hashlib.sha256()

    def add(spec, out):
        h.update(np.ascontiguousarray(out.data).tobytes())
        for g in gradients(batch_loss("mae", [(out, target)]), spec.parameters()):
            h.update(np.ascontiguousarray(g).tobytes())

    for name in ARCHITECTURES:
        for n_heads in (1, 2):
            for head in (None,) if name.endswith("P") else ("euclidean", "inner_product"):
                spec = build_architecture(
                    name, head=head, channels=8, heads=n_heads, embed_dim=6, g_hidden=(6,), seed=5
                )
                add(spec, forward_matrix(spec, aln)[1])
    x, y = (np.moveaxis(np.eye(4)[rng.integers(0, 4, size=(6, 12))], -1, -2) for _ in range(2))
    for target_name in ("H", "JC", "K2P"):
        spec = build_reference_net(target_name, 12)
        for p in spec.parameters():  # the fitted weights vary with the LAPACK build
            p.data = rng.normal(0.0, 0.5, size=p.shape)
        h.update(np.ascontiguousarray(pair_values(spec, x, y)).tobytes())
        add(spec, forward_matrix(spec, aln)[1])
    assert h.hexdigest() == FORWARD_DIGEST


# -- site-local networks on pattern tokens ------------------------------------------


def oracle_alignments(rng):
    """Random rows plus inputs that leave site patterns absent."""
    labels = [f"x{(3 * i) % 5}{i}" for i in range(5)]  # input rows out of label order
    random_rows = rng.integers(0, 4, size=(5, 9), dtype=np.int8)
    copied = random_rows.copy()
    copied[3] = copied[0]
    copied[4] = copied[0][::-1]  # same composition, other order
    return [
        Alignment(labels, random_rows),
        Alignment(labels, copied),
        Alignment(labels, np.full((5, 9), 2, dtype=np.int8)),
        Alignment(labels, rng.integers(0, 4, size=(5, 1), dtype=np.int8)),
    ]


def site_local_specs(length, rng):
    yield build_small("SitesAttentionP", seed=3)
    yield build_small("SitesInvariantS", seed=3)
    yield build_architecture("SitesInvariantS", head="inner_product", seed=3, **SMALL)
    for target in ("H", "JC", "K2P"):
        spec = build_reference_net(target, length)
        for p in spec.parameters():
            p.data = p.data + rng.normal(0.0, 0.5, size=p.shape)
        yield spec


def test_site_local_nets_match_per_site_oracle():
    rng = np.random.default_rng(31)
    for aln in oracle_alignments(rng):
        for spec in site_local_specs(aln.length, rng):
            assert spec.site_local
            probe = rng.normal(size=(aln.n, aln.n))
            results = []
            for forward in (lambda: forward_matrix(spec, aln)[1], lambda: naive_site_forward(spec, aln)):
                out = forward()
                grads = gradients(ad.tensor_sum(out * probe), spec.parameters())
                results.append([out.data] + grads)
            for fast, naive in zip(*results):
                assert np.all(np.isfinite(fast)), spec.architecture
                scale = max(1.0, float(np.max(np.abs(naive))))
                assert np.max(np.abs(fast - naive)) <= 1e-10 * scale, (spec.architecture, aln.length)


def test_taxa_mixing_nets_are_not_site_local():
    for name in ARCHITECTURES:
        assert build_small(name).site_local == (name in ("SitesInvariantS", "SitesAttentionP"))


@pytest.mark.parametrize("name", ["HybridAttentionSP", "FullAttentionSP"])
def test_pair_values_rejects_taxa_mixing_nets(name):
    # taxa attention would mix the unrelated pairs of one batch
    x = np.moveaxis(np.eye(4)[np.random.default_rng(13).integers(0, 4, size=(3, 10))], -1, -2)
    with pytest.raises(ConfigError):
        pair_values(build_small(name), x, x)


def test_site_attention_memory_does_not_grow_with_length():
    # per-site attention held (P, L, L) scores: 577 MB here at L=400
    spec = build_architecture("SitesAttentionP", channels=8, heads=2, seed=1)
    rng = np.random.default_rng(12)
    short, long = (random_alignment(rng, n=4, length=length) for length in (400, 40_000))
    forward_matrix(spec, short)  # warm-up
    tracemalloc.start()
    try:
        _, out = forward_matrix(spec, short)
        ad.tensor_sum(out**2).backward()
        assert tracemalloc.get_traced_memory()[1] < 8e6
        tracemalloc.reset_peak()
        forward_matrix(spec, long)  # checked only once L=400 fits
        assert tracemalloc.get_traced_memory()[1] < 8e6
    finally:
        tracemalloc.stop()


def test_head_architecture_compatibility():
    with pytest.raises(ConfigError):
        build_architecture("SitesAttentionP", head="euclidean", **SMALL)
    with pytest.raises(ConfigError):
        build_architecture("FullAttentionS", head="pair_scalar", **SMALL)
    with pytest.raises(ConfigError):
        build_architecture("NoSuchNet", **SMALL)


def test_embedding_shape_and_default_dim():
    assert default_embed_dim(20) == 20
    assert default_embed_dim(2) == 8


@pytest.mark.parametrize(
    "name, head",
    [(name, head) for name in ARCHITECTURES
     for head in ((None,) if name.endswith("P") else ("euclidean", "inner_product"))],
)
def test_every_parameter_is_read(name, head):
    # a parameter the forward never reads gets no gradient, so Adam would
    # carry moments for it and every checkpoint would store it
    rng = np.random.default_rng(3)
    aln = random_alignment(rng)
    target = rng.uniform(0.1, 2.0, size=(aln.n, aln.n))
    spec = build_architecture(name, head=head, **SMALL)
    batch_loss("mae", [(forward_matrix(spec, aln)[1], target + target.T)]).backward()
    assert [n for n, p in spec.named_params() if p.grad is None] == []


def test_param_counts_are_positive_and_distinct():
    counts = {name: build_small(name).param_count() for name in ARCHITECTURES}
    assert all(c > 0 for c in counts.values())
    assert counts["FullAttentionSP"] > counts["SitesInvariantS"]


def test_param_counts_at_the_cli_defaults():
    counts = {name: build_architecture(name, n_taxa=20).param_count() for name in ARCHITECTURES}
    assert counts == {
        "SitesInvariantS": 18132,  # 2 mix layers of 3 (64, 64) weights; FullInvariantS's have 4
        "FullInvariantS": 26324,
        "SitesAttentionP": 104609,
        "HybridAttentionSP": 145729,
        "FullAttentionS": 174036,
        "FullAttentionSP": 182593,
    }


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
