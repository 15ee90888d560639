"""The six distance-network templates and their forward passes.

Sequence (S) networks embed each taxon into R^k and read distances off the
embedding, either directly (euclidean head) or through a Gram matrix and the
inverse Gromov transform (inner_product head).  Pair (P) networks process
each pair of sequences jointly, with the pair axis enumerated in sorted-label
order so input row permutations are bit-neutral, and emit one nonnegative
scalar per pair.

Templates (channels d, heads H):
  SitesInvariantS   input conv + 2 site-context mix layers
  FullInvariantS    input conv + 2 site+taxa-context mix layers
  SitesAttentionP   pair net, 6 x (site attention + conv)
  HybridAttentionSP 3 x (site+taxa attention + conv), pairs, 3 x (site attention + conv)
  FullAttentionS    sequence net, 6 x (site+taxa attention + conv)
  FullAttentionSP   3 x (site+taxa attention + conv), pairs, 3 x (site+taxa attention + conv)
"""

import math

import numpy as np

from .. import autodiff as ad
from ..errors import ConfigError, DataError, NumericError
from ..matrices import CovarianceMatrix, DistanceMatrix, inverse_gromov
from ..rng import substream
from .layers import Attention, ChannelConv, DeepSetsMix, Dense, MeanPoolSites, ScalarMLP

ARCHITECTURES = (
    "SitesInvariantS",
    "FullInvariantS",
    "SitesAttentionP",
    "HybridAttentionSP",
    "FullAttentionS",
    "FullAttentionSP",
)
REFERENCE_ARCHITECTURES = ("ReferenceH", "ReferenceJC", "ReferenceK2P")

HEADS = ("euclidean", "inner_product", "pair_scalar")


def default_embed_dim(n_taxa):
    """Embedding width guided by the O(log n) metric-embedding bound."""
    return max(8, int(math.ceil(math.log2(max(2, n_taxa)))) * 4)


class NetworkSpec:
    """A built network: configuration plus ordered layer stacks."""

    def __init__(self, config, seq_stack, pair_stack, embed=None, g=None):
        self.config = dict(config)
        self.seq_stack = list(seq_stack)
        self.pair_stack = list(pair_stack)
        self.embed = embed
        self.g = g
        self.pool = MeanPoolSites()

    @property
    def architecture(self):
        return self.config["architecture"]

    @property
    def head(self):
        return self.config["head"]

    @property
    def is_pair_net(self):
        return self.head == "pair_scalar"

    def named_params(self):
        out = []
        for i, layer in enumerate(self.seq_stack):
            out += [(f"seq{i}.{n}", p) for n, p in layer.params()]
        for i, layer in enumerate(self.pair_stack):
            out += [(f"pair{i}.{n}", p) for n, p in layer.params()]
        if self.embed is not None:
            out += [(f"embed.{n}", p) for n, p in self.embed.params()]
        if self.g is not None:
            out += [(f"g.{n}", p) for n, p in self.g.params()]
        return out

    def parameters(self):
        return [p for _, p in self.named_params()]

    def param_count(self):
        return int(sum(p.data.size for p in self.parameters()))


# -- construction ------------------------------------------------------------------


def _attention_block(d, heads, rng, axes):
    block = []
    for axis in axes:
        block.append(Attention.random(d, heads, rng, axis=axis))
    block.append(ChannelConv.random(d, d, rng, activation="elu"))
    return block


def build_architecture(
    name,
    head=None,
    channels=64,
    heads=4,
    embed_dim=None,
    n_taxa=None,
    g_hidden=(16, 16, 16),
    seed=0,
):
    """Instantiate one of the six templates with randomly initialized weights.

    S templates accept head "euclidean" (default) or "inner_product"; P
    templates always use the "pair_scalar" head with a softplus output.
    """
    if name not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {name!r}; options {ARCHITECTURES}")
    rng = substream(seed, "init", name)
    d = channels
    is_pair = name.endswith("P")
    if head is None:
        head = "pair_scalar" if is_pair else "euclidean"
    if is_pair and head != "pair_scalar":
        raise ConfigError(f"{name} requires the pair_scalar head")
    if not is_pair and head not in ("euclidean", "inner_product"):
        raise ConfigError(f"{name} requires a euclidean or inner_product head")
    if embed_dim is None:
        embed_dim = default_embed_dim(n_taxa) if n_taxa else 16

    seq_stack, pair_stack, embed, g = [], [], None, None
    if name == "SitesInvariantS":
        seq_stack = [ChannelConv.random(4, d, rng, "elu")]
        seq_stack += [DeepSetsMix.random(d, d, rng, use_taxa=False) for _ in range(2)]
    elif name == "FullInvariantS":
        seq_stack = [ChannelConv.random(4, d, rng, "elu")]
        seq_stack += [DeepSetsMix.random(d, d, rng, use_taxa=True) for _ in range(2)]
    elif name == "FullAttentionS":
        seq_stack = [ChannelConv.random(4, d, rng, "elu")]
        for _ in range(6):
            seq_stack += _attention_block(d, heads, rng, ("site", "taxa"))
    elif name == "SitesAttentionP":
        half = max(2, d // 2)
        seq_stack = [ChannelConv.random(4, half, rng, "elu")]
        pair_stack = [ChannelConv.random(2 * half, d, rng, "elu")]
        for _ in range(6):
            pair_stack += _attention_block(d, heads, rng, ("site",))
    elif name == "HybridAttentionSP":
        seq_stack = [ChannelConv.random(4, d, rng, "elu")]
        for _ in range(3):
            seq_stack += _attention_block(d, heads, rng, ("site", "taxa"))
        pair_stack = [ChannelConv.random(2 * d, d, rng, "elu")]
        for _ in range(3):
            pair_stack += _attention_block(d, heads, rng, ("site",))
    elif name == "FullAttentionSP":
        seq_stack = [ChannelConv.random(4, d, rng, "elu")]
        for _ in range(3):
            seq_stack += _attention_block(d, heads, rng, ("site", "taxa"))
        pair_stack = [ChannelConv.random(2 * d, d, rng, "elu")]
        for _ in range(3):
            pair_stack += _attention_block(d, heads, rng, ("site", "taxa"))

    if is_pair:
        g = ScalarMLP.random(d, g_hidden, rng, activation="elu")
    else:
        embed = Dense.random(d, embed_dim, rng, activation="identity")

    config = {
        "architecture": name,
        "head": head,
        "nonneg": "softplus" if is_pair else None,
        "channels": d,
        "heads": heads,
        "embed_dim": embed_dim,
        "g_hidden": list(g_hidden),
        "seed": seed,
    }
    return NetworkSpec(config, seq_stack, pair_stack, embed=embed, g=g)


# -- forward passes -----------------------------------------------------------------


def _check_length(spec, length):
    want = spec.config.get("ref_length")
    if want and length != want:
        raise DataError(f"network was built for length {want}, got {length} sites")


def _onehot_tensor(aln, spec=None):
    if spec is not None:
        _check_length(spec, aln.length)
    return aln.labels, ad.Tensor(aln.onehot())


def _canonical_pairs(labels):
    """(i, j) row-index arrays enumerating pairs in sorted-label order."""
    order = np.argsort(np.asarray(labels))
    ii, jj = [], []
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            ii.append(order[a])
            jj.append(order[b])
    return np.asarray(ii), np.asarray(jj)


def _scatter_symmetric(values, n, ii, jj):
    """(P,) pair values -> exactly symmetric (n, n) tensor with zero diagonal."""
    index = np.full((n, n), len(ii))  # the diagonal reads the appended zero
    index[ii, jj] = index[jj, ii] = np.arange(len(ii))
    return ad.take(ad.concat([values, np.zeros(1)]), index)


def _run(stack, t, capture=None):
    for layer in stack:
        t = layer.forward(t)
        if capture is not None and t.ndim == 3:
            capture["hidden"] = t
    return t


def _pair_tail(spec, pair, capture=None):
    """Pair-stack input, one row per pair -> (P,) pair values."""
    pair = _run(spec.pair_stack, pair, capture)
    # reference trunks end in an invariant collapse; others need pooling
    pooled = spec.pool.forward(pair) if pair.ndim == 3 else pair
    vals = spec.g.forward(pooled)
    if spec.config.get("nonneg") == "softplus":
        vals = ad.softplus(vals)
    return vals


def forward_matrix(spec, aln, capture=None):
    """Distance (or Gram) matrix as a Tensor, labels in input row order.

    For inner_product heads returns the Gram matrix tensor.  ``capture``,
    when a dict, receives the final site-axis hidden activation under
    "hidden".
    """
    labels, x = _onehot_tensor(aln, spec)
    n = len(labels)
    t = _run(spec.seq_stack, x, capture)
    if spec.is_pair_net:
        ii, jj = _canonical_pairs(labels)
        vals = _pair_tail(spec, ad.concat([t[ii], t[jj]], axis=1), capture)
        return labels, _scatter_symmetric(vals, n, ii, jj)
    pooled = spec.pool.forward(t)
    z = spec.embed.forward(pooled)
    if spec.head == "inner_product":
        return labels, z @ ad.moveaxis(z, 0, 1)
    ii, jj = _canonical_pairs(labels)
    diff = z[ii] - z[jj]
    dist = ad.sqrt(ad.tensor_sum(diff * diff, axis=1))
    return labels, _scatter_symmetric(dist, n, ii, jj)


def network_forward(spec, aln):
    """Alignment -> DistanceMatrix under a built network."""
    if aln.length < 1:
        raise DataError("empty alignment")
    labels, out = forward_matrix(spec, aln)
    values = out.data
    if not np.all(np.isfinite(values)):
        raise NumericError(f"{spec.architecture} produced non-finite network output")
    if spec.head == "inner_product":
        return inverse_gromov(CovarianceMatrix(labels, values, check_psd=False))
    values = np.array(values)
    values[values < 0] = 0.0  # guard against -0.0 and rounding dust
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(labels, np.maximum(values, values.T))


def forward_embedding(spec, aln):
    """Taxon embedding Z (numpy) of an S network, rows in input order."""
    if spec.is_pair_net:
        raise ConfigError("pair networks have no taxon embedding")
    _, x = _onehot_tensor(aln)
    t = _run(spec.seq_stack, x)
    return spec.embed.forward(spec.pool.forward(t)).data


def pair_values(spec, x_batch, y_batch):
    """Evaluate a pair network on a batch of explicit one-hot pairs.

    x_batch, y_batch: (B, 4, L) arrays; returns (B,) distances.
    """
    if not spec.is_pair_net:
        raise ConfigError("pair_values requires a pair network")
    x = np.asarray(x_batch, float)
    _check_length(spec, x.shape[-1])
    tx = _run(spec.seq_stack, ad.Tensor(x))
    ty = _run(spec.seq_stack, ad.Tensor(np.asarray(y_batch, float)))
    return _pair_tail(spec, ad.concat([tx, ty], axis=1)).data


# -- site-pattern compression ---------------------------------------------------------


def _unique_columns(mat, tol=1e-6):
    """Number of distinct columns, coordinates compared at resolution tol."""
    cols = np.round(np.asarray(mat, float).T / tol).astype(np.int64)
    return int(np.unique(cols, axis=0).shape[0])


def site_pattern_compression(spec, aln):
    """Unique site patterns in the final hidden layer / unique input patterns."""
    onehot = aln.onehot()
    n, k, length = onehot.shape
    input_patterns = _unique_columns(onehot.reshape(n * k, length))
    capture = {}
    forward_matrix(spec, aln, capture=capture)
    hidden = capture["hidden"].data
    hidden_patterns = _unique_columns(hidden.reshape(-1, hidden.shape[-1]))
    return hidden_patterns / input_patterns
