"""The six distance-network templates and their forward passes.

Sequence (S) networks embed each taxon into R^k and read distances off the
embedding, either directly (euclidean head) or through a Gram matrix and the
inverse Gromov transform (inner_product head).  Pair (P) networks process
each pair of sequences jointly, with the pair axis enumerated in sorted-label
order so input row permutations are bit-neutral, and emit one nonnegative
scalar per pair.

Networks whose layers never mix taxa (SitesInvariantS, SitesAttentionP and
the reference nets) depend on an alignment only through its site-pattern
counts, so they run on weighted pattern tokens instead of L site columns:
4 state tokens per taxon, weighted by its base composition, and 16 joint
tokens per pair, weighted by the pair's 4x4 state counts.  Their cost does
not grow with L, and only they give a pair a value of its own, so only they
run under pair_values on explicit pairs.  Networks that mix taxa run on the
L site columns of a whole alignment.

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
from ..alignment import N_STATES, indicator_blocks
from ..errors import ConfigError, DataError, NumericError
from ..matrices import CovarianceMatrix, DistanceMatrix, inverse_gromov, upper_mask
from ..rng import substream
from .layers import Attention, ChannelConv, DeepSetsMix, Dense, MeanPoolSites, ScalarMLP, SiteWeights

# name -> (sequence blocks, pair blocks or None for an S net).  A block is
# "sites" or "taxa", a DeepSetsMix with site or site+taxa context, or a tuple
# of attention axes: attention along each, then a conv.
_SITE, _FULL = ("site",), ("site", "taxa")
_TEMPLATES = {
    "SitesInvariantS": (["sites"] * 2, None),
    "FullInvariantS": (["taxa"] * 2, None),
    "SitesAttentionP": ([], [_SITE] * 6),
    "HybridAttentionSP": ([_FULL] * 3, [_SITE] * 3),
    "FullAttentionS": ([_FULL] * 6, None),
    "FullAttentionSP": ([_FULL] * 3, [_FULL] * 3),
}
ARCHITECTURES = tuple(_TEMPLATES)


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

    @property
    def site_local(self):
        """True when no layer mixes taxa, so pattern counts determine the output."""
        return not any(layer.mixes_taxa for layer in self.seq_stack + self.pair_stack)

    def named_params(self):
        prefixed = [(f"seq{i}", layer) for i, layer in enumerate(self.seq_stack)]
        prefixed += [(f"pair{i}", layer) for i, layer in enumerate(self.pair_stack)]
        prefixed += [(name, head) for name, head in (("embed", self.embed), ("g", self.g)) if head]
        return [(f"{prefix}.{n}", p) for prefix, layer in prefixed for n, p in layer.params()]

    def parameters(self):
        return [p for _, p in self.named_params()]

    def param_count(self):
        return int(sum(p.data.size for p in self.parameters()))


# -- construction ------------------------------------------------------------------


def _layers(blocks, d, heads, rng):
    """The layers of a template's block list, weights drawn in block order."""
    out = []
    for block in blocks:
        if block in ("sites", "taxa"):
            out.append(DeepSetsMix.random(d, d, rng, use_taxa=block == "taxa"))
        else:
            out += [Attention.random(d, heads, rng, axis=axis) for axis in block]
            out.append(ChannelConv.random(d, d, rng, activation="elu"))
    return out


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
    Every size (channels, heads, embed_dim, g_hidden entries) must be >= 1.
    """
    if name not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {name!r}; options {ARCHITECTURES}")
    if embed_dim is None:
        embed_dim = default_embed_dim(n_taxa) if n_taxa else 16
    sizes = [("channels", channels), ("heads", heads), ("embed_dim", embed_dim)]
    for key, value in sizes + [("g_hidden", v) for v in g_hidden]:
        if value < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")
    rng = substream(seed, "init", name)
    d = channels
    seq_blocks, pair_blocks = _TEMPLATES[name]
    is_pair = pair_blocks is not None
    if head is None:
        head = "pair_scalar" if is_pair else "euclidean"
    if is_pair and head != "pair_scalar":
        raise ConfigError(f"{name} requires the pair_scalar head")
    if not is_pair and head not in ("euclidean", "inner_product"):
        raise ConfigError(f"{name} requires a euclidean or inner_product head")

    # a pair net without sequence blocks gives each member half the channels
    member = max(2, d // 2) if is_pair and not seq_blocks else d
    seq_stack = [ChannelConv.random(4, member, rng, "elu")] + _layers(seq_blocks, d, heads, rng)
    pair_stack, embed, g = [], None, None
    if is_pair:
        pair_stack = [ChannelConv.random(2 * member, d, rng, "elu")]
        pair_stack += _layers(pair_blocks, d, heads, rng)
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


def _canonical_pairs(labels):
    """(i, j) row-index arrays enumerating pairs in sorted-label order."""
    order = np.argsort(np.asarray(labels))
    first, second = np.nonzero(upper_mask(len(order)))
    return order[first], order[second]


def _scatter_symmetric(values, n, ii, jj):
    """(P,) pair values -> exactly symmetric (n, n) tensor with zero diagonal."""
    index = np.full((n, n), len(ii))  # the diagonal reads the appended zero
    index[ii, jj] = index[jj, ii] = np.arange(len(ii))
    return ad.take(ad.concat([values, np.zeros(1)]), index)


# Pattern tokens: state token a is the one-hot of state a; pair token
# 4a + b joins state a of the first member with state b of the second.
_STATE_TOKENS = np.eye(N_STATES)[None]  # (1, channel, token)
_FIRST, _SECOND = np.divmod(np.arange(N_STATES * N_STATES), N_STATES)


def _joint_counts(states):
    """(n, 4, n, 4) counts: [i, a, j, b] = sites where row i has a and row j has b.

    The Gram product of the (4n, L) one-hot, summed over blocks of sites.
    """
    n = states.shape[0]
    gram = np.zeros((N_STATES * n, N_STATES * n))
    for block in indicator_blocks(states):
        x = block.reshape(N_STATES * n, -1)
        gram += x @ x.T
    return gram.reshape(n, N_STATES, n, N_STATES)


def _run(stack, t, weights=None):
    for layer in stack:
        t = layer.forward(t, weights)
    return t


def _state_features(spec, composition, length):
    """Sequence stack on the 4 state tokens, each taxon weighting them by its
    (taxa, 4) composition -> ((1 or taxa, C, 4) features, SiteWeights).
    Rows stay 1, shared by all taxa, until a layer reads the weights."""
    weights = SiteWeights(composition, length)
    return _run(spec.seq_stack, ad.Tensor(_STATE_TOKENS), weights), weights


def _pair_tokens(t, ii, jj):
    """(1 or taxa, C, 4) state features -> (1 or P, 2C, 16) joint-pattern tokens."""
    rows = (ii, jj) if t.shape[0] > 1 else (None, None)
    return ad.gather_pairs(t, *rows, tokens=(_FIRST, _SECOND))


def _pair_tail(spec, pair, weights=None):
    """Pair-stack input, one row per pair -> (P,) pair values."""
    pair = _run(spec.pair_stack, pair, weights)
    # reference trunks end in an invariant collapse; others need pooling
    pooled = spec.pool.forward(pair, weights) if pair.ndim == 3 else pair
    vals = spec.g.forward(pooled)
    if spec.config.get("nonneg") == "softplus":
        vals = ad.softplus(vals)
    return vals


def _encode(spec, aln, ii, jj):
    """Sequence stack over aln, then for pair nets the pair values.

    Returns (S-net taxon features or (P,) pair values, their SiteWeights or
    None).  Site-local nets run on pattern tokens, the others on the one-hot
    site columns.
    """
    if not spec.site_local:
        t = _run(spec.seq_stack, ad.Tensor(aln.onehot()))
        if spec.is_pair_net:
            return _pair_tail(spec, ad.gather_pairs(t, ii, jj)), None
        return t, None
    states = aln.states
    composition = np.stack([np.count_nonzero(states == a, axis=1) for a in range(N_STATES)], axis=1)
    t, weights = _state_features(spec, composition, aln.length)
    if not spec.is_pair_net:
        return t, weights
    joint = _joint_counts(states)[ii, :, jj, :]
    pair_weights = SiteWeights(joint.reshape(len(ii), -1), aln.length)
    return _pair_tail(spec, _pair_tokens(t, ii, jj), pair_weights), None


def forward_matrix(spec, aln):
    """Distance (or Gram) matrix as a Tensor, labels in input row order.

    For inner_product heads returns the Gram matrix tensor.
    """
    _check_length(spec, aln.length)
    labels, n = aln.labels, aln.n
    ii, jj = _canonical_pairs(labels)
    out, weights = _encode(spec, aln, ii, jj)
    if spec.is_pair_net:
        return labels, _scatter_symmetric(out, n, ii, jj)
    z = spec.embed.forward(spec.pool.forward(out, weights))
    if spec.head == "inner_product":
        return labels, z @ ad.moveaxis(z, 0, 1)
    diff = z[ii] - z[jj]
    dist = ad.sqrt(ad.tensor_sum(diff * diff, axis=1))
    return labels, _scatter_symmetric(dist, n, ii, jj)


def network_forward(spec, aln):
    """Alignment -> DistanceMatrix under a built network."""
    if aln.n < 3:
        raise DataError(f"network distances need >= 3 sequences, got {aln.n}")
    if aln.length < 1:
        raise DataError("empty alignment")
    with ad.no_tape():
        labels, out = forward_matrix(spec, aln)
    values = out.data
    if not np.all(np.isfinite(values)):
        raise NumericError(f"{spec.architecture} produced non-finite network output")
    if spec.head == "inner_product":
        return inverse_gromov(CovarianceMatrix(labels, values))
    # _scatter_symmetric gave an exactly symmetric matrix with a +0.0
    # diagonal; a loaded checkpoint can still emit negative distances
    values = np.array(values)
    values[values < 0] = 0.0
    return DistanceMatrix(labels, values)


def pair_values(spec, x_batch, y_batch):
    """Evaluate a site-local pair network on a batch of explicit one-hot pairs.

    x_batch, y_batch: (B, 4, L) arrays; returns (B,) distances, each pair's
    independent of the rest of the batch.  A pair network that mixes taxa
    has no value for a pair on its own (it depends on the whole alignment),
    so it raises ConfigError.
    """
    if not (spec.is_pair_net and spec.site_local):
        raise ConfigError("pair_values requires a pair network that does not mix taxa")
    x = np.asarray(x_batch, float)
    y = np.asarray(y_batch, float)
    _check_length(spec, x.shape[-1])
    both = np.concatenate([x, y]) if x.shape == y.shape else None
    if both is None or not (np.all((both == 0) | (both == 1)) and np.all(both.sum(axis=1) == 1)):
        raise DataError("pair_values needs two equally shaped one-hot batches")
    with ad.no_tape():
        t, _ = _state_features(spec, both.sum(axis=2), x.shape[-1])
        b = np.arange(len(x))
        counts = (x @ np.swapaxes(y, 1, 2)).reshape(len(x), -1)
        pair = _pair_tokens(t, b, b + len(x))
        return _pair_tail(spec, pair, SiteWeights(counts, x.shape[-1])).data

