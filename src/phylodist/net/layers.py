"""Network building blocks.

Layouts: sequence tensors are (taxa, channel, site); pair tensors are
(pair, channel, site) with the two members of a pair stacked as the first
and second half of the channel axis.  Cross-taxa information flows only
through attention or explicit mean-context terms (``mixes_taxa``).

The last axis holds either one column per site or one token per site
pattern.  With pattern tokens every forward takes a SiteWeights giving how
many sites each token stands for: site sums weight each token by its count,
site means divide that sum by the true length L, and site attention adds
log(count) to the key scores, which is softmax over the repeated keys.
Without weights, site sums are ordered_sum over the L columns, so site
permutations are bit-neutral.
"""

import numpy as np

from .. import autodiff as ad
from ..errors import ConfigError


def _act(name):
    if name not in ad.ACTIVATIONS:
        raise ConfigError(f"unknown activation {name!r}")
    return ad.ACTIVATIONS[name]


class SiteWeights:
    """How many sites each token on the last axis stands for.

    counts: (rows, tokens), each row summing to the alignment length; rows
    broadcast against the tensor rows.  A zero count marks an absent pattern.
    """

    def __init__(self, counts, length):
        self.counts = np.asarray(counts, float)[:, None, :]  # broadcasts over channels
        with np.errstate(divide="ignore"):
            self.log_counts = np.log(self.counts)  # -inf keys get no attention
        self.length = length


def _site_sum(t, weights, keepdims=False):
    """Sum over the last axis, each token counted once per site it stands for."""
    if weights is not None:
        t = t * weights.counts
    return ad.ordered_sum(t, axis=-1, keepdims=keepdims)


def _site_mean(t, weights, keepdims=False):
    length = t.shape[-1] if weights is None else weights.length
    return _site_sum(t, weights, keepdims) * (1.0 / length)


class Layer:
    """Common surface: forward(tensor, weights=None), named parameter list."""

    mixes_taxa = False

    def params(self):
        return [(name, getattr(self, name)) for name in self.param_names]


class EquivariantPair(Layer):
    """Pair layer with the five-term structured weights, one set per head.

    Per head (w1..w5): out_x = w1*x + w2*y + w3*sum_sites(x) + w4*sum_sites(y)
    + w5, and symmetrically for out_y.  Heads concatenate along the channel
    axis within each member block.  Exactly equivariant under joint site
    permutations and member swap.
    """

    param_names = ("weights",)

    def __init__(self, weights, activation="relu"):
        self.weights = ad.Tensor(np.atleast_2d(np.asarray(weights, float)), requires_grad=True)
        if self.weights.shape[1] != 5:
            raise ConfigError("each equivariant head needs 5 weights")
        self.activation = activation

    def forward(self, t, weights=None):
        p, c2, length = t.shape
        if c2 % 2:
            raise ConfigError("pair tensor channel axis must be even")
        c = c2 // 2
        pair = ad.reshape(t, (p, 2, c, length))
        x, y = pair[:, 0], pair[:, 1]
        sx = _site_sum(x, weights, keepdims=True)
        sy = _site_sum(y, weights, keepdims=True)
        act = _act(self.activation)
        blocks_x, blocks_y = [], []
        n_heads = self.weights.shape[0]
        for h in range(n_heads):
            w = self.weights[h]
            w1, w2, w3, w4, w5 = (w[k] for k in range(5))
            blocks_x.append(act(w1 * x + w2 * y + w3 * sx + w4 * sy + w5))
            blocks_y.append(act(w1 * y + w2 * x + w3 * sy + w4 * sx + w5))
        out_x, out_y = ad.concat(blocks_x, axis=1), ad.concat(blocks_y, axis=1)
        both = ad.stack([out_x, out_y], axis=1)  # weights may broadcast the rows
        return ad.reshape(both, (both.shape[0], 2 * n_heads * c, length))


class InvariantPair(Layer):
    """Final invariant collapse: w1 * sum over members and sites + w2."""

    param_names = ("weights",)

    def __init__(self, w1, w2):
        self.weights = ad.Tensor(np.array([w1, w2], float), requires_grad=True)

    def forward(self, t, weights=None):
        per_site = _site_sum(t, weights)  # (p, 2c)
        p, c2 = per_site.shape
        per_member = ad.reshape(per_site, (p, 2, c2 // 2))
        total = ad.tensor_sum(per_member, axis=1)  # member order is fixed
        return self.weights[0] * total + self.weights[1]


class ChannelConv(Layer):
    """Per-site linear map across channels (kernel size 1 along sites)."""

    param_names = ("weight", "bias")

    def __init__(self, weight, bias, activation="identity"):
        self.weight = ad.Tensor(np.asarray(weight, float), requires_grad=True)
        self.bias = ad.Tensor(np.asarray(bias, float), requires_grad=True)
        self.activation = activation

    @classmethod
    def random(cls, c_in, c_out, rng, activation="elu"):
        scale = 1.0 / np.sqrt(c_in)
        return cls(rng.normal(0.0, scale, size=(c_out, c_in)), np.zeros(c_out), activation)

    def forward(self, t, weights=None):
        return ad.channel_map(self.weight, t, self.bias, self.activation)


class PerMemberConv(ChannelConv):
    """ChannelConv applied separately (with shared weights) to each member
    block of a pair tensor, preserving the pair block structure."""

    def forward(self, t, weights=None):
        p, c2, length = t.shape
        c = c2 // 2
        folded = ad.reshape(t, (p * 2, c, length))
        out = super().forward(folded)
        return ad.reshape(out, (p, 2 * out.shape[1], length))


class DeepSetsMix(Layer):
    """Exchangeable-context channel mix: self term plus mean-pooled context
    terms along the site axis and (optionally) the taxa axis."""

    param_names = ("w_self", "w_site", "w_taxa", "bias")

    def __init__(self, w_self, w_site, w_taxa, bias, use_taxa, activation="elu"):
        self.w_self = ad.Tensor(np.asarray(w_self, float), requires_grad=True)
        self.w_site = ad.Tensor(np.asarray(w_site, float), requires_grad=True)
        self.w_taxa = ad.Tensor(np.asarray(w_taxa, float), requires_grad=True)
        self.bias = ad.Tensor(np.asarray(bias, float), requires_grad=True)
        self.use_taxa = use_taxa
        self.activation = activation

    @property
    def mixes_taxa(self):
        return self.use_taxa

    @classmethod
    def random(cls, c_in, c_out, rng, use_taxa, activation="elu"):
        s = 1.0 / np.sqrt(c_in)
        return cls(
            rng.normal(0.0, s, size=(c_out, c_in)),
            rng.normal(0.0, s, size=(c_out, c_in)),
            rng.normal(0.0, s, size=(c_out, c_in)),
            np.zeros(c_out),
            use_taxa,
            activation,
        )

    def forward(self, t, weights=None):
        out = ad.channel_map(self.w_self, t)
        site_ctx = _site_mean(t, weights, keepdims=True)
        out = out + ad.channel_map(self.w_site, site_ctx)
        if self.use_taxa:
            taxa_ctx = ad.ordered_sum(t, axis=0, keepdims=True) * (1.0 / t.shape[0])
            out = out + ad.channel_map(self.w_taxa, taxa_ctx)
        out = out + ad.reshape(self.bias, (1, -1, 1))
        return _act(self.activation)(out)


class Attention(Layer):
    """Multi-head scaled dot-product self-attention with a residual update.

    axis="site" attends across sites within each row; axis="taxa" attends
    across rows at each site.  Channels d split into H heads of width d/H;
    scores are scaled by 1/sqrt(d).
    """

    param_names = ("w_q", "w_k", "w_v")

    def __init__(self, w_q, w_k, w_v, axis):
        self.w_q = ad.Tensor(np.asarray(w_q, float), requires_grad=True)
        self.w_k = ad.Tensor(np.asarray(w_k, float), requires_grad=True)
        self.w_v = ad.Tensor(np.asarray(w_v, float), requires_grad=True)
        if axis not in ("site", "taxa"):
            raise ConfigError(f"unknown attention axis {axis!r}")
        self.axis = axis

    @classmethod
    def random(cls, channels, heads, rng, axis="site"):
        if channels % heads:
            raise ConfigError(f"{heads} heads do not divide {channels} channels")
        dh = channels // heads
        s = 1.0 / np.sqrt(channels)
        size = (heads, channels, dh)
        return cls(
            rng.normal(0.0, s, size=size),
            rng.normal(0.0, s, size=size),
            rng.normal(0.0, s, size=size),
            axis,
        )

    @property
    def mixes_taxa(self):
        return self.axis == "taxa"

    def forward(self, t, weights=None):
        d = t.shape[1]
        if self.axis == "site":
            x = ad.moveaxis(t, 1, 2)  # (rows, site, d): tokens = sites
        else:
            x = ad.moveaxis(t, 2, 0)  # (site, rows, d): tokens = rows
        scale = 1.0 / np.sqrt(d)
        log_counts = None if weights is None else weights.log_counts  # keys repeat count times
        # no projection is a node: the attention backward recomputes each
        # head's q, k and v from x, which the tape keeps anyway
        x = ad.attention(x, self.w_q, self.w_k, self.w_v, scale, log_counts)
        if self.axis == "site":
            return ad.moveaxis(x, 2, 1)
        return ad.moveaxis(x, 0, 2)


class MeanPoolSites(Layer):
    """(batch, channel, site) -> (batch, channel), invariant to site order."""

    param_names = ()

    def forward(self, t, weights=None):
        return _site_mean(t, weights)


class Dense(Layer):
    param_names = ("weight", "bias")

    def __init__(self, weight, bias, activation="identity"):
        self.weight = ad.Tensor(np.asarray(weight, float), requires_grad=True)
        self.bias = ad.Tensor(np.asarray(bias, float), requires_grad=True)
        self.activation = activation

    @classmethod
    def random(cls, f_in, f_out, rng, activation="elu"):
        s = np.sqrt(2.0 / f_in)
        return cls(rng.normal(0.0, s, size=(f_in, f_out)), np.zeros(f_out), activation)

    def forward(self, t):
        return _act(self.activation)(t @ self.weight + self.bias)


class ScalarMLP(Layer):
    """Dense stack mapping (..., features) to a scalar per row."""

    def __init__(self, dense_layers):
        self.dense = list(dense_layers)

    @classmethod
    def random(cls, f_in, hidden, rng, activation="elu"):
        sizes = [f_in] + list(hidden) + [1]
        layers = []
        for i in range(len(sizes) - 1):
            act = activation if i < len(sizes) - 2 else "identity"
            layers.append(Dense.random(sizes[i], sizes[i + 1], rng, act))
        return cls(layers)

    def params(self):
        return [(f"dense{i}.{n}", p) for i, layer in enumerate(self.dense) for n, p in layer.params()]

    def forward(self, t):
        for layer in self.dense:
            t = layer.forward(t)
        return ad.reshape(t, t.shape[:-1])
