"""Closed-form reference networks for the analytic distance functions.

The shared trunk turns a one-hot pair into exact per-channel mismatch
indicators using two equivariant layers: the first takes the signed
difference of the members (positive part in one block, negative in the
other), the second averages the blocks, leaving |x - y| / 2 everywhere.
An invariant collapse with weight 1/(2L) then yields per-channel mismatch
fractions whose channel sum is exactly the Hamming distance.

The Jukes-Cantor and Kimura scalar corrections are shipped as single-hidden-
layer ReLU maps that interpolate the closed-form curves piecewise linearly
between pole-adapted knots: each output weight is the change of slope at its
knot, in closed form, so the weights do not depend on the BLAS build or
thread count.  The first knot is 0, so identical sequences map to exactly 0.
"""

import numpy as np

from ..errors import ConfigError
from .architectures import NetworkSpec
from .layers import Dense, EquivariantPair, InvariantPair, PerMemberConv, ScalarMLP

JC_RANGE = 0.7  # hamming fractions covered by the fitted JC correction
K2P_RANGE = 0.7  # covered range of each K2P log argument (2p+q and 2q)
_KNOTS = 160
_GRID = 4001


def fit_pwl_coefficients(fn, x_max, pole):
    """Output weights for the ReLU basis relu(x - t_i) that interpolate fn
    at the knots t_i.

    Weight i is the change of slope at knot i; the last knot is x_max, so its
    weight is 0.  Returns (knots, coefficients, sup_error), the sup error
    taken on a dense grid over [0, x_max].  The first knot is 0 and there is
    no intercept, so 0 maps to exactly 0.
    """
    # dense near the pole: geometric spacing of the log argument
    knots = pole * (1.0 - np.geomspace(1.0, 1.0 - x_max / pole, _KNOTS))
    values = fn(knots)
    slopes = np.diff(values) / np.diff(knots)
    coeffs = np.diff(slopes, prepend=0.0, append=slopes[-1])
    x = np.linspace(0.0, x_max, _GRID)
    sup = float(np.max(np.abs(np.interp(x, knots, values) - fn(x))))
    return knots, coeffs, sup


def jc_curve(z):
    return -0.75 * np.log1p(-4.0 * np.asarray(z) / 3.0)


def _trunk(length):
    return [
        EquivariantPair([[1.0, -1.0, 0.0, 0.0, 0.0]], activation="relu"),
        EquivariantPair([[0.5, 0.5, 0.0, 0.0, 0.0]], activation="relu"),
    ], InvariantPair(1.0 / (2.0 * length), 0.0)


def _k2p_channel_maps():
    """Per-site channel maps taking mismatch patterns to transition /
    transversion indicators: transitions -> (1, 0), transversions -> (0, 1)."""
    purine_pyrimidine = PerMemberConv(
        [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]], [0.0, 0.0], "identity"
    )
    gate = PerMemberConv(
        [[2.0, 0.0], [0.0, 2.0], [1.0, 0.0], [0.0, 1.0]],
        [-1.0, -1.0, 0.0, 0.0],
        "relu",
    )
    project = PerMemberConv(
        [[1.0, 1.0, 0.0, 0.0], [-1.0, -1.0, 1.0, 1.0]], [0.0, 0.0], "identity"
    )
    return [purine_pyrimidine, gate, project]


def build_reference_net(target, length):
    """Exact network computing d_H, or d_JC/d_K2P to the fitted accuracy.

    The invariant-layer weight depends on the sequence length, so reference
    networks are built per L.
    """
    if length < 1:
        raise ConfigError("length must be >= 1")
    eq_layers, invariant = _trunk(length)
    fit_info = {}
    if target == "H":
        pair_stack = eq_layers + [invariant]
        g = ScalarMLP([Dense(np.ones((4, 1)), np.zeros(1), "identity")])
    elif target == "JC":
        pair_stack = eq_layers + [invariant]
        knots, coeffs, sup = fit_pwl_coefficients(jc_curve, JC_RANGE, pole=0.75)
        hidden = Dense(np.ones((4, len(knots))), -knots, "relu")
        out = Dense(coeffs[:, None], np.zeros(1), "identity")
        g = ScalarMLP([hidden, out])
        fit_info = {"fit_sup_error": sup, "fitted_range": [0.0, JC_RANGE]}
    elif target == "K2P":
        pair_stack = eq_layers + _k2p_channel_maps() + [invariant]
        ku, cu, sup_u = fit_pwl_coefficients(
            lambda u: -0.5 * np.log1p(-u), K2P_RANGE, pole=1.0
        )
        kv, cv, sup_v = fit_pwl_coefficients(
            lambda v: -0.25 * np.log1p(-v), K2P_RANGE, pole=1.0
        )
        # hidden units: relu(2p + q - t_i) and relu(2q - t_j)
        w = np.concatenate(
            [np.tile([[2.0], [1.0]], (1, len(ku))), np.tile([[0.0], [2.0]], (1, len(kv)))],
            axis=1,
        )
        b = -np.concatenate([ku, kv])
        hidden = Dense(w, b, "relu")
        out = Dense(np.concatenate([cu, cv])[:, None], np.zeros(1), "identity")
        g = ScalarMLP([hidden, out])
        fit_info = {
            "fit_sup_error": max(sup_u, sup_v),
            "fitted_range": {"2p+q": [0.0, K2P_RANGE], "2q": [0.0, K2P_RANGE]},
        }
    else:
        raise ConfigError(f"unknown reference target {target!r}; options H, JC, K2P")

    config = {
        "architecture": f"Reference{target}",
        "head": "pair_scalar",
        "nonneg": "identity",
        "channels": 4,
        "heads": 1,
        "embed_dim": None,
        "g_hidden": [],
        "seed": None,
        "ref_length": int(length),
        **fit_info,
    }
    return NetworkSpec(config, [], pair_stack, g=g)
