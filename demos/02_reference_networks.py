"""The closed-form reference networks.

Builds the exact Hamming network and the fitted Jukes-Cantor and Kimura
networks, checks them against the analytic formulas, and shows the weights
file round trip.
"""

import os
import tempfile

import numpy as np

from phylodist import build_reference_net, load_network, save_network
from phylodist.distances import d_hamming, jc_correct, k2p_correct, transition_transversion_fractions
from phylodist.net.architectures import pair_values

L = 500
rng = np.random.default_rng(0)
eye = np.eye(4)


def onehot(states):
    return np.ascontiguousarray(np.moveaxis(eye[states], -1, -2))


x = rng.integers(0, 4, (200, L))
y = x.copy()
for b in range(200):
    k = rng.integers(0, int(0.55 * L))
    idx = rng.choice(L, k, replace=False)
    y[b, idx] = (x[b, idx] + rng.integers(1, 4, k)) % 4

print("=== exact Hamming network ===")
net_h = build_reference_net("H", L)
vals = pair_values(net_h, onehot(x), onehot(y))
ref = np.array([d_hamming(a, b) for a, b in zip(x, y)])
print(f"max |net - formula| over 200 pairs: {np.max(np.abs(vals - ref)):.2e}")

print()
print("=== fitted Jukes-Cantor network ===")
net_jc = build_reference_net("JC", L)
print(f"offline fit sup error: {net_jc.config['fit_sup_error']:.2e} "
      f"on hamming range {net_jc.config['fitted_range']}")
vals = pair_values(net_jc, onehot(x), onehot(y))
errs = [abs(v - jc_correct(p)) for v, p in zip(vals, ref) if p <= 0.7]
print(f"max |net - formula| in range: {max(errs):.2e}")

print()
print("=== fitted Kimura two-parameter network ===")
net_k2p = build_reference_net("K2P", L)
vals = pair_values(net_k2p, onehot(x), onehot(y))
errs = []
for b in range(200):
    p, q = transition_transversion_fractions(x[b], y[b])
    if 2 * p + q <= 0.7 and 2 * q <= 0.7:
        errs.append(abs(vals[b] - k2p_correct(p, q)))
print(f"max |net - formula| in range ({len(errs)} pairs): {max(errs):.2e}")

print()
print("=== weights file round trip ===")
with tempfile.TemporaryDirectory() as tmp:  # also removes the manifest side-car
    path = os.path.join(tmp, "jc.pdnet")
    save_network(net_jc, path)
    loaded = load_network(path)
    same = np.array_equal(
        pair_values(net_jc, onehot(x[:20]), onehot(y[:20])),
        pair_values(loaded, onehot(x[:20]), onehot(y[:20])),
    )
    print("loaded network reproduces outputs bit-identically:", same)
    print("manifest written next to the weights file (.manifest.txt)")
