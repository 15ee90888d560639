"""Adam optimization with cosine decay, and the distance-network training
loop with tree-distance-based early stopping.

Validation runs the full inference pipeline per epoch: forward pass to a
distance matrix, neighbor joining, Robinson-Foulds distance against the
generating tree.  The best-validation weights are restored at the end, so
training never returns a model worse than the best epoch seen.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, TrainingDiverged
from .files import open_input, write_table
from .losses import LOSS_KINDS, batch_loss
from .net.architectures import forward_matrix, network_forward
from .net.layers import ScalarMLP
from .nj import neighbor_join
from .rng import substream
from .tree import covariance_matrix, patristic_matrix, rf_distance


# Adam hyperparameters (Kingma & Ba defaults)
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    max_epochs: int = 100
    patience: int = 10
    batch_size: int = 4
    loss: str = "mae"
    gamma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ConfigError("max_epochs and batch_size must be >= 1")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.loss!r}; options {LOSS_KINDS}")


class Adam:
    def __init__(self, params):
        self.params = list(params)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, lr):
        self.t += 1
        b1, b2, eps = ADAM_B1, ADAM_B2, ADAM_EPS
        for k, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            p.grad = None
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            m_hat = self.m[k] / (1 - b1**self.t)
            v_hat = self.v[k] / (1 - b2**self.t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def cosine_lr(step, horizon, initial):
    """Monotone nonincreasing cosine ramp from initial at 0 to 0 at horizon."""
    frac = min(max(step, 0), horizon) / horizon
    return initial * 0.5 * (1.0 + math.cos(math.pi * frac))


@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_rf: float = math.inf


def training_targets(spec, tree, labels):
    """Target matrix for one alignment: patristic distances, or MRCA
    covariances for inner-product networks, aligned to the row order."""
    mat = covariance_matrix(tree) if spec.head == "inner_product" else patristic_matrix(tree)
    return mat.reorder(labels).values


def matrix_loss_gamma(spec, cfg):
    """The gamma of exp(-gamma D) that a run's loss applies to the network's
    distances: None for inner_product heads, whose covariances are already
    PSD, and for losses that are not matrix divergences."""
    if cfg.loss not in ("logdet", "vonneumann") or spec.head == "inner_product":
        return None
    if not 0 < cfg.gamma < math.inf:
        raise ConfigError(f"the {cfg.loss} loss needs a positive finite gamma, got {cfg.gamma}")
    return cfg.gamma


def _param_norm(params):
    return math.sqrt(sum(float(np.sum(p.data**2)) for p in params))


def validation_rf(spec, val_data):
    """Mean RF over (alignment, true tree) pairs via forward + NJ."""
    scores = []
    for aln, tree in val_data:
        d = network_forward(spec, aln)
        scores.append(rf_distance(neighbor_join(d), tree))
    return float(np.mean(scores))


def train(spec, train_data, cfg, val_data=None):
    """Optimize a NetworkSpec on (alignment, target) pairs.

    train_data: list of (Alignment, target ndarray) with targets in the
    alignment's row order (see training_targets).  val_data: list of
    (Alignment, PhyloTree) scored by RF each epoch.  Deterministic given
    cfg.seed under single-threaded execution.

    A step runs forward, loss and backward for one alignment of the batch at
    a time, each backward seeded with the term's batch weight (1/len(batch),
    or 1 for l21), so a step never holds the graphs of the whole batch: only
    the current alignment's, and the previous one's, stripped of the arrays
    its backward saved, until the next forward rebinds it.  The parameters
    receive the same additions in the same order as one backward of
    batch_loss over the whole batch would give them, so weights and losses
    are bit-identical to that.
    """
    if not train_data:
        raise ConfigError("train needs at least one training alignment")
    params = spec.parameters()
    opt = Adam(params)
    order_rng = substream(cfg.seed, "batch-order")
    steps_per_epoch = math.ceil(len(train_data) / cfg.batch_size)
    horizon = cfg.max_epochs * steps_per_epoch
    gamma = matrix_loss_gamma(spec, cfg)
    result = TrainResult()
    best_weights = None
    stale = 0
    step = 0
    for epoch in range(cfg.max_epochs):
        order = order_rng.permutation(len(train_data))
        epoch_losses = []
        for b in range(steps_per_epoch):
            batch = [train_data[i] for i in order[b * cfg.batch_size : (b + 1) * cfg.batch_size]]
            for p in params:
                p.grad = None
            weight = 1.0 if cfg.loss == "l21" else 1.0 / len(batch)
            total = None
            for aln, target in batch:
                # out and term keep the previous alignment's graph alive until
                # this forward rebinds them.  Its backward already freed what
                # its nodes saved; dropping the graph itself too (del, or
                # clearing _parents) lowers peak RSS further but lets glibc
                # return the top of the heap, which the next forward faults
                # back in: 2.5-4x the minor faults on the train bench, and no
                # more steps per second.
                _, out = forward_matrix(spec, aln)
                term = batch_loss(cfg.loss, [(out, target)], gamma=gamma)
                total = term.data if total is None else total + term.data
                # a non-finite partial sum stays non-finite, so stop before its backward
                if not math.isfinite(total):
                    raise TrainingDiverged(epoch, b, _param_norm(params))
                term.backward(weight)
            value = float(total * weight)
            lr = cosine_lr(step, horizon, cfg.learning_rate)
            opt.step(lr)
            step += 1
            epoch_losses.append(value)
        val_rf = validation_rf(spec, val_data) if val_data else math.nan
        lr_now = cosine_lr(step, horizon, cfg.learning_rate)
        result.history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)),
                "val_rf": val_rf,
                "lr": lr_now,
            }
        )
        if val_data:
            if val_rf < result.best_val_rf - 1e-12:
                result.best_val_rf = val_rf
                result.best_epoch = epoch
                best_weights = [p.data.copy() for p in params]
                stale = 0
            else:
                stale += 1
                if stale > cfg.patience:
                    break
    if best_weights is not None:
        for p, w in zip(params, best_weights):
            p.data = w
    return result


_HISTORY_COLUMNS = ("epoch", "train_loss", "val_rf", "lr")


def write_history_csv(history, path):
    rows = ([row[key] for key in _HISTORY_COLUMNS] for row in history)
    write_table(path, _HISTORY_COLUMNS, rows, sep=",")


def read_history_csv(path):
    """History rows of a file written by write_history_csv."""
    history = []
    with open_input(path) as fh:
        next(fh, None)
        for line in fh:
            try:
                epoch, train_loss, val_rf, lr = line.split(",")
                values = int(epoch), float(train_loss), float(val_rf), float(lr)
            except ValueError:
                raise DataError(f"malformed history row {line!r}") from None
            history.append(dict(zip(_HISTORY_COLUMNS, values)))
    return history


# -- scalar-map fitting ----------------------------------------------------------


def fit_scalar_head(x, y, hidden=(16, 16, 16, 16), epochs=400, learning_rate=0.01, seed=0):
    """Fit a scalar map to samples (x, y); returns a ScalarMLP.

    An ELU MLP trained full-batch under MAE with cosine decay.  It fits the
    unique (x, y) samples weighted by their multiplicity, which leaves the
    MAE of the full sample set unchanged.
    """
    x = np.asarray(x, float).reshape(-1)
    y = np.asarray(y, float).reshape(-1)
    if x.size < 2 or x.size != y.size:
        raise ConfigError("need at least two (x, y) samples of equal length")
    (x, y), counts = np.unique(np.stack([x, y]), axis=1, return_counts=True)
    rng = substream(seed, "scalar-head")
    mlp = ScalarMLP.random(1, hidden, rng)
    params = [p for _, p in mlp.params()]
    opt = Adam(params)
    xs = x[:, None]
    share = counts / counts.sum()
    for step in range(epochs):
        pred = mlp.forward(ad.Tensor(xs))
        loss = ad.tensor_sum(ad.absolute(pred - y) * share)
        value = float(loss.data)
        if not math.isfinite(value):
            raise TrainingDiverged(step, 0, _param_norm(params))
        loss.backward()
        opt.step(cosine_lr(step, epochs, learning_rate))
    return mlp
