"""Losses on distance and covariance matrices.

MAE and MSE act elementwise on the strict upper triangle.  The L_{2,1} batch
norm takes root-mean-square error per tree and sums across the batch.  The
LogDet (Stein) and von Neumann divergences act on symmetric positive
definite matrices; distance matrices can be brought into the PSD cone with
the entrywise transform X -> exp(-gamma X) first.
"""

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError

LOSS_KINDS = ("mae", "mse", "l21", "logdet", "vonneumann")
_PD_TOL = 1e-12


def _upper_mean(errors, n):
    """Mean of an (n, n) elementwise error tensor over the strict upper triangle."""
    mask = np.triu(np.ones((n, n)), k=1)
    return ad.tensor_sum(errors * mask) * (1.0 / mask.sum())


def _check_spd(name, values):
    values = np.asarray(values)
    if not np.allclose(values, values.T, atol=1e-8):
        raise NumericError(f"{name} must be symmetric for matrix divergences")
    w = np.linalg.eigvalsh((values + values.T) / 2.0)
    if w[0] <= _PD_TOL * max(1.0, abs(w[-1])):
        raise NumericError(
            f"{name} is singular or not positive definite (min eigenvalue {w[0]:.3e})"
        )


def exp_transform(matrix, gamma):
    """Entrywise X -> exp(-gamma X); maps a metric matrix into the PSD cone."""
    if not gamma > 0:
        raise ConfigError("gamma must be positive")
    m = ad.as_tensor(matrix)
    return ad.exp(m * (-gamma))


def mae(predicted, target):
    predicted, target = ad.as_tensor(predicted), np.asarray(target, float)
    return _upper_mean(ad.absolute(predicted - ad.Tensor(target)), target.shape[0])


def mse(predicted, target):
    predicted, target = ad.as_tensor(predicted), np.asarray(target, float)
    return _upper_mean((predicted - ad.Tensor(target)) ** 2.0, target.shape[0])


def logdet_divergence(x, y):
    """Stein's loss D_ld(X||Y) = tr(X Y^-1) - log det(X Y^-1) - n."""
    xt, yt = ad.as_tensor(x), ad.as_tensor(y)
    _check_spd("X", xt.data)
    _check_spd("Y", yt.data)
    n = xt.shape[0]
    return ad.trace(xt @ ad.inv(yt)) - (ad.logdet(xt) - ad.logdet(yt)) - float(n)


def von_neumann_divergence(x, y):
    """D_vn(X||Y) = tr(X log X - X log Y - X + Y) for symmetric PSD X, Y."""
    xt, yt = ad.as_tensor(x), ad.as_tensor(y)
    _check_spd("X", xt.data)
    _check_spd("Y", yt.data)
    inner = ad.tensor_sum(xt * (ad.symlog(xt) - ad.symlog(yt)))
    return inner - ad.trace(xt) + ad.trace(yt)


def matrix_loss(kind, predicted, target, gamma=None):
    """Scalar loss Tensor for one (predicted, target) matrix pair.

    For the matrix divergences, a gamma converts distance inputs into the
    PSD cone via exp(-gamma X); omit gamma when the inputs are already
    covariance/Gram matrices.
    """
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {kind!r}; options {LOSS_KINDS}")
    if kind == "mae":
        return mae(predicted, target)
    if kind == "mse":
        return mse(predicted, target)
    if kind == "l21":
        return ad.sqrt(mse(predicted, target))
    pred_t = ad.as_tensor(predicted)
    targ_t = ad.Tensor(np.asarray(target, float))
    if gamma is not None:
        pred_t = exp_transform(pred_t, gamma)
        targ_t = exp_transform(targ_t, gamma)
    if kind == "logdet":
        return logdet_divergence(pred_t, targ_t)
    return von_neumann_divergence(pred_t, targ_t)


def batch_loss(kind, pairs, gamma=None):
    """Aggregate loss over a batch of (predicted, target) pairs.

    L_{2,1} sums per-tree RMS errors; every other kind averages.
    """
    terms = [matrix_loss(kind, p, t, gamma=gamma) for p, t in pairs]
    total = sum(terms[1:], terms[0])
    return total if kind == "l21" else total * (1.0 / len(terms))
