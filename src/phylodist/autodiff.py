"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation appends a node to an implicit tape (the expression graph):
nodes cache their forward value and know how to push gradients to their
parents.  ``backward()`` on a scalar adds its gradient into the ``grad`` of
every reachable leaf that requires one, so backward passes over several
scalars that share parameters accumulate exactly as one pass over their sum
would.  Interior gradients are dropped once pushed, and tensors that require
no gradient receive none.  Each node frees what its backward saved (attention's
probabilities, say) as soon as it has pushed, so a graph backpropagates once: a
second pass through a consumed node raises ``NumericError``.  Node values and
parents stay.  Leaf grads stay until a caller clears them, as ``Adam.step``
does after using them.
Inside ``with no_tape():`` operations compute the same values but return
parentless tensors, so nothing is kept for a backward pass; the switch is a
context variable, so each thread has its own.

The op set is exactly what the network layers and losses run: ``+``, ``*``,
binary ``-``, ``**``, indexing, ``@`` on operands with 2 or more dimensions,
six activations, two sums, ``attention``, ``channel_map``, five shape ops and
four matrix ops.  ``ordered_sum`` sorts before summing, so its value depends
only on the multiset of addends.  ``attention`` is one node per attention
layer: the q, k and v projections of x by every head, their softmax
attention and the residual update of x.  It keeps only each head's softmax
probabilities and recomputes the projections in its backward, which replays
the chain rule of the separate projection, scale, log-count, softmax, concat
and residual steps op for op.  ``channel_map`` is one node for a per-site
channel matmul, its bias and its activation, which overwrites the value in
place.  ``gather_pairs`` is one node for the two row gathers of a pair stage
and their concat, and keeps only the indices.  None of them keeps an
intermediate array that no backward reads, and their values and gradients
keep the bits of the separate steps.
"""

import contextvars
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, NumericError

_EIG_FLOOR = 1e-10


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_push")

    def __init__(self, data, requires_grad=False, _parents=(), _push=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._push = _push

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    # -- graph walking -----------------------------------------------------

    def _topo(self):
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        return order

    def backward(self, seed=1.0):
        """Add the gradient of seed * this scalar into every reachable leaf.

        Leaf grads are added to, not reset, so calling backward on t1 and then
        on t2 leaves the same grads, bit for bit, as one backward of t1 + t2:
        that pass walks t1's subgraph and then t2's, in the same order.  Each
        interior gradient is dropped as soon as it has been pushed, and each
        node gives up its push, with the arrays it saved, once it has pushed:
        a graph backpropagates once, and a second backward through a node
        already pushed raises NumericError.
        """
        if self.data.size != 1:
            raise NumericError("backward() requires a scalar output")
        order = self._topo()
        self._accumulate(np.full_like(self.data, seed))
        for node in reversed(order):
            if node._push is None or node.grad is None:
                continue
            g, node.grad = node.grad, None
            push, node._push = node._push, _consumed
            push(g)

    def _accumulate(self, g):
        if not self.requires_grad:
            return
        g = np.asarray(g, dtype=float)
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, k):
        return power(self, k)

    def __getitem__(self, idx):
        return take(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _consumed(g):
    raise NumericError("backward() through a graph that was already backpropagated")


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


_TAPE = contextvars.ContextVar("phylodist_tape", default=True)


@contextmanager
def no_tape():
    """Compute forward values only: ops inside record no parents."""
    token = _TAPE.set(False)
    try:
        yield
    finally:
        _TAPE.reset(token)


def _node(data, parents, push):
    if not _TAPE.get():
        return Tensor(data)
    return Tensor(data, _parents=tuple(parents), _push=push)


# -- arithmetic ------------------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def push(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), push)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def push(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), push)


def power(a, k):
    a = as_tensor(a)
    k = float(k)
    out_data = a.data**k

    def push(g):
        a._accumulate(g * k * a.data ** (k - 1.0))

    return _node(out_data, (a,), push)


def matmul(a, b):
    """a @ b for operands with 2 or more dimensions."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def push(g):
        g = np.asarray(g)
        x, y = a.data, b.data
        a._accumulate(_unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape))
        b._accumulate(_unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape))

    return _node(out_data, (a, b), push)


# -- elementwise nonlinearities -----------------------------------------------------


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def push(g):
        a._accumulate(g * out_data)

    return _node(out_data, (a,), push)


def sqrt(a):
    """Square root with a zero subgradient at zero (safe for exact ties)."""
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def push(g):
        denom = 2.0 * out_data
        safe = np.where(denom == 0.0, np.inf, denom)
        a._accumulate(g / safe)

    return _node(out_data, (a,), push)


def absolute(a):
    a = as_tensor(a)
    out_data = np.abs(a.data)

    def push(g):
        a._accumulate(g * np.sign(a.data))

    return _node(out_data, (a,), push)


def relu(a):
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def push(g):
        a._accumulate(g * (a.data > 0.0))

    return _node(out_data, (a,), push)


def elu(a):
    a = as_tensor(a)
    neg = np.expm1(np.minimum(a.data, 0.0))
    out_data = np.where(a.data > 0.0, a.data, neg)

    def push(g):
        # out_data equals neg wherever a <= 0
        a._accumulate(g * np.where(a.data > 0.0, 1.0, out_data + 1.0))

    return _node(out_data, (a,), push)


def softplus(a):
    a = as_tensor(a)
    out_data = np.logaddexp(0.0, a.data)

    def push(g):
        a._accumulate(g / (1.0 + np.exp(-a.data)))

    return _node(out_data, (a,), push)


ACTIVATIONS = {
    "relu": relu,
    "elu": elu,
    "softplus": softplus,
    "identity": lambda t: t,
}


# -- reductions ----------------------------------------------------------------------


def _sum_push(a, axis, keepdims):
    """Backward of a sum of a over axis: the gradient broadcast back to a."""

    def push(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return push


def tensor_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), _sum_push(a, axis, keepdims))


def ordered_sum(a, axis, keepdims=False):
    """Sum along one axis with the addends sorted first.

    The value depends only on the multiset of addends, so any permutation
    along the axis produces a bit-identical result.
    """
    a = as_tensor(a)
    # contiguous layout pins numpy's pairwise-summation blocking
    s = np.ascontiguousarray(np.sort(a.data, axis=axis))
    return _node(s.sum(axis=axis, keepdims=keepdims), (a,), _sum_push(a, axis, keepdims))


def attention(x, w_q, w_k, w_v, scale, log_counts=None):
    """x + concat_h softmax(q_h @ k_hᵀ * scale + log_counts) @ v_h, as one node,
    where q_h = x @ w_q[h], k_h = x @ w_k[h] and v_h = x @ w_v[h].

    The (H, d, dh) weights give H heads whose widths dh sum to the last axis d
    of x, each head filling its own slice of it.  log_counts, when given,
    broadcasts against the (rows, T, T) scores and may widen their rows; -inf
    entries give a key no weight.  The node keeps only each head's
    probabilities, and its backward drops them as soon as that head has pushed;
    the backward recomputes each head's projections from x.  Gradients reach x
    as the separate nodes pushed them: the residual first, then the q, k and v
    projections of each head in ascending order.
    """
    x, w_q, w_k, w_v = (as_tensor(t) for t in (x, w_q, w_k, w_v))
    xd, ws = x.data, (w_q.data, w_k.data, w_v.data)
    taping = _TAPE.get()
    out_data, probs, start = None, [], 0
    for h in range(len(w_q.data)):
        q, k, v = (xd @ w[h] for w in ws)
        p = q @ np.moveaxis(k, -1, -2)
        p *= scale
        score_shape = p.shape
        if log_counts is not None:
            p = p + log_counts
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        if out_data is None:
            out_data = np.empty(p.shape[:-1] + xd.shape[-1:])
        width = v.shape[-1]
        np.matmul(p, v, out=out_data[..., start : start + width])
        start += width
        if taping:
            probs.append((p, score_shape))
        del q, k, v, p  # untaped, nothing else holds them
    out_data += xd

    def push(g):
        x._accumulate(_unbroadcast(g, xd.shape))
        grads = [np.zeros_like(w) for w in ws]
        start = 0
        for h in range(len(probs)):
            (p, score_shape), probs[h] = probs[h], None
            q, k, v = (xd @ w[h] for w in ws)
            width = v.shape[-1]
            g_head = g[..., start : start + width]
            start += width
            kt = np.moveaxis(k, -1, -2)
            gp = g_head @ np.swapaxes(v, -1, -2)
            gv = np.swapaxes(p, -1, -2) @ g_head
            gp -= (gp * p).sum(axis=-1, keepdims=True)
            gp *= p
            del p  # its last reader
            # back to the scores before log_counts widened them, then the scale
            gs = _unbroadcast(gp, score_shape)
            gs *= scale
            gq = _unbroadcast(gs @ np.swapaxes(kt, -1, -2), q.shape)
            gk = np.moveaxis(_unbroadcast(np.swapaxes(q, -1, -2) @ gs, kt.shape), -2, -1)
            gv = _unbroadcast(gv, v.shape)
            # each projection as its matmul node pushed it: into x, then into w[h]
            for w, grad, gh in zip(ws, grads, (gq, gk, gv)):
                x._accumulate(_unbroadcast(gh @ np.swapaxes(w[h], -1, -2), xd.shape))
                grad[h] += _unbroadcast(np.swapaxes(xd, -1, -2) @ gh, w[h].shape)
        for w, grad in zip((w_q, w_k, w_v), grads):
            w._accumulate(grad)

    return _node(out_data, (x, w_q, w_k, w_v), push)


def _elu_in_place(a):
    np.copyto(a, np.expm1(np.minimum(a, 0.0)), where=~(a > 0.0))


# activation -> (apply it in place, its derivative read from its output):
# out > 0 exactly where the input was, so the output alone serves backward
_IN_PLACE = {
    "identity": (None, None),
    "relu": (lambda a: np.maximum(a, 0.0, out=a), lambda out: out > 0.0),
    "elu": (_elu_in_place, lambda out: np.where(out > 0.0, 1.0, out + 1.0)),
}


def channel_map(w, t, b=None, activation="identity"):
    """act((c_out, c_in) weights w applied at every site of a (rows, c_in,
    site) tensor t, plus a (c_out,) bias b when given) as one node.

    activation is "identity", "relu" or "elu"; it overwrites the map's value,
    so the tape keeps one array per map, not two.
    """
    if activation not in _IN_PLACE:
        raise ConfigError(f"channel_map applies {sorted(_IN_PLACE)}, not {activation!r}")
    apply, slope = _IN_PLACE[activation]
    w, t = as_tensor(w), as_tensor(t)
    parents = (w, t)
    x, wt = np.moveaxis(t.data, 1, 2), np.moveaxis(w.data, 0, 1)
    out_data = x @ wt
    if b is not None:
        b = as_tensor(b)
        parents += (b,)
        out_data += b.data  # in place: the tape keeps one array, not two
    out_data = np.moveaxis(out_data, 2, 1)
    if apply is not None:
        apply(out_data)

    def push(g):
        if slope is not None:
            g = g * slope(out_data)
        if b is not None:
            b._accumulate(g.sum(axis=(0, 2)))
        g = np.moveaxis(g, 1, 2)
        t._accumulate(np.moveaxis(g @ np.swapaxes(wt, -1, -2), 2, 1))
        w._accumulate(np.moveaxis(_unbroadcast(np.swapaxes(x, -1, -2) @ g, wt.shape), 1, 0))

    return _node(out_data, parents, push)


# -- shape ops --------------------------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    orig = a.data.shape

    def push(g):
        a._accumulate(np.asarray(g).reshape(orig))

    return _node(a.data.reshape(shape), (a,), push)


def moveaxis(a, source, destination):
    a = as_tensor(a)

    def push(g):
        a._accumulate(np.moveaxis(np.asarray(g), destination, source))

    return _node(np.moveaxis(a.data, source, destination), (a,), push)


def take(a, idx):
    a = as_tensor(a)

    def push(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, np.asarray(g))
        a._accumulate(buf)

    return _node(a.data[idx], (a,), push)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def push(g):
        for t, piece in zip(tensors, np.split(np.asarray(g), splits, axis=axis)):
            t._accumulate(piece)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, push)


def gather_pairs(t, ii, jj, tokens=(None, None)):
    """concat([t[ii][:, :, f], t[jj][:, :, s]], axis=1) for tokens (f, s), as
    one node that keeps only the indices.

    A None index takes the whole axis: ii = jj = None keep t's rows as they
    are, and a None token index keeps the last axis.  The backward scatters
    each half as the separate take nodes did, the first half first.
    """
    t = as_tensor(t)
    halves = tuple(zip((ii, jj), tokens))

    def gather(rows, cols):
        half = t.data if rows is None else t.data[rows]
        return half if cols is None else half[:, :, cols]

    def push(g):
        for (rows, cols), piece in zip(halves, np.split(np.asarray(g), 2, axis=1)):
            if cols is not None:
                buf = np.zeros_like(t.data) if rows is None else np.zeros((len(rows),) + t.data.shape[1:])
                np.add.at(buf, (slice(None), slice(None), cols), piece)
                piece = buf
            if rows is not None:
                buf = np.zeros_like(t.data)
                np.add.at(buf, rows, piece)
                piece = buf
            t._accumulate(piece)

    return _node(np.concatenate([gather(*half) for half in halves], axis=1), (t,), push)


def stack(tensors, axis=0):
    return concat([reshape(t, t.data.shape[:axis] + (1,) + t.data.shape[axis:]) for t in tensors], axis=axis)


# -- matrix ops for the covariance losses ---------------------------------------------------


def inv(a):
    a = as_tensor(a)
    out_data = np.linalg.inv(a.data)

    def push(g):
        t = out_data.T
        a._accumulate(-t @ np.asarray(g) @ t)

    return _node(out_data, (a,), push)


def logdet(a):
    """log|A| for symmetric positive definite A (eigenvalues floored)."""
    a = as_tensor(a)
    w = np.linalg.eigvalsh((a.data + a.data.T) / 2.0)
    out_data = np.log(np.maximum(w, _EIG_FLOOR)).sum()

    def push(g):
        w, v = np.linalg.eigh((a.data + a.data.T) / 2.0)
        w = np.maximum(w, _EIG_FLOOR)
        a._accumulate(np.asarray(g) * (v / w) @ v.T)

    return _node(out_data, (a,), push)


def symlog(a):
    """Matrix logarithm of a symmetric PSD matrix, eigenvalues floored."""
    a = as_tensor(a)

    w, v = np.linalg.eigh((a.data + a.data.T) / 2.0)
    w = np.maximum(w, _EIG_FLOOR)
    lw = np.log(w)
    out_data = (v * lw) @ v.T

    def push(g):
        diff = w[:, None] - w[None, :]
        ratio = np.where(
            np.abs(diff) > 1e-12 * max(1.0, w.max()),
            (lw[:, None] - lw[None, :]) / np.where(diff == 0.0, 1.0, diff),
            1.0 / w[None, :],
        )
        gs = (np.asarray(g) + np.asarray(g).T) / 2.0
        a._accumulate(v @ (ratio * (v.T @ gs @ v)) @ v.T)

    return _node(out_data, (a,), push)


def trace(a):
    a = as_tensor(a)
    eye = np.eye(a.data.shape[-1])
    return tensor_sum(mul(a, eye))

