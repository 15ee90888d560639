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
six activations, two sums, ``attention``, ``channel_map``, four shape ops and
four matrix ops.  ``ordered_sum`` sorts before summing, so its value depends
only on the multiset of addends.  ``attention`` is one node per attention
layer, the residual update of x by every head, and keeps only each head's
softmax probabilities; its backward replays the chain rule of the separate
matmul, scale, log-count, softmax, concat and residual steps op for op.
``channel_map`` is one node for a per-site channel matmul and its bias.
Neither keeps an intermediate array that no backward reads, and their values
and gradients keep the bits of the separate steps.
"""

import contextvars
from contextlib import contextmanager

import numpy as np

from .errors import NumericError

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


def attention(x, heads, scale, log_counts=None):
    """x + concat_h softmax(q_h @ k_hᵀ * scale + log_counts) @ v_h, as one node.

    heads yields (q, k, v) triples whose v widths sum to the last axis of x,
    each head filling its own slice of it; untaped, a generator lets each
    head's arrays go before the next head's exist.  log_counts, when given,
    broadcasts against the (rows, T, T) scores and may widen their rows;
    -inf entries give a key no weight.  The node keeps only each head's
    probabilities, and its backward drops them as soon as that head has
    pushed.
    """
    x = as_tensor(x)
    taping = _TAPE.get()
    out_data, qkvs, probs, start = None, [], [], 0
    for qkv in heads:
        q, k, v = (as_tensor(t) for t in qkv)
        kt = np.moveaxis(k.data, -1, -2)
        p = q.data @ kt
        p *= scale
        score_shape = p.shape
        if log_counts is not None:
            p = p + log_counts
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        if out_data is None:
            out_data = np.empty(p.shape[:-1] + x.data.shape[-1:])
        width = v.data.shape[-1]
        np.matmul(p, v.data, out=out_data[..., start : start + width])
        start += width
        if taping:
            qkvs.append((q, k, v))
            probs.append((p, score_shape))
        del q, k, v, p  # untaped, nothing else holds them
    out_data += x.data

    def push(g):
        x._accumulate(_unbroadcast(g, x.data.shape))
        start = 0
        for h, (q, k, v) in enumerate(qkvs):
            (p, score_shape), probs[h] = probs[h], None
            width = v.data.shape[-1]
            g_head = g[..., start : start + width]
            start += width
            kt = np.moveaxis(k.data, -1, -2)
            gp = g_head @ np.swapaxes(v.data, -1, -2)
            gv = np.swapaxes(p, -1, -2) @ g_head
            gp -= (gp * p).sum(axis=-1, keepdims=True)
            gp *= p
            del p  # its last reader
            # back to the scores before log_counts widened them, then the scale
            gs = _unbroadcast(gp, score_shape)
            gs *= scale
            gq = gs @ np.swapaxes(kt, -1, -2)
            gkt = np.swapaxes(q.data, -1, -2) @ gs
            q._accumulate(_unbroadcast(gq, q.data.shape))
            k._accumulate(np.moveaxis(_unbroadcast(gkt, kt.shape), -2, -1))
            v._accumulate(_unbroadcast(gv, v.data.shape))

    return _node(out_data, (x,) + sum(qkvs, ()), push)


def channel_map(w, t, b=None):
    """(c_out, c_in) weights w applied at every site of a (rows, c_in, site)
    tensor t, plus a (c_out,) bias b when given, as one node."""
    w, t = as_tensor(w), as_tensor(t)
    parents = (w, t)
    x, wt = np.moveaxis(t.data, 1, 2), np.moveaxis(w.data, 0, 1)
    out_data = x @ wt
    if b is not None:
        b = as_tensor(b)
        parents += (b,)
        out_data += b.data  # in place: the tape keeps one array, not two

    def push(g):
        if b is not None:
            b._accumulate(g.sum(axis=(0, 2)))
        g = np.moveaxis(g, 1, 2)
        t._accumulate(np.moveaxis(g @ np.swapaxes(wt, -1, -2), 2, 1))
        w._accumulate(np.moveaxis(_unbroadcast(np.swapaxes(x, -1, -2) @ g, wt.shape), 1, 0))

    return _node(np.moveaxis(out_data, 2, 1), parents, push)


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

