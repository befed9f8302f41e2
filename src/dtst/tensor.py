"""Dense float64 tensors with tape-based reverse-mode differentiation.

The graph is define-by-run: while a `Tape` is active, every operation whose
inputs require gradients appends one entry to it. `backward(root, tape)`
replays the tape in reverse, visiting each recorded node exactly once. Leaves
(tensors that were never produced by a recorded op) receive their accumulated
gradient in `.grad`; leaves on the tape but off the path to the root get
zeros.

A tape refers to the tensors it records, never the other way round, so a
step's tape and every activation its entries hold are freed by reference
counting as soon as the caller drops the tape.

Besides the elementary ops, the module has fused ops with hand-derived
backward passes (`linear`, `attention`, `layer_norm`, `gelu`, `sub_slot`):
each records one tape entry. When no tape records them they keep no backward
state and work in place on their own temporaries.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .errors import ContractError, DimensionError

_ACTIVE_TAPES: list["Tape"] = []

_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tape:
    """Ordered record of differentiable operations (a fresh one per forward)."""

    def __init__(self):
        self.entries = []  # (out, inputs, backward_fn)
        self._output_ids = set()

    def record(self, out, inputs, backward_fn):
        self.entries.append((out, inputs, backward_fn))
        self._output_ids.add(id(out))

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPES.pop()
        return False

    def __len__(self):
        return len(self.entries)


class Tensor:
    """A dense n-d float64 array, optionally tracked for differentiation."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)


def _tracking(*inputs) -> bool:
    """Whether an op on `inputs` would be recorded: a tape is active and at
    least one input requires gradients. Fused ops skip their backward state
    when it is not."""
    return bool(_ACTIVE_TAPES) and any(t.requires_grad for t in inputs)


def make(out_data, inputs, backward_fn):
    """Wrap an op's result; record it on the active tape when tracked.

    `backward_fn(g)` maps the output gradient to one gradient per input, in
    order (None for an input that needs none). It must not write into `g`,
    which other entries may share."""
    tracked = _tracking(*inputs)
    out = Tensor(out_data, requires_grad=tracked)
    if tracked:
        _ACTIVE_TAPES[-1].record(out, tuple(inputs), backward_fn)
    return out


def _softmax_inplace(a):
    """Softmax of `a` over its last axis, written into `a`, which must
    already have its row maxima subtracted."""
    np.exp(a, out=a)
    a /= _sum_last(a)[..., None]
    return a


# numpy's reductions are slow over a short last axis and einsum/GEMV are not;
# these helpers are the reductions the fused ops use on their hot paths


def _sum_last(a):
    """Sum over the last axis."""
    return np.einsum("...i->...", a)


def _dot_last(a, b):
    """Row-wise dot product over the last axis."""
    return np.einsum("...i,...i->...", a, b)


def _sum_rows(a):
    """Sum of a 2-D array over its rows (axis 0)."""
    return np.ones(a.shape[0]) @ a


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(root: Tensor, tape: Tape) -> None:
    """Accumulate gradients of scalar `root` into every leaf on `tape`."""
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if id(root) not in tape._output_ids:
        raise ContractError("backward root is not an output of the given tape")

    grads = {id(root): np.ones_like(root.data)}
    for out, inputs, backward_fn in reversed(tape.entries):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for t, ig in zip(inputs, backward_fn(g)):
            if ig is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + ig
            else:
                grads[key] = ig

    leaves = {}
    for _, inputs, _ in tape.entries:
        for t in inputs:
            if t.requires_grad and id(t) not in tape._output_ids:
                leaves[id(t)] = t
    for key, t in leaves.items():
        acc = grads.get(key)
        if acc is None:
            acc = np.zeros_like(t.data)
        else:
            acc = np.asarray(acc, dtype=np.float64).reshape(t.shape)
        t.grad = acc if t.grad is None else t.grad + acc


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return make(out, (a, b), lambda g: (_unbroadcast(g, a.shape),
                                        _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return make(out, (a, b), lambda g: (_unbroadcast(g, a.shape),
                                        _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return make(out, (a, b), lambda g: (_unbroadcast(g * b.data, a.shape),
                                        _unbroadcast(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    return make(out, (a, b), lambda g: (
        _unbroadcast(g / b.data, a.shape),
        _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def log(x: Tensor) -> Tensor:
    return make(np.log(x.data), (x,), lambda g: (g / x.data,))


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)
    return make(out, (x,), lambda g: (g * 0.5 / out,))


def clip_min(x: Tensor, floor: float) -> Tensor:
    out = np.maximum(x.data, floor)
    mask = (x.data > floor).astype(np.float64)
    return make(out, (x,), lambda g: (g * mask,))


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x), with Phi the standard normal CDF. The
    derivative Phi(x) + x * pdf(x) is taken in the forward pass, so backward
    is one multiply."""
    phi = ndtr(x.data)
    if not _tracking(x):
        phi *= x.data
        return Tensor(phi)
    out = x.data * phi
    slope = x.data * x.data
    slope *= -0.5
    np.exp(slope, out=slope)
    slope *= _INV_SQRT2PI
    slope *= x.data
    slope += phi
    return make(out, (x,), lambda g: (g * slope,))


def tsum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return make(out, (x,), bwd)


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape) -> Tensor:
    return make(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),))


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return make(np.transpose(x.data, axes), (x,),
                lambda g: (np.transpose(g, inv),))


def broadcast_to(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return make(np.broadcast_to(x.data, shape).copy(), (x,),
                lambda g: (_unbroadcast(g, x.shape),))


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def bwd(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return make(x.data[index].copy(), (x,), bwd)


def concat(xs, axis: int) -> Tensor:
    xs = list(xs)
    out = np.concatenate([t.data for t in xs], axis=axis)
    sizes = [t.shape[axis] for t in xs]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return make(out, tuple(xs), bwd)


# ---------------------------------------------------------------------------
# linear algebra and normalization


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return make(out, (a, b), bwd)


def softmax_lastdim(x: Tensor) -> Tensor:
    if x.data.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError(f"softmax needs a nonempty last dimension, got {x.shape}")
    out = _softmax_inplace(x.data - x.data.max(axis=-1, keepdims=True))

    def bwd(g):
        gz = g - _dot_last(g, out)[..., None]
        gz *= out
        return (gz,)

    return make(out, (x,), bwd)


def log_softmax_lastdim(x: Tensor) -> Tensor:
    if x.data.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError(f"log_softmax needs a nonempty last dimension, got {x.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    soft = np.exp(out)

    def bwd(g):
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return make(out, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalise the last axis, then scale and shift. One pass: the input is
    centred once and the variance taken from the centred values."""
    d = x.shape[-1] if x.data.ndim else 0
    if d < 1:
        raise DimensionError("layer_norm over a zero-length dimension")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last extent {d}")
    xhat = x.data - (_sum_last(x.data) / d)[..., None]
    var = _dot_last(xhat, xhat) / d
    var += eps
    inv = np.sqrt(var, out=var)[..., None]
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    if not _tracking(x, gamma, beta):
        xhat *= gamma.data
        xhat += beta.data
        return Tensor(xhat)
    out = xhat * gamma.data
    out += beta.data

    def bwd(g):
        gi = g * gamma.data
        m1 = _sum_last(gi) / d
        m2 = _dot_last(gi, xhat) / d
        gi -= m1[..., None]
        gi -= xhat * m2[..., None]
        gi *= inv
        g2 = g.reshape(-1, d)
        return gi, _sum_rows(g2 * xhat.reshape(-1, d)), _sum_rows(g2)

    return make(out, (x, gamma, beta), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor = None) -> Tensor:
    """x[..., n] @ w[n, m] + b[m] as one 2-D GEMM over all leading axes;
    w's gradient is one 2-D GEMM as well."""
    if w.data.ndim != 2 or x.data.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear needs a 2-d weight whose rows match the last "
                             f"extent of x, got {x.shape} and {w.shape}")
    n, m = w.shape
    x2 = x.data.reshape(-1, n)
    out = x2 @ w.data
    if b is not None:
        out += b.data
    out = out.reshape(x.shape[:-1] + (m,))
    inputs = (x, w) if b is None else (x, w, b)

    def bwd(g):
        g2 = g.reshape(-1, m)
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = x2.T @ g2 if w.requires_grad else None
        return (gx, gw, _sum_rows(g2) if b is not None else None)

    return make(out, inputs, bwd)


def attention(x: Tensor, weights, biases, num_heads: int) -> Tensor:
    """Multi-head self-attention as one tape entry.

    x [B, T, d]; `weights` = (wq, wk, wv, wo), each [d, d]; `biases` =
    (bq, bk, bv, bo), each [d]. Q/K/V come from one GEMM and the scores are
    scaled by 1/sqrt(d/H) before the softmax.
    """
    b, t, d = x.shape
    if d % num_heads != 0:
        raise DimensionError(f"attention heads {num_heads} must divide width {d}")
    h, dh = num_heads, d // num_heads
    scale = 1.0 / np.sqrt(dh)
    wq, wk, wv, wo = weights
    bq, bk, bv, bo = biases
    x2 = x.data.reshape(b * t, d)
    w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    qkv = x2 @ w_qkv
    qkv += np.concatenate([bq.data, bk.data, bv.data])
    q, k, v = qkv.reshape(b, t, 3, h, dh).transpose(2, 0, 3, 1, 4)  # each [B, H, T, dh]
    att = q @ k.swapaxes(-1, -2)
    att *= scale
    att -= att.max(axis=-1, keepdims=True)
    _softmax_inplace(att)
    ctx = np.empty((b, t, h, dh))
    np.matmul(att, v, out=ctx.transpose(0, 2, 1, 3))
    ctx = ctx.reshape(b * t, d)
    out = ctx @ wo.data
    out += bo.data
    out = out.reshape(b, t, d)
    inputs = (x, wq, wk, wv, wo, bq, bk, bv, bo)

    def bwd(g):
        g2 = g.reshape(b * t, d)
        gctx = (g2 @ wo.data.T).reshape(b, t, h, dh).transpose(0, 2, 1, 3)
        gatt = gctx @ v.swapaxes(-1, -2)
        gatt -= _dot_last(gatt, att)[..., None]
        gatt *= att  # now the gradient of the pre-softmax logits
        gatt *= scale
        gqkv = np.empty((b, t, 3, h, dh))
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(gatt, k, out=gq)
        np.matmul(gatt.swapaxes(-1, -2), q, out=gk)
        np.matmul(att.swapaxes(-1, -2), gctx, out=gv)
        gqkv = gqkv.reshape(b * t, 3 * d)
        gw = x2.T @ gqkv
        gb = _sum_rows(gqkv)
        gx = (gqkv @ w_qkv.T).reshape(b, t, d)
        return (gx, gw[:, :d], gw[:, d:2 * d], gw[:, 2 * d:], ctx.T @ g2,
                gb[:d], gb[d:2 * d], gb[2 * d:], _sum_rows(g2))

    return make(out, inputs, bwd)


def sub_slot(x: Tensor, dst: int, src: int) -> Tensor:
    """x with slot `src` of axis 1 subtracted from slot `dst`; every other
    slot passes through."""
    out = x.data.copy()
    out[:, dst] -= x.data[:, src]

    def bwd(g):
        gx = g.copy()
        gx[:, src] -= g[:, dst]
        return (gx,)

    return make(out, (x,), bwd)


# ---------------------------------------------------------------------------
# gather / scatter


def gather_tokens(x: Tensor, indices) -> Tensor:
    """Select rows along axis 1: x[B,T,d], indices[B,K] -> [B,K,d]."""
    idx = np.asarray(indices, dtype=np.int64)
    b = np.arange(x.shape[0])[:, None]
    out = x.data[b, idx]

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (b, idx), g)
        return (gx,)

    return make(out, (x,), bwd)


def gather_lastdim(x: Tensor, indices) -> Tensor:
    """Pick one entry per row: x[B,C], indices[B] -> [B]."""
    idx = np.asarray(indices, dtype=np.int64)
    b = np.arange(x.shape[0])
    out = x.data[b, idx]

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (b, idx), g)
        return (gx,)

    return make(out, (x,), bwd)
