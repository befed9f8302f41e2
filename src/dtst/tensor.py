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
backward passes (`linear`, `attention`, `layer_norm`, `gelu`, `mlp`,
`sub_slot`): each records one tape entry and takes its parameters in the
form it computes with (`attention` one [d, 3d] Q/K/V weight). When no tape
records them they keep no backward state and work in place on their own
temporaries. A backward
writes into the buffers its entry saved instead of allocating new ones, so
a tape can be backpropagated once; `backward` refuses a spent tape. `gelu`
is the tanh form (Hendrycks & Gimpel), one `np.tanh` pass: the exact
x * Phi(x) needs the normal CDF, whose scalar loop (scipy's `ndtr`) costs
several times as much. The module needs only numpy.

`attention` and `mlp` run their forward in one tile loop, tracked or not
(`_row_tiles`, about 256 KB of whole sequences or of rows per tile) over
an array of more than four tiles (1 MB), so that each of their many
elementwise passes reads a tile a core's L2 cache still holds; a smaller
array runs as one tile. Tracked, each tile writes into the whole arrays
the backward keeps, and `mlp`'s second GEMM runs whole after the loop, once
its scratch is freed; untracked, into scratch reused from tile to tile, so
the op allocates its output and no whole scores, Q/K/V or hidden array.
The middle of `attention`'s backward runs over the same tiles. No tile a
GEMM runs over holds one row, since a one-row product goes through GEMV,
which rounds differently. Each element sees the same ufuncs and GEMM in
the same order, so tiling changes no bit. `mlp`'s GELU overwrites the
hidden layer it reads with its output.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError

_ACTIVE_TAPES: list["Tape"] = []

# tanh-form GELU: 0.5 * x * (1 + tanh(c * (x + a * x^3))), c = sqrt(2 / pi)
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_CA = _GELU_C * 0.044715

LAYER_NORM_EPS = 1e-6  # added to the variance in `layer_norm`


class Tape:
    """Ordered record of differentiable operations (a fresh one per forward)."""

    def __init__(self):
        self.entries = []  # (out, inputs, backward_fn)
        self._output_ids = set()
        self.spent = False  # set by `backward`, whose functions overwrite saved buffers

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
    which other entries may share, but it may write into the buffers it saved
    itself: `backward` runs it at most once."""
    tracked = _tracking(*inputs)
    out = Tensor(out_data, requires_grad=tracked)
    if tracked:
        _ACTIVE_TAPES[-1].record(out, tuple(inputs), backward_fn)
    return out


# float64 elements per tile, 256 KB. A pass over an array of more than four
# tiles runs tile by tile (`_row_tiles`), so that its operands stay in a
# core's L2 cache; a smaller array runs as one tile, since the cache holds
# it whole and more tiles would only add calls.
_TILE_ELEMS = 1 << 15


def _row_tiles(n, row_elems, min_rows=1):
    """Slices over the `n` rows, of `row_elems` elements each, of an array:
    one slice for all rows if they hold at most 4 * _TILE_ELEMS elements,
    else slices of the whole number of rows closest to _TILE_ELEMS elements
    (at least `min_rows`), the last one shorter if the rows do not divide
    evenly. A remainder of fewer than `min_rows` rows joins the slice before
    it. A GEMM over a tile's rows needs two: a one-row product goes through
    GEMV, which rounds differently from the GEMM of more rows."""
    if n * row_elems <= 4 * _TILE_ELEMS:
        return [slice(0, n)]
    step = max(min_rows, round(_TILE_ELEMS / row_elems))
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] < min_rows:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _tile_scratch(tiles, *shape):
    """One scratch array for the longest of `tiles` (the first or the last),
    each row of `shape`."""
    return np.empty((max(tiles[0].stop, tiles[-1].stop - tiles[-1].start),) + shape)


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
    if tape.spent:
        raise ContractError("this tape has been backpropagated already; its entries' "
                            "saved buffers now hold gradients, so record a new tape")
    tape.spent = True

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


def _gelu_tile(x, t, half, slope=None):
    """GELU of `x`, written into `x` as x * (0.5 t + 0.5), in the tanh form
    0.5 * x * (1 + tanh(c * (x + a * x^3))) with t the tanh, c = sqrt(2 / pi)
    and a = 0.044715; within 5e-4 of x * Phi(x). `t` and `half` are scratch
    of x's shape (`half` may be `t` when no `slope` is asked). Given `slope`,
    the derivative is written into it as well; the output's ufuncs are the
    same either way, so it is bit for bit the same."""
    np.multiply(x, x, out=t)
    if slope is not None:
        np.multiply(t, 1.5 * _GELU_CA, out=slope)  # 3ca x^2 / 2, before t reuses x * x
    t *= _GELU_CA
    t += _GELU_C
    t *= x
    np.tanh(t, out=t)
    np.multiply(t, 0.5, out=half)
    half += 0.5
    if slope is not None:
        # d/dx = (3ca x^2 + c) (1 - t^2) x / 2 + (1 + t) / 2, the halving
        # folded into the constants (exact: it commutes with rounding)
        slope += 0.5 * _GELU_C
        t *= t
        np.subtract(1.0, t, out=t)
        slope *= t
        slope *= x
        slope += half
    np.multiply(half, x, out=x)


def gelu(x: Tensor) -> Tensor:
    """GELU in its tanh form (`_gelu_tile`) on a copy of the input, in one
    pass over it. The derivative is taken in the forward pass, tracked or
    not, so backward is one multiply, into the saved slope."""
    out, slope = x.data.copy(), np.empty_like(x.data)
    _gelu_tile(out, np.empty_like(out), np.empty_like(out), slope)
    return make(out, (x,), lambda g: (np.multiply(slope, g, out=slope),))


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
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}") from None
    return make(out, (x,), lambda g: (g.reshape(x.shape),))


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
    """Entries start .. start + length - 1 of `axis`; at least one, all
    inside the axis."""
    if not (0 <= axis < x.data.ndim and 0 <= start < start + length <= x.shape[axis]):
        raise DimensionError(f"narrow({start}, {length}) on axis {axis} of {x.shape} "
                             f"leaves the tensor or takes no entry")
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


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalise the last axis, then scale and shift. One pass: the input is
    centred once and the variance taken from the centred values."""
    d = x.shape[-1] if x.data.ndim >= 2 else 0
    if d < 1:
        raise DimensionError(f"layer_norm needs x [..., rows, d] with d >= 1, got {x.shape}")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last extent {d}")
    xhat = x.data - (_sum_last(x.data) / d)[..., None]
    var = _dot_last(xhat, xhat) / d
    var += LAYER_NORM_EPS
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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[..., n] @ w[n, m] + b[m] as one 2-D GEMM over all leading axes;
    w's gradient is one 2-D GEMM as well."""
    if (w.data.ndim != 2 or x.data.ndim < 1 or x.shape[-1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise DimensionError(f"linear needs x[..., n], w[n, m] and b[m], got "
                             f"{x.shape}, {w.shape} and {b.shape}")
    n, m = w.shape
    x2 = x.data.reshape(-1, n)
    out = x2 @ w.data
    out += b.data
    out = out.reshape(x.shape[:-1] + (m,))

    def bwd(g):
        g2 = g.reshape(-1, m)
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = x2.T @ g2 if w.requires_grad else None
        return gx, gw, _sum_rows(g2)

    return make(out, (x, w, b), bwd)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 over the last axis of x, as one tape
    entry: `linear`, `gelu`, `linear` in one. The GELU writes its output
    over the hidden layer it reads. The backward writes the hidden gradient
    into that saved output, once its part in w2's gradient is taken, and
    multiplies by the saved slope in place, so it allocates no [rows, hidden]
    array. Linear and GELU run tile by tile over the rows (`_row_tiles`, at
    least two rows a tile). Tracked, each tile writes into the whole hidden
    layer and slope that the backward keeps, and the second linear is one
    GEMM after the loop, once the GELU's two scratch tiles are freed, so
    they never live beside the output. Untracked, the second linear runs
    in the loop too, and no whole hidden layer is allocated at all."""
    if (w1.data.ndim != 2 or w2.data.ndim != 2 or x.data.ndim < 1
            or x.shape[-1] != w1.shape[0] or w2.shape[0] != w1.shape[1]
            or b1.shape != w1.shape[1:] or b2.shape != w2.shape[1:]):
        raise DimensionError(f"mlp needs x[..., n], w1[n, h], b1[h], w2[h, m], b2[m], got "
                             f"{x.shape}, {w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}")
    (n, hidden), m = w1.shape, w2.shape[1]
    x2 = x.data.reshape(-1, n)
    tracked = _tracking(x, w1, b1, w2, b2)
    tiles = _row_tiles(len(x2), hidden, min_rows=2)
    if tracked:
        act, slope = np.empty((len(x2), hidden)), np.empty((len(x2), hidden))
        t_tile, half_tile = _tile_scratch(tiles, hidden), _tile_scratch(tiles, hidden)
    else:
        act, slope = _tile_scratch(tiles, hidden), None
        t_tile = half_tile = _tile_scratch(tiles, hidden)
        out = np.empty((len(x2), m))
    for rows in tiles:
        r = rows.stop - rows.start
        a = act[rows if tracked else slice(r)]
        np.matmul(x2[rows], w1.data, out=a)
        a += b1.data
        _gelu_tile(a, t_tile[:r], half_tile[:r], slope[rows] if tracked else None)
        if not tracked:
            y = out[rows]
            np.matmul(a, w2.data, out=y)
            y += b2.data
    if not tracked:
        return Tensor(out.reshape(x.shape[:-1] + (m,)))
    del t_tile, half_tile  # freed before the output is allocated
    out = act @ w2.data  # act now holds the GELU
    out += b2.data
    out = out.reshape(x.shape[:-1] + (m,))

    def bwd(g):
        g2 = g.reshape(-1, m)
        gw2 = act.T @ g2
        gh = np.matmul(g2, w2.data.T, out=act)
        gh *= slope
        return ((gh @ w1.data.T).reshape(x.shape), x2.T @ gh, _sum_rows(gh),
                gw2, _sum_rows(g2))

    return make(out, (x, w1, b1, w2, b2), bwd)


def _attend(qkv, att, ctx, scale):
    """Scaled softmax attention over whole sequences: from the Q/K/V
    projection `qkv` [n * t, 3d], the probabilities into `att` [n, H, t, t]
    and the heads' context into `ctx` [n * t, d]."""
    n, h, t, _ = att.shape
    q, k, v = qkv.reshape(n, t, 3, h, -1).transpose(2, 0, 3, 1, 4)
    np.matmul(q, k.swapaxes(-1, -2), out=att)
    att *= scale
    att -= att.max(axis=-1, keepdims=True)
    _softmax_inplace(att)
    np.matmul(att, v, out=ctx.reshape(n, t, h, -1).transpose(0, 2, 1, 3))


def attention(x: Tensor, w_qkv: Tensor, b_qkv: Tensor, w_o: Tensor, b_o: Tensor,
              num_heads: int) -> Tensor:
    """Multi-head self-attention as one tape entry.

    x [B, T, d]; `w_qkv` [d, 3d] holds the Q, K and V projections side by
    side and `b_qkv` [3d] their biases; `w_o` [d, d] and `b_o` [d] are the
    output projection. Q/K/V come from one GEMM and the scores are scaled by
    1/sqrt(d/H) before the softmax. The forward runs over tiles of whole
    sequences (`_row_tiles`): Q/K/V, scores, softmax, context and output
    projection, tile by tile. Tracked, each tile writes into whole Q/K/V,
    probability and context arrays, which the backward keeps; untracked,
    into scratch reused from tile to tile, so the op allocates its output
    and no whole Q/K/V or scores array. A tile's GEMMs get T rows a
    sequence, and the model's sequences hold at least three tokens (the kept
    ones and two extra), so none goes through GEMV. The backward builds the
    Q/K/V gradient inside the saved Q/K/V buffer; between the two
    projections it runs over the same kind of tiles, with one [tile, H, T,
    T] scratch for the scores' gradient.
    """
    if x.data.ndim != 3 or (w_qkv.shape, b_qkv.shape, w_o.shape, b_o.shape) != (
            (x.shape[2], 3 * x.shape[2]), (3 * x.shape[2],), (x.shape[2],) * 2, x.shape[2:]):
        raise DimensionError(f"attention needs x[B, T, d], w_qkv[d, 3d], b_qkv[3d], w_o[d, d] "
                             f"and b_o[d], got {x.shape}, {w_qkv.shape}, {b_qkv.shape}, "
                             f"{w_o.shape}, {b_o.shape}")
    b, t, d = x.shape
    if d % num_heads != 0:
        raise DimensionError(f"attention heads {num_heads} must divide width {d}")
    h, dh = num_heads, d // num_heads
    scale = 1.0 / np.sqrt(dh)
    x2 = x.data.reshape(b * t, d)
    inputs = (x, w_qkv, b_qkv, w_o, b_o)
    tracked = _tracking(*inputs)
    tiles = _row_tiles(b, h * t * t)
    if tracked:
        qkv, att, ctx = np.empty((b, t, 3 * d)), np.empty((b, h, t, t)), np.empty((b, t, d))
    else:
        qkv, att, ctx = (_tile_scratch(tiles, t, 3 * d), _tile_scratch(tiles, h, t, t),
                         _tile_scratch(tiles, t, d))
    out = np.empty((b * t, d))
    for seqs in tiles:
        n, rows = seqs.stop - seqs.start, slice(seqs.start * t, seqs.stop * t)
        here = seqs if tracked else slice(n)
        qkv_n, ctx_n = qkv[here].reshape(n * t, 3 * d), ctx[here].reshape(n * t, d)
        np.matmul(x2[rows], w_qkv.data, out=qkv_n)
        qkv_n += b_qkv.data
        _attend(qkv_n, att[here], ctx_n, scale)
        y = out[rows]
        np.matmul(ctx_n, w_o.data, out=y)
        y += b_o.data
    out = out.reshape(b, t, d)
    if not tracked:
        return Tensor(out)
    qkv, ctx = qkv.reshape(b * t, 3 * d), ctx.reshape(b * t, d)
    q, k, v = qkv.reshape(b, t, 3, h, dh).transpose(2, 0, 3, 1, 4)  # each [B, H, T, dh]

    def bwd(g):
        g2 = g.reshape(b * t, d)
        gctx = (g2 @ w_o.data.T).reshape(b, t, h, dh).transpose(0, 2, 1, 3)
        gatt_tile = _tile_scratch(tiles, h, t, t)
        for rows in tiles:
            a, gc = att[rows], gctx[rows]
            gatt = gatt_tile[:len(a)]
            np.matmul(gc, v[rows].swapaxes(-1, -2), out=gatt)
            np.matmul(a.swapaxes(-1, -2), gc, out=v[rows])  # v's slots now hold gv
            gatt -= _dot_last(gatt, a)[..., None]
            gatt *= a  # now the gradient of the pre-softmax logits
            gatt *= scale
            gq = gatt @ k[rows]
            np.matmul(gatt.swapaxes(-1, -2), q[rows], out=k[rows])
            q[rows] = gq  # qkv now holds the gradient of the Q/K/V projection
        return ((qkv @ w_qkv.data.T).reshape(b, t, d), x2.T @ qkv, _sum_rows(qkv),
                ctx.T @ g2, _sum_rows(g2))

    return make(out, inputs, bwd)


def sub_slot(x: Tensor, dst: int, src: int) -> Tensor:
    """x with slot `src` of axis 1 subtracted from slot `dst`; every other
    slot passes through."""
    if not (x.data.ndim >= 2 and all(isinstance(i, (int, np.integer)) and 0 <= i < x.shape[1]
                                     for i in (dst, src))):
        raise DimensionError(f"sub_slot({dst!r}, {src!r}) needs two slots of axis 1 of {x.shape}")
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
    idx = np.asarray(indices)
    if (x.data.ndim != 3 or idx.ndim != 2 or len(idx) != len(x.data) or idx.dtype.kind not in "iu"
            or idx.min(initial=0) < 0 or idx.max(initial=0) >= x.shape[1]):
        raise DimensionError(f"gather_tokens needs x[B, T, d] and integer indices [B, K] in "
                             f"[0, T), got {x.shape} and {idx.dtype} {idx.shape}")
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
