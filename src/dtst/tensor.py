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
backward passes (`linear`, `layer_norm`, `gelu`, `encoder_block`,
`sub_slot`): each records one tape entry and takes its parameters in the
form it computes with (`encoder_block` one [d, 3d] Q/K/V weight). When no
tape records them they keep no backward state and work in place on their
own temporaries. A backward writes into the buffers its entry saved instead
of allocating new ones, so a tape can be backpropagated once; `backward`
refuses a spent tape. `gelu` is the tanh form (Hendrycks & Gimpel), one
`np.tanh` pass: the exact x * Phi(x) needs the normal CDF, whose scalar
loop (scipy's `ndtr`) costs several times as much. The module needs only
numpy.

`encoder_block` is a whole pre-norm block, LayerNorm -> attention ->
residual -> LayerNorm -> MLP -> residual, as one entry, so a
`configs/benchmark.cfg` training step records 22. It is built from private
forward/backward kernel pairs (`_layer_norm_fwd`/`_bwd`, `_attention_*`,
`_mlp_*`): a forward returns its output and what its backward needs, and a
backward maps the output's gradient to one per input. No pass over a
block's activations only multiplies by a per-feature constant: each
constant is folded into the weights of a GEMM, once a call, and each
folded weight's gradient mapped back through the same small ops. The block
folds its LayerNorms' scales and shifts into the Q/K/V and first MLP
weights and biases (`_fold_affine`), the attention kernel the score scale
1/sqrt(d/H) into its Q columns, and the MLP kernel the GELU's halving into
its second weight. The softmax over rows of many keys is shifted by one
bound per sequence and head rather than by each row's max (`_attend`).
The folds and the shift change only the rounding. The attention and MLP
kernels run their forward in one tile loop, tracked or not (`_row_tiles`,
about 256 KB of whole sequences or of rows per tile) over an array of more
than four tiles (1 MB), so that each of their many elementwise passes reads
a tile a core's L2 cache still holds; a smaller array runs as one tile.
Tracked, each tile writes into the whole arrays the backward keeps, and the
MLP's second GEMM runs whole after the loop, once its scratch is freed;
untracked, into scratch reused from tile to tile, so a kernel allocates its
output and no whole scores, Q/K/V or hidden array. The middle of the
attention's backward runs over the same tiles. No tile a GEMM runs over
holds one row, since a one-row product goes through GEMV, which rounds
differently. Each element sees the same ufuncs and GEMM in the same order,
so tiling changes no bit. The MLP's GELU overwrites the hidden layer it
reads with its output.

Where an array spans several tiles and the process may run on two CPUs,
each of those three tile loops runs on two threads (`_run_tiles`): the
calling one takes the first half of the tiles and one pool thread, made on
first use, the second, each with scratch of its own. A tile writes only its
own rows and runs the same ufuncs and GEMMs on them whichever thread runs
it, so the bits are those of one thread. The MLP's tiles are cut in two
first, so that both threads' GELU scratch is one tile's, except a tile of
fewer than four rows, whose halves could hold one row. The pool thread runs
in a copy of the caller's context, so numpy's error state (the CLI's
`np.errstate`) holds there too, and the caller waits for it before anything
leaves the loop, an exception included. BLAS keeps its one thread. The
retrieval ranking (`evaluate.rank_gallery`) splits its query blocks between
the same two threads.

`encoder_block` computes only the rows something reads. Given `out_rows` r,
it outputs each sequence's first r rows: LN1 and Q/K/V run on every row,
which the keys and values need, the scores on r query rows and the rest on
r rows. Its backward takes one `any` over the output gradient: where some
rows hold no nonzero (behind a token selection), the MLP, LN2 and the
attention's query side run on each sequence's live rows only, gathered and
padded with dead ones to the longest, while the key, value and LN1
gradients cover every row. Where every row is live nothing is gathered.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

from .errors import ContractError, DimensionError, check_count

# the stack of entered tapes, one per thread (a new thread starts with none)
# and copied into the tile pool's thread with the rest of the caller's context
_ACTIVE_TAPES = contextvars.ContextVar("dtst_active_tapes", default=())

# tanh-form GELU: 0.5 * x * (1 + tanh(c * (x + a * x^3))), c = sqrt(2 / pi)
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_CA = _GELU_C * 0.044715

LAYER_NORM_EPS = 1e-6  # added to the variance in `layer_norm`


class Tape:
    """Ordered record of differentiable operations (a fresh one per forward).
    Inside `with tape:` the ops of this thread record on it; other threads
    record on their own tapes."""

    def __init__(self):
        self.entries = []  # (out, inputs, backward_fn)
        self._output_ids = set()
        self.spent = False  # set by `backward`, whose functions overwrite saved buffers

    def record(self, out, inputs, backward_fn):
        self.entries.append((out, inputs, backward_fn))
        self._output_ids.add(id(out))

    def __enter__(self):
        _ACTIVE_TAPES.set(_ACTIVE_TAPES.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPES.set(_ACTIVE_TAPES.get()[:-1])
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
    return bool(_ACTIVE_TAPES.get()) and any(t.requires_grad for t in inputs)


def make(out_data, inputs, backward_fn):
    """Wrap an op's result; record it on the active tape when tracked.

    `backward_fn(g)` maps the output gradient to one gradient per input, in
    order (None for an input that needs none). It must not write into `g`,
    which other entries may share, but it may write into the buffers it saved
    itself: `backward` runs it at most once."""
    tracked = _tracking(*inputs)
    out = Tensor(out_data, requires_grad=tracked)
    if tracked:
        _ACTIVE_TAPES.get()[-1].record(out, tuple(inputs), backward_fn)
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
    """One scratch array for the longest of `tiles`, each row of `shape`."""
    return np.empty((max(s.stop - s.start for s in tiles),) + shape)


_pool = None  # the second thread of `_run_tiles`, made on first use
_pool_lock = threading.Lock()


def _drop_pool():
    """In a forked child, which has no copy of the pool's thread."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _worker_count():
    """2 where this process may run on two CPUs or more, else 1."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return 2 if cpus > 1 else 1


def _halves(rows):
    """A slice of at least 4 rows cut in two, the first half the longer;
    a shorter one whole (a one-row GEMM goes through GEMV)."""
    n = rows.stop - rows.start
    if n < 4:
        return [rows]
    mid = rows.start + (n + 1) // 2
    return [slice(rows.start, mid), slice(mid, rows.stop)]


def _run_tiles(run, tiles, split=False):
    """Call `run(part)` on parts of `tiles` that hold every tile once, each
    part's tiles in order. On one tile, or where the process may run on one
    CPU only (`_worker_count`), the one part is all of them. Else, given
    `split`, each tile is first cut in two (`_halves`), and the first half
    of the tiles runs on this thread while the second runs on the pool's,
    in a copy of this thread's context, so that numpy's error state holds
    there too. This thread waits for the other before anything, an
    exception included, leaves. `run` writes each tile's rows only, so which
    thread runs a tile changes no bit.

    Besides this module's attention and MLP loops, `evaluate.rank_gallery`
    runs its blocks of queries through here, each slice one block: the
    pool's one thread serves both, one loop at a time."""
    if len(tiles) == 1 or _worker_count() == 1:
        run(tiles)
        return
    global _pool
    with _pool_lock:
        if _pool is None:  # imported here, so that a process of one-tile arrays never does
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(1, thread_name_prefix="dtst-tiles")
    if split:
        tiles = [half for rows in tiles for half in _halves(rows)]
    mine = (len(tiles) + 1) // 2
    theirs = _pool.submit(contextvars.copy_context().run, run, tiles[mine:])
    try:
        run(tiles[:mine])
    finally:
        theirs.exception()  # waits for the pool thread, raising nothing
    theirs.result()


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


def _gelu_tile(x, t, u, slope=None):
    """Twice the GELU of `x`, x * (1 + t), written into `x`: the tanh form
    0.5 * x * (1 + tanh(c * (x + a * x^3))) without its halving, with t the
    tanh, c = sqrt(2 / pi) and a = 0.044715; half of it is within 5e-4 of
    x * Phi(x). The caller halves it, or folds the halving into the weight
    it multiplies next; either is exact, since halving commutes with
    rounding. `t` and `u` are scratch of x's shape (`u` may be `t` when no
    `slope` is asked). Given `slope`, the derivative of x * (1 + t) is
    written into it as well; the output's ufuncs are the same either way,
    so it is bit for bit the same."""
    np.multiply(x, x, out=t)
    if slope is not None:
        np.multiply(t, 3.0 * _GELU_CA, out=slope)  # 3ca x^2, before t reuses x * x
    t *= _GELU_CA
    t += _GELU_C
    t *= x
    np.tanh(t, out=t)
    np.add(t, 1.0, out=u)
    if slope is not None:
        # d/dx = (3ca x^2 + c) (1 - t^2) x + (1 + t)
        slope += _GELU_C
        t *= t
        np.subtract(1.0, t, out=t)
        slope *= t
        slope *= x
        slope += u
    np.multiply(u, x, out=x)


def gelu(x: Tensor) -> Tensor:
    """GELU in its tanh form (`_gelu_tile`, then halved) on a copy of the
    input. The derivative is taken in the forward pass, tracked or not, so
    backward is one multiply, into the saved slope."""
    out, slope = x.data.copy(), np.empty_like(x.data)
    _gelu_tile(out, np.empty_like(out), np.empty_like(out), slope)
    out *= 0.5
    slope *= 0.5
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
    out = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= _sum_last(out)[..., None]

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


def _layer_norm_fwd(x, tracked):
    """Normalise the last axis of `x` without scale or shift: (x - mean) *
    inv, inv = 1 / sqrt(var + eps). Returns the output and what
    `_layer_norm_bwd` needs (None when not `tracked`). One pass: the input is
    centred once and the variance taken from the centred values."""
    d = x.shape[-1]
    xhat = x - (_sum_last(x) / d)[..., None]
    var = _dot_last(xhat, xhat) / d
    var += LAYER_NORM_EPS
    inv = np.sqrt(var, out=var)[..., None]
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return xhat, ((xhat, inv) if tracked else None)


def _layer_norm_bwd(g, saved):
    """The gradient of x from the normalised output's, `g`, written into
    `g`."""
    xhat, inv = saved
    d = xhat.shape[-1]
    m1 = _sum_last(g) / d
    m2 = _dot_last(g, xhat) / d
    g -= m1[..., None]
    g -= xhat * m2[..., None]
    g *= inv
    return g


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalise the last axis (`_layer_norm_fwd`), then scale by `gamma`
    and shift by `beta`."""
    d = x.shape[-1] if x.data.ndim >= 2 else 0
    if d < 1:
        raise DimensionError(f"layer_norm needs x [..., rows, d] with d >= 1, got {x.shape}")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last extent {d}")
    tracked = _tracking(x, gamma, beta)
    xhat, saved = _layer_norm_fwd(x.data, tracked)
    if not tracked:
        xhat *= gamma.data
        xhat += beta.data
        return Tensor(xhat)
    out = xhat * gamma.data
    out += beta.data

    def bwd(g):
        g2 = g.reshape(-1, d)
        return (_layer_norm_bwd(g * gamma.data, saved), _sum_rows(g2 * xhat.reshape(-1, d)),
                _sum_rows(g2))

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


def _mlp_fwd(x, w1, b1, w2, b2, tracked):
    """gelu(x @ w1 + b1) @ w2 + b2 over the last axis of x; returns the
    output and what `_mlp_bwd` needs (None when not `tracked`). The GELU
    kernel writes twice the GELU over the hidden layer it reads, and the
    second linear multiplies by w2 / 2, which is exact. Linear and GELU run
    tile by tile over the rows (`_row_tiles`, at least two rows a tile; on
    two threads, `_run_tiles`, each cut in two where it has four rows or
    more). Tracked, each tile writes into the whole hidden layer and slope
    that the backward keeps, and the second linear is one GEMM after the
    loop, once the GELU's scratch tiles are freed, so they never live
    beside the output. Untracked, the second linear runs in the loop too,
    and no whole hidden layer is allocated at all."""
    (n, hidden), m = w1.shape, w2.shape[1]
    w2 = w2 * 0.5  # the GELU's halving
    x2 = x.reshape(-1, n)
    if tracked:
        act, slope = np.empty((len(x2), hidden)), np.empty((len(x2), hidden))
    else:
        out = np.empty((len(x2), m))

    def run(tiles):  # the GELU's scratch is freed when it returns
        t_tile = _tile_scratch(tiles, hidden)
        u_tile = _tile_scratch(tiles, hidden) if tracked else t_tile
        a_tile = None if tracked else _tile_scratch(tiles, hidden)
        for rows in tiles:
            r = rows.stop - rows.start
            a = act[rows] if tracked else a_tile[:r]
            np.matmul(x2[rows], w1, out=a)
            a += b1
            _gelu_tile(a, t_tile[:r], u_tile[:r], slope[rows] if tracked else None)
            if not tracked:
                y = out[rows]
                np.matmul(a, w2, out=y)
                y += b2

    _run_tiles(run, _row_tiles(len(x2), hidden, min_rows=2), split=True)
    if not tracked:
        return out.reshape(x.shape[:-1] + (m,)), None
    out = act @ w2  # act now holds twice the GELU
    out += b2
    return out.reshape(x.shape[:-1] + (m,)), (x2, w1, w2, act, slope)


def _mlp_bwd(g, saved):
    """The gradients of x, w1, b1, w2 and b2 from the output's, `g`. The
    hidden gradient is written into the saved GELU output, once its part in
    w2's gradient is taken, and multiplied by the saved slope in place, so
    no [rows, hidden] array is allocated. The saved output and slope are
    twice the GELU's and the saved weight half of w2, so only w2's gradient
    is halved."""
    x2, w1, w2, act, slope = saved
    g2 = g.reshape(-1, w2.shape[1])
    gw2 = act.T @ g2
    gw2 *= 0.5
    gh = np.matmul(g2, w2.T, out=act)
    gh *= slope
    return ((gh @ w1.T).reshape(g.shape[:-1] + (len(w1),)), x2.T @ gh, _sum_rows(gh),
            gw2, _sum_rows(g2))


# The row max of the attention scores. numpy's reduction over a short last
# axis costs about 55 ns a row; one `np.maximum` per column costs about
# 1.7 us plus 0.8 ns a row. So the column loop is the faster where the rows
# outnumber the columns by more than about 30 to 1: 3x on [32, 4, 10, 10]
# scores, while on a [2, 4, 66, 66] tile it would be 3-4x slower.
# (Measured on 2-core Xeon, numpy 2.4.)
_ROWS_PER_COLUMN = 32


def _row_max(a):
    """a.max(axis=-1), bit for bit, by the faster of two ways (see above).

    A maximum is one value, so the column loop finds the reduction's bits,
    except in a row whose maximum is a zero or a NaN: then the reduction's
    order picks the zero's sign or the NaN, so such a result is taken from
    the reduction instead."""
    t = a.shape[-1]
    if a.size <= _ROWS_PER_COLUMN * t * t:
        return a.max(axis=-1)
    m = a[..., 0].copy()
    for j in range(1, t):
        np.maximum(m, a[..., j], out=m)
    if not np.abs(m).min() > 0:  # a zero or a NaN
        return a.max(axis=-1)
    return m


# On rows of at least _SHIFT_MIN_KEYS keys, each head's softmax is shifted
# by one value per sequence, max_i |q_i| * max_j |k_j| over all the
# sequence's rows, which by Cauchy-Schwarz no score exceeds, so no `exp`
# overflows. On a [2, 4, 66, 66] tile the row max and its row-broadcast
# subtraction take about 85 us, more than the `exp` (40 us), and the bound
# and its subtraction over contiguous runs about 25 us. On shorter rows the
# row max wins end to end: with the bound on every row length, the 18-key
# blocks of perfbench's `bench_cfg` train 1.6% slower (the bound won 3 of
# 10 alternating pairs) and `large_gallery`'s 1.7% slower, embedding 3.1%
# (1 and 2 of 10). On two query rows (`out_rows`) the bound costs 1.4-2.5x
# the row max per call at every length, since it still reads every row's Q
# and K; the choice rests on the keys alone, so that the two-row block
# keeps the whole one's bits. (Measured on 2-core Xeon, numpy 2.4.)
_SHIFT_MIN_KEYS = 32

# The sequences where some row's shifted sum is below this (its largest
# term near the subnormal range) are redone with each row's own max.
_MIN_SHIFTED_SUM = 2.0 ** -900


def _score_bound(qkv, n, t, h):
    """[n, h]: for each sequence and head, the largest query norm times the
    largest key norm over the sequence's t rows of `qkv` [n * t, 3d]. Each
    row's norms are its own dot products, so a sequence's bound does not
    depend on the others beside it."""
    qk = qkv[:, :qkv.shape[1] // 3 * 2].reshape(n * t, 2 * h, -1)
    top = _dot_last(qk, qk).reshape(n, t, 2, h).max(axis=1)
    top = top[:, 0] * top[:, 1]
    return np.sqrt(top, out=top)


def _exact_exp(q, k, att):
    """The scores of queries `q` [n, H, r, dh] against keys `k` [n, H, t, dh]
    into `att` [n, H, r, t], shifted by each row's max and exponentiated."""
    np.matmul(q, k.swapaxes(-1, -2), out=att)
    att -= _row_max(att)[..., None]
    np.exp(att, out=att)


def _attend(qkv, att, ctx):
    """Softmax attention over whole sequences: from the Q/K/V projection
    `qkv` [n * t, 3d], whose queries are already scaled, the probabilities
    of each sequence's first r query rows over all t keys into `att`
    [n, H, r, t] and their context into `ctx` [n * r, d]. The softmax is
    shifted by each row's max on rows of fewer than _SHIFT_MIN_KEYS keys,
    else by one bound per sequence and head (`_score_bound`), and the
    sequences where that leaves some row's sum below _MIN_SHIFTED_SUM are
    redone together with each row's max. A sequence's shift depends on no
    other sequence, and the
    bound on all its rows, not on the queried ones, so neither the tiling
    nor r changes it."""
    n, h, r, t = att.shape
    q, k, v = qkv.reshape(n, t, 3, h, -1).transpose(2, 0, 3, 1, 4)
    if t < _SHIFT_MIN_KEYS:
        _exact_exp(q[:, :, :r], k, att)
        sums = _sum_last(att)
    else:
        np.matmul(q[:, :, :r], k.swapaxes(-1, -2), out=att)
        att -= _score_bound(qkv, n, t, h)[..., None, None]  # one run of r t a head
        np.exp(att, out=att)
        sums = _sum_last(att)
        if not sums.min() >= _MIN_SHIFTED_SUM:  # a NaN too
            redo = np.flatnonzero(~(sums >= _MIN_SHIFTED_SUM).all(axis=(1, 2)))
            exact = np.empty((len(redo), h, r, t))
            _exact_exp(q[redo, :, :r], k[redo], exact)
            att[redo] = exact
            sums[redo] = _sum_last(exact)
    att /= sums[..., None]
    np.matmul(att, v, out=ctx.reshape(n, r, h, -1).transpose(0, 2, 1, 3))


def _attention_fwd(x, w_qkv, b_qkv, w_o, b_o, num_heads, tracked, out_rows=None):
    """Multi-head self-attention of x [B, T, d]; returns the output and what
    `_attention_bwd` needs (None when not `tracked`).

    `w_qkv` [d, 3d] holds the Q, K and V projections side by side and
    `b_qkv` [3d] their biases; `w_o` [d, d] and `b_o` [d] are the output
    projection. Q/K/V come from one GEMM, whose Q columns of weight and bias
    are first scaled by 1/sqrt(d/H), so the scores come out scaled. Given
    `out_rows` r, only each sequence's first r rows are queried: the output
    is [B, r, d] and the scores [B, H, r, T], while the keys and values
    still cover all T rows. The forward runs over tiles of whole sequences
    (`_row_tiles`, by their H r T scores): Q/K/V, scores, softmax, context
    and output projection, tile by tile. Tracked, each tile writes into
    whole Q/K/V, probability and context arrays, which the backward keeps;
    untracked, into scratch reused from tile to tile (one set a thread,
    `_run_tiles`), so only the output is allocated whole. A tile's GEMMs
    get T or r rows a sequence, and the model's sequences hold at least
    three tokens (the kept ones and two extra) and its r is 2, so none goes
    through GEMV."""
    b, t, d = x.shape
    h = num_heads
    r = t if out_rows is None else out_rows
    q_scale = np.ones(3 * d)
    q_scale[:d] = 1.0 / np.sqrt(d // h)
    w_qkv, b_qkv = w_qkv * q_scale, b_qkv * q_scale
    x2 = x.reshape(b * t, d)
    tiles = _row_tiles(b, h * r * t)
    if tracked:
        whole = np.empty((b, t, 3 * d)), np.empty((b, h, r, t)), np.empty((b, r, d))
    out = np.empty((b * r, d))

    def run(tiles):
        qkv, att, ctx = whole if tracked else (  # scratch for this thread's tiles
            _tile_scratch(tiles, t, 3 * d), _tile_scratch(tiles, h, r, t),
            _tile_scratch(tiles, r, d))
        for seqs in tiles:
            n = seqs.stop - seqs.start
            here = seqs if tracked else slice(n)
            qkv_n, ctx_n = qkv[here].reshape(n * t, 3 * d), ctx[here].reshape(n * r, d)
            np.matmul(x2[seqs.start * t:seqs.stop * t], w_qkv, out=qkv_n)
            qkv_n += b_qkv
            _attend(qkv_n, att[here], ctx_n)
            y = out[seqs.start * r:seqs.stop * r]
            np.matmul(ctx_n, w_o, out=y)
            y += b_o

    _run_tiles(run, tiles)
    out = out.reshape(b, r, d)
    if not tracked:
        return out, None
    qkv, att, ctx = whole
    return out, (x2, w_qkv, w_o, qkv.reshape(b * t, 3 * d), att, ctx.reshape(b * r, d),
                 tiles, q_scale)


def _take_rows(a, rows):
    """Rows `rows` [B, L] of each of the B sequences of `a`, [B, T, c] or
    [B * T, c], as a new array [B, L, c] or [B * L, c]."""
    taken = a.reshape(len(rows), -1, a.shape[-1])[np.arange(len(rows))[:, None], rows]
    return taken.reshape(-1, a.shape[-1]) if a.ndim == 2 else taken


def _attention_bwd(g, saved, rows=None):
    """The gradients of x, w_qkv, b_qkv, w_o and b_o from the output's, `g`.

    `g` [B, L, d] holds the gradient of the query rows `rows` [B, L] of each
    sequence, all other rows' gradient being zero; by default, of every row
    the forward queried. The probabilities, context and queries of those
    rows only enter the backward's products, while the keys' and values'
    gradients and the input's cover every row. The Q/K/V gradient is built
    inside the saved Q/K/V buffer; between the two projections the backward
    runs over the forward's tiles (`_run_tiles`), with one [tile, H, L, T]
    scratch a thread for the scores' gradient."""
    x2, w_qkv, w_o, qkv, att, ctx, tiles, q_scale = saved
    b, h, r, t = att.shape
    d = ctx.shape[1]
    by_head = qkv.reshape(b, t, 3, h, d // h)
    q, k, v = by_head.transpose(2, 0, 3, 1, 4)  # each [B, H, T, dh]
    if rows is None:
        q_rows = q[:, :, :r]
    else:
        seqs = np.arange(b)[:, None]
        att = att[seqs[:, :, None], np.arange(h)[:, None], rows[:, None]]
        ctx = _take_rows(ctx, rows)
        q_rows = by_head[seqs, rows, 0].transpose(0, 2, 1, 3)
    n_rows = att.shape[2]
    g2 = g.reshape(b * n_rows, d)
    gctx = (g2 @ w_o.T).reshape(b, n_rows, h, d // h).transpose(0, 2, 1, 3)

    def run(tiles):
        gatt_tile = _tile_scratch(tiles, h, n_rows, t)  # this thread's
        for s in tiles:
            a, gc = att[s], gctx[s]
            gatt = gatt_tile[:len(a)]
            np.matmul(gc, v[s].swapaxes(-1, -2), out=gatt)
            np.matmul(a.swapaxes(-1, -2), gc, out=v[s])  # v's slots now hold gv
            gatt -= _dot_last(gatt, a)[..., None]
            gatt *= a  # now the gradient of the scores
            gq = gatt @ k[s]
            np.matmul(gatt.swapaxes(-1, -2), q_rows[s], out=k[s])
            if rows is None:
                q[s, :, :r] = gq
                q[s, :, r:] = 0.0  # rows the forward did not query
            else:
                q[s] = 0.0
                by_head[seqs[s], rows[s], 0] = gq.transpose(0, 2, 1, 3)

    _run_tiles(run, tiles)
    # qkv now holds the gradient of the Q/K/V projection, whose Q columns
    # are scaled: so are those of its weight's and bias's gradients
    gw = x2.T @ qkv
    gw *= q_scale
    return ((qkv @ w_qkv.T).reshape(b, t, d), gw, _sum_rows(qkv) * q_scale,
            ctx.T @ g2, _sum_rows(g2))


def _live_rows(g):
    """The rows [B, L] of `g` [B, T, d] to take from each sequence, L the
    most rows of one that hold a nonzero: those rows in order, then rows of
    zeros, which change no gradient, in order. None if L is T."""
    live = g.any(axis=2)
    n = live.sum(axis=1).max()
    if n == live.shape[1]:
        return None
    return np.argsort(~live, axis=1, kind="stable")[:, :n]


def _fold_affine(gamma, beta, w, b):
    """The weight and bias that map a normalised input `xhat` as
    (xhat * gamma + beta) @ w + b does: diag(gamma) w and beta w + b."""
    return gamma[:, None] * w, beta @ w + b


def _unfold_affine(gw, gb, gamma, beta, w):
    """The gradients of gamma, beta, w and b from those of the folded weight
    and bias (`_fold_affine`), `gw` and `gb`; w's is written into `gw`."""
    g_gamma = _dot_last(gw, w)
    gw *= gamma[:, None]
    gw += beta[:, None] * gb
    return g_gamma, w @ gb, gw, gb


def encoder_block(x: Tensor, ln1_g: Tensor, ln1_b: Tensor, w_qkv: Tensor, b_qkv: Tensor,
                  w_o: Tensor, b_o: Tensor, ln2_g: Tensor, ln2_b: Tensor, w1: Tensor,
                  b1: Tensor, w2: Tensor, b2: Tensor, num_heads: int,
                  out_rows: int = None) -> Tensor:
    """A pre-norm encoder block as one tape entry: x + attention(LN1(x)),
    then that plus mlp(LN2(that)).

    x [B, T, d]; `ln*_g`, `ln*_b` [d] are the LayerNorms' scales and shifts;
    `w_qkv` [d, 3d], `b_qkv` [3d], `w_o` [d, d] and `b_o` [d] are the
    attention's (`_attention_fwd`) with `num_heads` heads; `w1` [d, h],
    `b1` [h], `w2` [h, d] and `b2` [d] are the MLP's (`_mlp_fwd`). The
    LayerNorms run without scale and shift, which are folded into the weight
    and bias of the GEMM after each (`_fold_affine`, once a call); the
    backward maps the folded weights' gradients back (`_unfold_affine`).
    Each residual is added in place into the output buffer of the part it
    closes, and the backward sums the input's two gradients in place. Every
    element sees the same ufuncs and GEMMs in the same order as the folded
    parts run one by one, so the output and gradients are bit for bit
    theirs; the folds round differently from the unfolded block.

    Given `out_rows` r (an integer in [1, T]), the output is the first r
    rows only, [B, r, d]: LN1 and Q/K/V still run on every row, the rest on
    r. Those rows are the whole block's bit for bit where BLAS gives a
    product's rows the same bits over fewer rows, as on the model's shapes
    (heads 8 wide, r = 2). Not everywhere: with heads 2 wide, the context
    product over 18 keys rounds differently for 2 query rows than for 18,
    and a one-row query product goes through GEMV.

    The backward runs its MLP, LN2 and the attention's query side only on
    the rows whose output gradient holds a nonzero (`_live_rows`), the rows
    behind a token selection, say. Rows of zero gradient add nothing, but
    the weights' gradients, sums over fewer rows, may round differently."""
    inputs = (x, ln1_g, ln1_b, w_qkv, b_qkv, w_o, b_o, ln2_g, ln2_b, w1, b1, w2, b2)
    want = None
    if x.data.ndim == 3 and x.shape[2] >= 1 and w1.data.ndim == 2:
        d, hidden = x.shape[2], w1.shape[1]
        want = [(d,), (d,), (d, 3 * d), (3 * d,), (d, d), (d,), (d,), (d,),
                (d, hidden), (hidden,), (hidden, d), (d,)]
    if want is None or [t.shape for t in inputs[1:]] != want:
        raise DimensionError(
            "encoder_block needs x[B, T, d >= 1], ln1_g[d], ln1_b[d], w_qkv[d, 3d], b_qkv[3d], "
            "w_o[d, d], b_o[d], ln2_g[d], ln2_b[d], w1[d, h], b1[h], w2[h, d] and b2[d], "
            "got " + ", ".join(str(t.shape) for t in inputs))
    heads = check_count(num_heads, 1, DimensionError, f"encoder_block needs a head count "
                        f"that divides width {d}, got {num_heads!r}")
    if d % heads:
        raise DimensionError(f"encoder_block heads {heads} must divide width {d}")
    t = x.shape[1]
    message = f"encoder_block out_rows must be an integer in [1, {t}], got {out_rows!r}"
    rows = t if out_rows is None else check_count(out_rows, 1, DimensionError, message)
    if rows > t:
        raise DimensionError(message)
    tracked = _tracking(*inputs)
    n1, ln1 = _layer_norm_fwd(x.data, tracked)
    x1, att = _attention_fwd(n1, *_fold_affine(ln1_g.data, ln1_b.data, w_qkv.data, b_qkv.data),
                             w_o.data, b_o.data, heads, tracked, rows)
    del n1  # the attention and LN1 keep it when tracked
    x1 += x.data[:, :rows]
    n2, ln2 = _layer_norm_fwd(x1, tracked)
    out, mlp = _mlp_fwd(n2, *_fold_affine(ln2_g.data, ln2_b.data, w1.data, b1.data),
                        w2.data, b2.data, tracked)
    out += x1
    if not tracked:
        return Tensor(out)

    def bwd(g):
        live = _live_rows(g)
        if live is None:
            g_live, mlp_live, ln2_live = g, mlp, ln2
        else:
            (xhat, w1_f, w2_h, act, slope), inv = mlp, ln2[1]
            g_live, xhat = _take_rows(g, live), _take_rows(xhat, live)
            mlp_live = (xhat, w1_f, w2_h, _take_rows(act, live), _take_rows(slope, live))
            ln2_live = (xhat.reshape(len(live), -1, d), _take_rows(inv, live))
        gn2, gw1, gb1, *g_w2 = _mlp_bwd(g_live, mlp_live)
        gx1 = _layer_norm_bwd(gn2, ln2_live)
        gx1 += g_live
        gn1, gw_qkv, gb_qkv, *g_o = _attention_bwd(gx1, att, live)
        gx = _layer_norm_bwd(gn1, ln1)
        if live is None:
            gx[:, :rows] += gx1
        else:
            gx[np.arange(len(gx))[:, None], live] += gx1
        return (gx, *_unfold_affine(gw_qkv, gb_qkv, ln1_g.data, ln1_b.data, w_qkv.data), *g_o,
                *_unfold_affine(gw1, gb1, ln2_g.data, ln2_b.data, w1.data), *g_w2)

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
