"""The tile loops on two threads (`tensor._run_tiles`).

Where an array spans several tiles and the process may run on two CPUs, the
attention's and the MLP's tile loops and the middle of the attention's
backward run half their tiles on a pool thread. These tests hold that to
the same bits as one thread, numpy's raised errors on both threads, and no
thread where none pays: at import, on one tile, on one CPU.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from dtst import tensor as T
from dtst.tensor import Tape, Tensor, backward

from conftest import attention, block_inputs, mlp

# a d = 32, 8x8-grid step (tests/test_step_allocations.py), whose scores
# and MLP hidden layer span several tiles
B, TOKENS, WIDTH, HEADS = 32, 66, 32, 4
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _use_workers(monkeypatch, n):
    monkeypatch.setattr(T, "_worker_count", lambda: n)


def _bits(arrays):
    return [np.ascontiguousarray(a).view(np.int64).tolist() for a in arrays]


def _block_gradients(arrays, w, **kw):
    """The block's output and its 13 inputs' gradients of sum(out * w)."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        y = T.encoder_block(*leaves, HEADS, **kw)
        out = T.tsum(T.mul(y, Tensor(w)))
    backward(out, tape)
    return [y.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("read", ["all", "ragged", "out_rows"])
def test_tracked_block_is_the_same_on_one_and_two_threads(read, monkeypatch):
    # "ragged" reads 1 to 65 rows of each sequence, so the backward gathers
    # the live rows (`_live_rows`); "out_rows" is the model's two-row last
    # block, whose [B, H, 2, T] scores fit one tile unless tiles are smaller
    rng = np.random.default_rng(0)
    arrays = block_inputs(rng, B, TOKENS, WIDTH, 4 * WIDTH)
    rows, kw = TOKENS, {}
    if read == "out_rows":
        monkeypatch.setattr(T, "_TILE_ELEMS", 1 << 10)
        rows, kw = 2, {"out_rows": 2}
    assert len(T._row_tiles(B, HEADS * rows * TOKENS)) > 1
    assert len(T._row_tiles(B * rows, 4 * WIDTH, min_rows=2)) > 1
    w = rng.normal(size=(B, rows, WIDTH))
    if read == "ragged":
        for i in range(B):
            w[i, rng.permutation(TOKENS)[:rng.integers(1, TOKENS)]] = 0.0
        assert T._live_rows(w) is not None
    got = []
    for n in (1, 2):
        _use_workers(monkeypatch, n)
        got.append(_bits(_block_gradients(arrays, w, **kw)))
    assert len(got[0]) == 14
    for i, (one, two) in enumerate(zip(*got)):
        assert one == two, i


@pytest.mark.parametrize("b", [B, 2 * B])
def test_untracked_block_is_the_same_on_one_and_two_threads(b, monkeypatch):
    arrays = block_inputs(np.random.default_rng(1), b, TOKENS, WIDTH, 4 * WIDTH)
    got = []
    for n in (1, 2):
        _use_workers(monkeypatch, n)
        got.append(_bits([T.encoder_block(*map(Tensor, arrays), HEADS).data]))
    assert got[0] == got[1]


def test_blocks_called_from_several_threads_at_once_keep_their_bits(monkeypatch):
    # four callers on two cores share the one pool thread, which the first
    # of them makes, while the interpreter switches threads every microsecond
    _use_workers(monkeypatch, 2)
    rng = np.random.default_rng(5)
    inputs = [block_inputs(rng, 2 * B, TOKENS, WIDTH, 4 * WIDTH) for _ in range(4)]

    def block(arrays):
        return _bits([T.encoder_block(*map(Tensor, arrays), HEADS).data])

    want = [block(arrays) for arrays in inputs]
    got = [None] * len(inputs)

    def call(i):
        got[i] = [block(inputs[i]) for _ in range(3)]

    monkeypatch.setattr(T, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == [[bits] * 3 for bits in want]


def test_threads_record_and_backpropagate_their_own_tapes_at_once(monkeypatch):
    # each thread's `with Tape()` is its own active tape, so four tracked
    # blocks recorded at once keep their entries apart and get the
    # gradients of the same blocks run one after another
    _use_workers(monkeypatch, 2)
    rng = np.random.default_rng(6)
    inputs = [(block_inputs(rng, B, TOKENS, WIDTH, 4 * WIDTH),
               rng.normal(size=(B, TOKENS, WIDTH))) for _ in range(4)]
    want = [_bits(_block_gradients(arrays, w)) for arrays, w in inputs]
    got = [None] * len(inputs)
    errors = []

    def call(i):
        try:
            got[i] = [_bits(_block_gradients(*inputs[i])) for _ in range(2)]
        except Exception as exc:  # reported below, with the thread's index
            errors.append((i, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert errors == []
    assert got == [[bits] * 2 for bits in want]


def test_two_threads_cut_only_mlp_tiles_of_four_rows_or_more():
    assert T._halves(slice(10, 17)) == [slice(10, 14), slice(14, 17)]
    assert T._halves(slice(0, 4)) == [slice(0, 2), slice(2, 4)]
    assert T._halves(slice(5, 8)) == [slice(5, 8)]  # a one-row half would go through GEMV


def _kernel_inputs(kernel, rng):
    """x [B, T, d] and a kernel's parameters at the wide shapes."""
    hidden = 4 * WIDTH
    shapes = ([(WIDTH, 3 * WIDTH), (3 * WIDTH,), (WIDTH, WIDTH), (WIDTH,)] if kernel == "attention"
              else [(WIDTH, hidden), (hidden,), (hidden, WIDTH), (WIDTH,)])
    return rng.normal(size=(B, TOKENS, WIDTH)), [rng.normal(size=s) * 0.2 for s in shapes]


def _call(kernel, tensors):
    return attention(*tensors, HEADS) if kernel == "attention" else mlp(*tensors)


@pytest.mark.parametrize("tracked", [False, True], ids=["untracked", "tracked"])
@pytest.mark.parametrize("kernel", ["attention", "mlp"])
def test_an_overflow_in_the_pool_threads_tiles_is_raised(kernel, tracked, monkeypatch):
    # only the last sequence overflows (its scores, or its GELU's x * x),
    # and the pool thread runs the second half of the tiles: numpy's error
    # state of the caller holds there, so the error is raised, not warned
    _use_workers(monkeypatch, 2)
    x, params = _kernel_inputs(kernel, np.random.default_rng(2))
    x[-1] *= 1e200
    tensors = [Tensor(a, requires_grad=tracked) for a in [x] + params]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            if tracked:
                with Tape():
                    _call(kernel, tensors)
            else:
                _call(kernel, tensors)
        x[-1] = 0.0  # and without the overflow nothing is raised
        with np.errstate(over="raise"):
            _call(kernel, [Tensor(a) for a in [x] + params])


def test_an_error_leaves_only_once_both_threads_are_done(monkeypatch):
    _use_workers(monkeypatch, 2)
    tiles = [slice(i, i + 1) for i in range(4)]
    done = []

    def caller_fails(part):
        if part[0] == tiles[0]:
            raise ValueError("in the caller's half")
        time.sleep(0.2)
        done.append(part)

    with pytest.raises(ValueError, match="caller's half"):
        T._run_tiles(caller_fails, tiles)
    assert done == [tiles[2:]]

    def pool_fails(part):
        if part[0] != tiles[0]:
            raise ValueError("in the pool's half")
        done.append(part)

    with pytest.raises(ValueError, match="pool's half"):
        T._run_tiles(pool_fails, tiles)
    assert done == [tiles[2:], tiles[:2]]


def test_import_and_one_tile_start_no_thread():
    script = ("import sys, threading, numpy as np, dtst\n"
              "from dtst import tensor as T\n"
              "assert threading.active_count() == 1 and T._pool is None\n"
              "x = T.Tensor(np.ones((4, 6, 8)))\n"
              "p = [T.Tensor(np.full(s, 0.1)) for s in ((8,), (8,), (8, 24), (24,),\n"
              "     (8, 8), (8,), (8,), (8,), (8, 32), (32,), (32, 8), (8,))]\n"
              "T.encoder_block(x, *p, 2)\n"
              "assert threading.active_count() == 1 and T._pool is None\n"
              "assert 'concurrent.futures' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def _child_block(conn, arrays):
    conn.send((T._pool is None, _bits([T.encoder_block(*map(Tensor, arrays), HEADS).data])))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_forked_child_makes_its_own_pool(monkeypatch):
    # the child has no copy of the parent's pool thread: a task sent to the
    # parent's pool there would never run
    _use_workers(monkeypatch, 2)
    arrays = block_inputs(np.random.default_rng(3), 2 * B, TOKENS, WIDTH, 4 * WIDTH)
    want = _bits([T.encoder_block(*map(Tensor, arrays), HEADS).data])
    assert T._pool is not None
    ctx = multiprocessing.get_context("fork")
    mine, theirs = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_block, args=(theirs, arrays))
    child.start()
    try:
        assert mine.poll(60), "the forked child computed nothing in 60 s"
        fresh, got = mine.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0 and fresh and got == want


def test_one_cpu_runs_todays_single_loop_and_starts_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(T, "_pool", None)
    assert T._worker_count() == 1
    threads = threading.active_count()
    gelu_rows, gelu_tile = [], T._gelu_tile

    def counted(x, *args):
        gelu_rows.append(len(x))
        return gelu_tile(x, *args)
    monkeypatch.setattr(T, "_gelu_tile", counted)
    arrays = block_inputs(np.random.default_rng(4), B, TOKENS, WIDTH, 4 * WIDTH)
    tiles = T._row_tiles(B * TOKENS, 4 * WIDTH, min_rows=2)
    assert len(tiles) > 1
    for tracked in (False, True):
        gelu_rows.clear()
        leaves = [Tensor(a, requires_grad=tracked) for a in arrays]
        with Tape():
            T.encoder_block(*leaves, HEADS)
        assert gelu_rows == [s.stop - s.start for s in tiles], tracked
    assert T._pool is None and threading.active_count() == threads
