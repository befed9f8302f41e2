"""Op-level gradient checks and tape/backward contract tests."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtst import tensor as T
from dtst.errors import ContractError, DimensionError
from dtst.tensor import Tape, Tensor, backward

from conftest import attention, block_inputs, fold_affine, mlp, normalize

RNG = np.random.default_rng(1234)


def fd_grad(f, arr, step=1e-6):
    """Central finite differences of scalar f() w.r.t. ndarray arr."""
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom


def check_unary(op, x, tol=1e-7, **kw):
    """Autodiff gradient of sum(op(x)) vs finite differences."""
    t = Tensor(x, requires_grad=True)

    def run():
        with Tape() as tape:
            out = T.tsum(op(t, **kw))
        return out, tape

    out, tape = run()
    backward(out, tape)
    analytic = t.grad.copy()
    fd = fd_grad(lambda: op(Tensor(x), **kw).data.sum(), x)
    assert rel_err(analytic, fd) < tol


def test_add_sub_mul_div_grads():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(3, 4)) + 3.0  # keep divisors away from zero
    for op in (T.add, T.sub, T.mul, T.div):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        with Tape() as tape:
            out = T.tsum(op(ta, tb))
        backward(out, tape)
        fa = fd_grad(lambda: op(Tensor(a), Tensor(b)).data.sum(), a)
        fb = fd_grad(lambda: op(Tensor(a), Tensor(b)).data.sum(), b)
        assert rel_err(ta.grad, fa) < 1e-7
        assert rel_err(tb.grad, fb) < 1e-7


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), flip=st.booleans())
def test_broadcast_grads_match_fd(rows, cols, flip):
    rng = np.random.default_rng(rows * 7 + cols)
    a = rng.normal(size=(rows, cols))
    b = rng.normal(size=(1, cols) if flip else (rows, 1))
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = T.tsum(T.mul(T.add(ta, tb), ta))
    backward(out, tape)

    def val(x, y):
        return ((x + y) * x).sum()

    assert rel_err(ta.grad, fd_grad(lambda: val(a, b), a)) < 1e-6
    assert rel_err(tb.grad, fd_grad(lambda: val(a, b), b)) < 1e-6


def test_unary_op_gradients():
    x = np.abs(RNG.normal(size=(2, 5))) + 0.5
    check_unary(T.log, x)
    check_unary(T.sqrt, x)
    check_unary(T.gelu, RNG.normal(size=(2, 5)))
    check_unary(T.clip_min, RNG.normal(size=(2, 5)) + 2.0, floor=1e-3)


def test_gelu_matches_tanh_oracle():
    # independent direct evaluation of the tanh form
    x = np.linspace(-4, 4, 33)
    expected = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
    got = T.gelu(Tensor(x)).data
    assert np.allclose(got, expected, atol=1e-15)


def test_gelu_stays_close_to_exact_gelu():
    # the tanh form is within 5e-4 of x * Phi(x) (largest near x = 2.70)
    from scipy.special import ndtr

    x = np.linspace(-8, 8, 200001)
    assert np.abs(T.gelu(Tensor(x)).data - x * ndtr(x)).max() <= 5e-4


def test_gelu_tracked_and_untracked_forward_are_bitwise_equal():
    x = RNG.normal(size=(6, 7)) * 3.0
    untracked = T.gelu(Tensor(x)).data
    with Tape() as tape:
        tracked = T.gelu(Tensor(x, requires_grad=True))
    assert len(tape) == 1
    assert np.array_equal(tracked.data, untracked)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (2, 0), (3, 1, 5)])
def test_gelu_keeps_the_shape_of_any_input(shape):
    x = RNG.normal(size=shape) * 3.0
    want = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
    t = Tensor(x, requires_grad=True)
    with Tape() as tape:
        y = T.gelu(t)
        out = T.tsum(y)
    backward(out, tape)
    assert y.shape == shape and t.grad.shape == shape
    assert np.allclose(y.data, want, atol=1e-15)
    assert np.array_equal(T.gelu(Tensor(x)).data, y.data)


def test_gelu_tile_output_is_the_same_with_and_without_the_slope():
    mags = np.logspace(-300, np.log10(40.0), 2001)
    x = np.concatenate([mags, -mags, [0.0, -0.0]])
    with_slope, without = x.copy(), x.copy()
    T._gelu_tile(with_slope, np.empty_like(x), np.empty_like(x), np.empty_like(x))
    t = np.empty_like(x)
    T._gelu_tile(without, t, t)  # `u` may be `t` without a slope
    assert with_slope.view(np.int64).tolist() == without.view(np.int64).tolist()


# with 32-element tiles, each case below spans three or more tiles, the last
# one shorter than the others
SMALL_TILE = 32


def _fused_cases():
    """(name, op, inputs, tile rows, row elements) for the kernels that run
    tile by tile, and the encoder block that runs both, tiled by its
    attention; `op` maps the input Tensors to one output Tensor."""
    rng = np.random.default_rng(5)
    mlp_in = [rng.normal(size=s) for s in ((3, 7, 4), (4, 16), (16,), (16, 4), (4,))]
    cases = [("mlp", mlp, mlp_in, 21, 16)]
    for b, t, heads in ((11, 4, 1), (19, 2, 2)):
        x = rng.normal(size=(b, t, 8))
        w = [rng.normal(size=(8, 8)) * 0.5 for _ in range(4)]
        bias = [rng.normal(size=8) * 0.1 for _ in range(4)]
        att_in = [x, np.concatenate(w[:3], axis=1), np.concatenate(bias[:3]), w[3], bias[3]]

        def attention_op(*args, heads=heads):
            return attention(*args, heads)

        def block_op(*args, heads=heads):
            return T.encoder_block(*args, heads)
        cases.append((f"attention[h={heads}]", attention_op, att_in, b, heads * t * t))
        cases.append((f"encoder_block[h={heads}]", block_op, block_inputs(rng, b, t, 8, 32),
                      b, heads * t * t))
    return cases


def _run_fused(op, inputs, tracked):
    """op's output, and when `tracked`, each input's gradient of
    sum(out * w) for a fixed w."""
    ts = [Tensor(a.copy(), requires_grad=tracked) for a in inputs]
    if not tracked:
        return [op(*ts).data]
    with Tape() as tape:
        y = op(*ts)
        w = np.random.default_rng(6).normal(size=y.shape)
        out = T.tsum(T.mul(y, Tensor(w)))
    backward(out, tape)
    return [y.data] + [t.grad for t in ts]


@pytest.mark.parametrize("case", _fused_cases(), ids=lambda c: c[0])
def test_tiled_kernels_equal_one_tile_bit_for_bit(case, monkeypatch):
    name, op, inputs, rows, row_elems = case
    assert len(T._row_tiles(rows, row_elems)) == 1
    one_tile = [_run_fused(op, inputs, tracked) for tracked in (False, True)]
    monkeypatch.setattr(T, "_TILE_ELEMS", SMALL_TILE)
    tiles = T._row_tiles(rows, row_elems)
    sizes = [s.stop - s.start for s in tiles]
    assert len(sizes) >= 3 and sizes[-1] < sizes[0], sizes
    assert sum(sizes) == rows
    for tracked, want in zip((False, True), one_tile):
        got = _run_fused(op, inputs, tracked)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (name, tracked)
    # and the untracked output is the tracked one, so at every tiling above
    assert np.array_equal(one_tile[0][0], one_tile[1][0]), name


@pytest.mark.parametrize("tracked", [False, True], ids=["untracked", "tracked"])
@pytest.mark.parametrize("case", _fused_cases(), ids=lambda c: c[0])
def test_tiles_equal_one_tile_at_every_tile_size(case, tracked, monkeypatch):
    # a one-row GEMM goes through GEMV, which rounds differently, so no tile
    # that a GEMM runs over may hold one row: not at one-element tiles, and
    # not where the rows leave a remainder of one; and on two threads, which
    # cut each MLP tile of four rows or more in two, the same
    name, op, inputs, rows, row_elems = case
    monkeypatch.setattr(T, "_worker_count", lambda: 1)
    want = _run_fused(op, inputs, tracked)
    tile_sizes = range(1, -(-rows * row_elems // 4) + 1)  # up to one tile
    for workers in (1, 2):
        monkeypatch.setattr(T, "_worker_count", lambda: workers)
        remainders = []
        for tile_elems in tile_sizes:
            monkeypatch.setattr(T, "_TILE_ELEMS", tile_elems)
            sizes = [s.stop - s.start for s in T._row_tiles(rows, row_elems)]
            remainders.append(sizes[0] > 1 and sizes[-1] == 1)
            got = _run_fused(op, inputs, tracked)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (name, workers, tile_elems)
        assert sizes == [rows]
        assert any(remainders)


def test_row_tiles_fold_a_short_remainder(monkeypatch):
    monkeypatch.setattr(T, "_TILE_ELEMS", 2)
    assert T._row_tiles(9, 1) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8), slice(8, 9)]
    assert T._row_tiles(9, 1, min_rows=2)[-1] == slice(6, 9)
    assert T._row_tiles(9, 4, min_rows=2) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 9)]


def test_reductions_and_shapes():
    x = RNG.normal(size=(2, 3, 4))
    check_unary(T.tsum, x)
    check_unary(lambda t: T.tsum(t, axis=1), x)
    check_unary(lambda t: T.reshape(t, (6, 4)), x)
    check_unary(lambda t: T.transpose(t, (2, 0, 1)), x)
    check_unary(lambda t: T.broadcast_to(T.reshape(t, (2, 3, 4, 1)), (2, 3, 4, 5)), x)
    check_unary(lambda t: T.narrow(t, 1, 1, 2), x)


@pytest.mark.parametrize("axis, start, length", [
    (1, 3, 5),   # runs past the end
    (1, -1, 1),  # starts before the start
    (1, 2, 0),   # takes no entry
    (3, 0, 1),   # no such axis
    (-1, 0, 1),  # a negative axis
])
def test_narrow_rejects_slices_outside_the_tensor(axis, start, length):
    x = Tensor(np.zeros((2, 4)))
    assert T.narrow(x, 1, 3, 1).shape == (2, 1)
    with pytest.raises(DimensionError, match="narrow"):
        T.narrow(x, axis, start, length)


def test_concat_gradient_splits():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(2, 2))
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = T.tsum(T.mul(T.concat([ta, tb], axis=1), T.concat([ta, tb], axis=1)))
    backward(out, tape)
    assert np.allclose(ta.grad, 2 * a)
    assert np.allclose(tb.grad, 2 * b)


def test_matmul_gradients_batched():
    a = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=(4, 5))
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = T.tsum(T.matmul(ta, tb))
    backward(out, tape)
    assert rel_err(ta.grad, fd_grad(lambda: (a @ b).sum(), a)) < 1e-7
    assert rel_err(tb.grad, fd_grad(lambda: (a @ b).sum(), b)) < 1e-7


def test_matmul_shape_errors_name_both_operands():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_softmax_and_log_softmax_gradients():
    x = RNG.normal(size=(3, 6))
    w = RNG.normal(size=(3, 6))  # weight so the gradient is nontrivial

    for op in (T.softmax_lastdim, T.log_softmax_lastdim):
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = T.tsum(T.mul(op(t), Tensor(w)))
        backward(out, tape)
        fd = fd_grad(lambda: (op(Tensor(x)).data * w).sum(), x)
        assert rel_err(t.grad, fd) < 1e-6


def test_softmax_rows_sum_to_one():
    x = RNG.normal(size=(4, 7)) * 10
    s = T.softmax_lastdim(Tensor(x)).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert (s > 0).all()


def test_layer_norm_gradients():
    x = RNG.normal(size=(2, 3, 8))
    gamma = RNG.normal(size=8)
    beta = RNG.normal(size=8)
    w = RNG.normal(size=(2, 3, 8))
    tx = Tensor(x, requires_grad=True)
    tg = Tensor(gamma, requires_grad=True)
    tb = Tensor(beta, requires_grad=True)
    with Tape() as tape:
        out = T.tsum(T.mul(T.layer_norm(tx, tg, tb), Tensor(w)))
    backward(out, tape)

    def val():
        return (T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data * w).sum()

    assert rel_err(tx.grad, fd_grad(val, x)) < 1e-6
    assert rel_err(tg.grad, fd_grad(val, gamma)) < 1e-7
    assert rel_err(tb.grad, fd_grad(val, beta)) < 1e-7


def test_layer_norm_scale_invariance_of_input():
    x = RNG.normal(size=(4, 8))
    gamma = Tensor(np.ones(8))
    beta = Tensor(np.zeros(8))
    a = T.layer_norm(Tensor(x), gamma, beta).data
    b = T.layer_norm(Tensor(3.5 * x), gamma, beta).data
    assert np.allclose(a, b, atol=1e-9)


def test_gather_ops_gradients():
    x = RNG.normal(size=(2, 5, 3))
    idx = np.array([[0, 2], [4, 1]])
    t = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = T.tsum(T.gather_tokens(t, idx))
    backward(out, tape)
    expected = np.zeros_like(x)
    for b, row in enumerate(idx):
        for i in row:
            expected[b, i] += 1.0
    assert np.allclose(t.grad, expected)

    logits = RNG.normal(size=(3, 4))
    labels = np.array([1, 0, 3])
    t = Tensor(logits, requires_grad=True)
    with Tape() as tape:
        out = T.tsum(T.gather_lastdim(t, labels))
    backward(out, tape)
    expected = np.zeros_like(logits)
    expected[np.arange(3), labels] = 1.0
    assert np.allclose(t.grad, expected)


def test_unreached_leaf_gets_zero_grad():
    used = Tensor(RNG.normal(size=(2,)), requires_grad=True)
    unused = Tensor(RNG.normal(size=(2,)), requires_grad=True)
    with Tape() as tape:
        _side = T.mul(unused, unused)  # on the tape, off the path to the root
        out = T.tsum(T.mul(used, used))
    backward(out, tape)
    assert np.allclose(used.grad, 2 * used.data)
    assert unused.grad is not None
    assert np.allclose(unused.grad, 0.0)


def test_backward_rejects_non_scalar_root():
    x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
    with Tape() as tape:
        out = T.mul(x, x)
    with pytest.raises(ContractError, match="scalar"):
        backward(out, tape)


def test_backward_rejects_foreign_root():
    x = Tensor(RNG.normal(size=(2,)), requires_grad=True)
    with Tape() as tape:
        T.tsum(x)
    foreign = Tensor(1.0)
    with pytest.raises(ContractError):
        backward(foreign, tape)


def test_a_spent_tape_is_refused():
    # backward functions write into the buffers their entries saved, so a
    # second pass over the same tape would read gradients as activations
    leaves = [Tensor(a, requires_grad=True) for a in block_inputs(RNG, 2, 3, 4, 8)]
    with Tape() as tape:
        out = T.tsum(T.encoder_block(*leaves, 2))
    backward(out, tape)
    first = [t.grad.copy() for t in leaves]
    with pytest.raises(ContractError, match="backpropagated already"):
        backward(out, tape)
    for t, g in zip(leaves, first):
        assert np.array_equal(t.grad, g)


def test_mlp_is_linear_gelu_linear():
    x = Tensor(RNG.normal(size=(3, 5, 4)), requires_grad=True)
    w1, w2 = (Tensor(RNG.normal(size=s), requires_grad=True) for s in ((4, 16), (16, 4)))
    b1, b2 = (Tensor(RNG.normal(size=n), requires_grad=True) for n in (16, 4))
    grads, entries = [], []
    for fused in (True, False):
        for t in (x, w1, b1, w2, b2):
            t.grad = None
        with Tape() as tape:
            y = (mlp(x, w1, b1, w2, b2) if fused else
                 T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2))
            out = T.tsum(T.mul(y, y))
        entries.append(len(tape))
        backward(out, tape)
        grads.append([y.data] + [t.grad for t in (x, w1, b1, w2, b2)])
    for fused, composed in zip(*grads):
        assert np.array_equal(fused, composed)
    assert entries == [3, 5]
    untracked = mlp(Tensor(x.data), Tensor(w1.data), Tensor(b1.data),
                    Tensor(w2.data), Tensor(b2.data))
    assert not untracked.requires_grad
    assert np.array_equal(untracked.data, grads[0][0])


def composed_block(x, ln1_g, ln1_b, w_qkv, b_qkv, w_o, b_o, ln2_g, ln2_b, w1, b1, w2, b2,
                   num_heads):
    """`tensor.encoder_block` as its folded parts, one tape entry each: each
    LayerNorm without scale and shift, its scale and shift folded into the
    weight and bias of the GEMM after it."""
    x = T.add(x, attention(normalize(x), *fold_affine(ln1_g, ln1_b, w_qkv, b_qkv), w_o, b_o,
                           num_heads))
    return T.add(x, mlp(normalize(x), *fold_affine(ln2_g, ln2_b, w1, b1), w2, b2))


@pytest.mark.parametrize("b, t, heads", [(3, 5, 2), (17, 18, 2)])
def test_encoder_block_is_its_parts_bit_for_bit(b, t, heads):
    # one tape entry with its residuals added in place, against normalize,
    # the two folds, attention, add, normalize, the two folds, mlp and add
    # as ten; the first shape's scores take numpy's row max, the second's
    # the column loop
    assert (b * heads > T._ROWS_PER_COLUMN) == (t == 18)
    leaves = [Tensor(a, requires_grad=True) for a in block_inputs(RNG, b, t, 4, 16)]
    w = Tensor(RNG.normal(size=(b, t, 4)))
    grads, entries = [], []
    for op in (T.encoder_block, composed_block):
        for leaf in leaves:
            leaf.grad = None
        with Tape() as tape:
            y = op(*leaves, heads)
            out = T.tsum(T.mul(y, w))
        entries.append(len(tape))
        backward(out, tape)
        untracked = op(*(Tensor(leaf.data) for leaf in leaves), heads)
        assert not untracked.requires_grad and np.array_equal(untracked.data, y.data)
        grads.append([y.data] + [leaf.grad for leaf in leaves])
    assert entries == [3, 12]
    for i, (fused, parts) in enumerate(zip(*grads)):
        assert fused.view(np.int64).tolist() == parts.view(np.int64).tolist(), i


@pytest.mark.parametrize("b, t, d, heads", [(3, 5, 8, 2), (17, 18, 8, 2), (32, 66, 32, 4)])
def test_encoder_block_out_rows_are_the_whole_blocks_leading_rows_bit_for_bit(b, t, d, heads):
    # the whole block's scores take numpy's row max, the column loop, and
    # run over several tiles; its heads are at least 4 wide, the model's 8:
    # with 2-wide heads, this BLAS rounds the context product over 18 keys
    # differently for 2 query rows than for 18
    tiles = T._row_tiles(b, heads * t * t)
    assert (tiles[0].stop * heads > T._ROWS_PER_COLUMN) == (t == 18)
    assert (len(tiles) > 1) == (t == 66)
    arrays = block_inputs(RNG, b, t, d, 4 * d)
    whole = T.encoder_block(*map(Tensor, arrays), heads).data
    for rows in (2, 3, t):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape():
            tracked = T.encoder_block(*leaves, heads, out_rows=rows)
        untracked = T.encoder_block(*map(Tensor, arrays), heads, out_rows=rows)
        assert tracked.requires_grad and not untracked.requires_grad
        for out in (tracked, untracked):
            assert out.shape == (b, rows, d)
            assert out.data.view(np.int64).tolist() == whole[:, :rows].view(np.int64).tolist()


def _gradients(op, leaves, w, heads, **kw):
    """The output and each leaf's gradient of sum(op(*leaves) * w)."""
    for leaf in leaves:
        leaf.grad = None
    with Tape() as tape:
        y = op(*leaves, heads, **kw)
        out = T.tsum(T.mul(y, Tensor(w)))
    backward(out, tape)
    return [y.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("read", ["equal", "ragged", "out_rows", "none"])
def test_encoder_block_backward_skips_the_rows_of_zero_gradient(read, monkeypatch):
    # a loss that reads some rows of each sequence, as a token selection
    # after the block does, against the composition of the folded parts,
    # which runs every row; "out_rows" reads only the rows a 3-row block
    # outputs
    b, t, d, heads = 4, 7, 8, 2
    leaves = [Tensor(a, requires_grad=True) for a in block_inputs(RNG, b, t, d, 32)]
    w = RNG.normal(size=(b, t, d))
    if read == "equal":
        w[:, [1, 4, 5]] = 0.0
    elif read == "ragged":  # 1, 3, 6 and 6 live rows; the shorter padded with dead ones
        for i, dead in enumerate(([1, 2, 3, 4, 5, 6], [0, 2, 5, 6], [3], [0])):
            w[i, dead] = 0.0
    elif read == "out_rows":
        w[:, 3:] = 0.0
    else:
        w[:] = 0.0
    taken = []
    live_rows = T._live_rows
    monkeypatch.setattr(T, "_live_rows", lambda g: taken.append(live_rows(g)) or taken[-1])
    kw = {"out_rows": 3} if read == "out_rows" else {}
    fused = _gradients(T.encoder_block, leaves, w[:, :3] if kw else w, heads, **kw)
    parts = _gradients(composed_block, leaves, w, heads)
    assert fused[0].tolist() == parts[0][:, :fused[0].shape[1]].tolist()
    if read == "out_rows":
        assert taken == [None]  # all three rows live: nothing gathered
    else:
        assert taken[0].shape[1] == {"equal": 4, "ragged": 6, "none": 0}[read]
    for i, (got, want) in enumerate(zip(fused[1:], parts[1:])):
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale, i
        if read == "none":
            assert not got.any(), i


def _unfolded_block(arrays, heads, rows, w):
    """A plain numpy encoder block as the model defines it, with nothing
    folded: LayerNorm with its scale and shift, scores scaled by
    1/sqrt(d/H), a softmax shifted by each row's max and 0.5 x (1 + t) for
    the GELU. Returns the output's first `rows` rows and the gradients of
    sum(out * w) with respect to the 13 arrays, from a hand backward."""
    x, g1, be1, wqkv, bqkv, wo, bo, g2, be2, w1, b1, w2, b2 = arrays
    b, t, d = x.shape
    dh = d // heads

    def ln(z, gamma, beta):
        c = z - z.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((c * c).mean(axis=-1, keepdims=True) + T.LAYER_NORM_EPS)
        return c * inv * gamma + beta, c * inv, inv

    def ln_back(gy, gamma, xhat, inv):
        gxh = gy * gamma
        gx = inv * (gxh - gxh.mean(axis=-1, keepdims=True)
                    - xhat * (gxh * xhat).mean(axis=-1, keepdims=True))
        return gx, (gy * xhat).sum(axis=(0, 1)), gy.sum(axis=(0, 1))

    def split(a):  # [b, n, d] -> [b, H, n, dh]
        return a.reshape(b, -1, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(b, -1, d)

    n1, xh1, inv1 = ln(x, g1, be1)
    qkv = n1 @ wqkv + bqkv
    q, k, v = (split(qkv[..., i * d:(i + 1) * d]) for i in range(3))
    s = q[:, :, :rows] @ k.swapaxes(-1, -2) / np.sqrt(dh)
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    ctx = merge(p @ v)
    x1 = x[:, :rows] + ctx @ wo + bo
    n2, xh2, inv2 = ln(x1, g2, be2)
    h = n2 @ w1 + b1
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    th = np.tanh(c * (h + a * h ** 3))
    act = 0.5 * h * (1.0 + th)
    y = x1 + act @ w2 + b2

    def wsum(left, right):  # sum over sequences and rows of left^T right
        return np.einsum("bni,bnj->ij", left, right)

    gx1 = w.copy()
    gw2, gb2 = wsum(act, w), w.sum(axis=(0, 1))
    gh = (w @ w2.T) * (0.5 * (1.0 + th) + 0.5 * h * (1.0 - th ** 2) * c * (1.0 + 3.0 * a * h ** 2))
    gw1, gb1 = wsum(n2, gh), gh.sum(axis=(0, 1))
    gn2, gg2, gbe2 = ln_back(gh @ w1.T, g2, xh2, inv2)
    gx1 += gn2
    gwo, gbo = wsum(ctx, gx1), gx1.sum(axis=(0, 1))
    gctx = split(gx1 @ wo.T)
    gp = gctx @ v.swapaxes(-1, -2)
    gv = p.swapaxes(-1, -2) @ gctx
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) / np.sqrt(dh)
    gq = np.zeros_like(q)
    gq[:, :, :rows] = gs @ k
    gk = gs.swapaxes(-1, -2) @ q[:, :, :rows]
    gqkv = np.concatenate([merge(gq), merge(gk), merge(gv)], axis=-1)
    gwqkv, gbqkv = wsum(n1, gqkv), gqkv.sum(axis=(0, 1))
    gx, gg1, gbe1 = ln_back(gqkv @ wqkv.T, g1, xh1, inv1)
    gx[:, :rows] += gx1
    return [y, gx, gg1, gbe1, gwqkv, gbqkv, gwo, gbo, gg2, gbe2, gw1, gb1, gw2, gb2]


@pytest.mark.parametrize("t", [5, 40], ids=["row_max", "bound"])
@pytest.mark.parametrize("read", ["full", "out_rows", "ragged"])
def test_encoder_block_is_the_unfolded_block_to_rounding(read, t):
    # the folded LayerNorm scales and shifts, score scale and GELU halving,
    # and on 40-key rows the bound-shifted softmax, change only rounding:
    # the output and all 13 gradients within 1e-12 of an independent numpy
    # block, on full rows, two output rows and ragged live rows
    b, d, heads = 3, 16, 2
    rng = np.random.default_rng(t)
    arrays = block_inputs(rng, b, t, d, 4 * d)
    arrays[2], arrays[7] = 0.3 * arrays[2], 0.3 * arrays[7]  # the shifts, about 0.3
    rows = 2 if read == "out_rows" else t
    w = rng.normal(size=(b, rows, d))
    if read == "ragged":  # 1, 3 and t - 1 live rows
        w[0, 1:] = 0.0
        w[1, [0, 2, 4] + list(range(6, t))] = 0.0
        w[2, 3] = 0.0
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    fused = _gradients(T.encoder_block, leaves, w, heads,
                       **({"out_rows": 2} if read == "out_rows" else {}))
    want = _unfolded_block(arrays, heads, rows, w)
    assert len(fused) == len(want) == 14
    for i, (got, ref) in enumerate(zip(fused, want)):
        assert got.shape == ref.shape, i
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), i


def _attend(qkv, n, heads, rows=None):
    """`tensor._attend` of `qkv` [n * t, 3d]: the probabilities and context."""
    t, d = len(qkv) // n, qkv.shape[1] // 3
    rows = t if rows is None else rows
    att, ctx = np.empty((n, heads, rows, t)), np.empty((n * rows, d))
    T._attend(qkv, att, ctx)
    return att, ctx.reshape(n, rows, d)


def _count_calls(monkeypatch, name):
    """A list that grows by one entry, the first argument, per call of
    `tensor.<name>` from now on."""
    calls, f = [], getattr(T, name)
    monkeypatch.setattr(T, name, lambda a, *rest: calls.append(a) or f(a, *rest))
    return calls


def test_the_bound_shifted_softmax_is_the_row_max_one_to_rounding(monkeypatch):
    # a [2, 4, 66, 66] tile of scores ranging over tens, as `wide_grid`'s
    # blocks score
    n, t, d, heads = 2, 66, 32, 4
    assert t >= T._SHIFT_MIN_KEYS
    qkv = 2.0 * np.random.default_rng(66).normal(size=(n * t, 3 * d))
    maxima = _count_calls(monkeypatch, "_row_max")
    shifted = _attend(qkv, n, heads)
    assert maxima == []
    monkeypatch.setattr(T, "_SHIFT_MIN_KEYS", t + 1)
    per_row = _attend(qkv, n, heads)
    assert len(maxima) == 1
    for got, want in zip(shifted, per_row):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert not np.array_equal(got, want)  # the rounding does move


def test_a_sequence_whose_shifted_rows_underflow_takes_the_row_max_path(monkeypatch):
    # head 2 of sequences 1 and 3 holds a query and a key of norm 30 along
    # one axis, so its bound is 900, while its other queries score no more
    # than 0.3: shifted by the bound, their largest terms are about
    # exp(-900), 0
    n, t, d, heads = 4, 66, 32, 4
    dh = d // heads
    rng = np.random.default_rng(900)
    qkv = rng.normal(size=(n * t, 3 * d))
    head = 2
    q_cols, k_cols = slice(head * dh, (head + 1) * dh), slice(d + head * dh, d + (head + 1) * dh)
    for seq in (1, 3):
        rows = slice(seq * t, (seq + 1) * t)
        qkv[rows, q_cols] = 0.0
        qkv[rows, q_cols.start] = 0.01
        qkv[seq * t, q_cols.start] = 30.0
        qkv[rows, k_cols] = np.clip(qkv[rows, k_cols], -1.0, 1.0) / 3.0
        qkv[seq * t, k_cols] = 0.0
        qkv[seq * t, k_cols.start] = 30.0
        bound = T._score_bound(qkv, n, t, heads)
        scores = qkv[rows, q_cols] @ qkv[rows, k_cols].T
        assert np.isclose(bound[seq, head], 900.0) and scores[1:].max() <= 0.35
        assert np.exp(scores[1:].max() - bound[seq, head]) < T._MIN_SHIFTED_SUM
    maxima = _count_calls(monkeypatch, "_row_max")
    att, ctx = _attend(qkv, n, heads)
    assert [a.shape for a in maxima] == [(2, heads, t, t)]  # both redone in one call
    assert np.isfinite(att).all() and np.isfinite(ctx).all()
    assert np.abs(att.sum(axis=-1) - 1.0).max() <= 1e-12
    monkeypatch.setattr(T, "_SHIFT_MIN_KEYS", t + 1)
    per_row = _attend(qkv, n, heads)
    for got, want in zip((att, ctx), per_row):
        for seq in (1, 3):
            assert got[seq].view(np.int64).tolist() == want[seq].view(np.int64).tolist()
    monkeypatch.setattr(T, "_SHIFT_MIN_KEYS", t)
    # the other sequences keep the bound path, as they would alone
    for other in (0, 2):
        alone = _attend(qkv[other * t:(other + 1) * t], 1, heads)
        for got, want in zip((att, ctx), alone):
            assert got[other].view(np.int64).tolist() == want[0].view(np.int64).tolist()


def test_a_seed_0_wide_grid_training_never_takes_the_fallback(monkeypatch, tmp_path):
    # every block in front of the selector scores 66 keys, so takes the
    # bound; a fallback would call the row max on 66-key rows
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    from dtst import cli

    config = tmp_path / "wide_grid.cfg"
    config.write_text(workloads.WIDE_GRID)
    bounds = _count_calls(monkeypatch, "_score_bound")
    maxima = _count_calls(monkeypatch, "_row_max")
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert len(bounds) >= 3 * 32  # 32 steps, three 66-token blocks at least
    assert all(a.shape[-1] == 10 for a in maxima) and maxima  # the selected 2 + 8 tokens


def _block_args(**replace):
    """Zero tensors for `encoder_block` with d = 4 and a hidden width of 8,
    any of them replaced by name."""
    d, h = 4, 8
    shapes = {"x": (2, 3, d), "ln1_g": (d,), "ln1_b": (d,), "w_qkv": (d, 3 * d),
              "b_qkv": (3 * d,), "w_o": (d, d), "b_o": (d,), "ln2_g": (d,), "ln2_b": (d,),
              "w1": (d, h), "b1": (h,), "w2": (h, d), "b2": (d,)}
    shapes.update(replace)
    return [Tensor(np.zeros(s)) for s in shapes.values()]


def _assert_block_refuses(bad):
    with pytest.raises(DimensionError, match="encoder_block needs") as err:
        T.encoder_block(*bad, 2)
    assert ", ".join(str(t.shape) for t in bad) in str(err.value)
    names = ("x[", "ln1_g[", "ln1_b[", "w_qkv[", "b_qkv[", "w_o[", "b_o[", "ln2_g[", "ln2_b[",
             "w1[", "b1[", "w2[", "b2[")
    assert all(name in str(err.value) for name in names)


def test_mlp_shape_errors_name_every_operand():
    # the block's MLP operands, and its LayerNorms', each wrong in turn
    T.encoder_block(*_block_args(), 2)
    for name, shape in (("w1", (3, 8)), ("b1", (7,)), ("w2", (7, 4)), ("b2", (5,)),
                        ("w2", (8, 5)), ("w1", (8,)), ("ln1_g", (3,)), ("ln2_b", (4, 1))):
        _assert_block_refuses(_block_args(**{name: shape}))


def test_attention_shape_errors_name_every_operand():
    # x, w_qkv, b_qkv, w_o, b_o; each replaced in turn by a wrong shape
    d = 4
    for name, shape in (("x", (3, d)), ("w_qkv", (d, d)), ("b_qkv", (d,)), ("w_o", (d, 3 * d)),
                        ("b_o", (3 * d,)), ("x", (2, 3, 0))):
        _assert_block_refuses(_block_args(**{name: shape}))


@pytest.mark.parametrize("heads", [3, 0, 1.0, True])
def test_encoder_block_needs_a_head_count_that_divides_the_width(heads):
    with pytest.raises(DimensionError, match="encoder_block"):
        T.encoder_block(*_block_args(), heads)


@pytest.mark.parametrize("rows", [0, 4, -1, 2.0, True, "2"])
def test_encoder_block_needs_out_rows_from_1_to_the_sequence_length(rows):
    assert T.encoder_block(*_block_args(), 2, out_rows=np.int64(1)).shape == (2, 1, 4)
    with pytest.raises(DimensionError, match=r"out_rows must be an integer in \[1, 3\]"):
        T.encoder_block(*_block_args(), 2, out_rows=rows)


def _rows_with_ties_zeros_and_nans(t, rng):
    """[5, 3, t, t] scores whose rows hold ties, signed zeros, infinities and
    NaNs of both signs at every position among random values."""
    a = rng.normal(size=(5, 3, t, t))
    a[0, 0, :, :] = -1.0
    a[0, 0, np.arange(t), np.arange(t)] = 0.0
    a[0, 0, np.arange(t), (np.arange(t) + 1) % t] = -0.0
    a[0, 1] = -0.0
    a[0, 1, :, t // 2] = 0.0
    a[0, 2] = np.round(a[0, 2])  # ties
    a[1, 0, np.arange(t), np.arange(t)] = np.nan
    a[1, 0, np.arange(t), (np.arange(t) + 1) % t] = -np.nan
    a[1, 1, np.arange(t), np.arange(t)] = -np.nan
    a[2, 0, np.arange(t), np.arange(t)] = np.inf
    a[2, 1] = -np.inf
    a[2, 2, :, 0] = np.inf
    a[2, 2, :, -1] = -np.inf
    return a


@pytest.mark.parametrize("t", [1, 2, 3, 4, 10, 18, 66])
@pytest.mark.parametrize("method", ["column_loop", "reduction"])
def test_row_max_is_the_reduction_bit_for_bit(t, method, monkeypatch):
    rng = np.random.default_rng(t)
    monkeypatch.setattr(T, "_ROWS_PER_COLUMN", 0 if method == "column_loop" else 1 << 20)
    a = _rows_with_ties_zeros_and_nans(t, rng)
    for scores in (a, a[:, :, :1], a[3:], a[3:, :, :, ::-1].copy(), a[:, :, :0]):
        want = scores.max(axis=-1)
        got = T._row_max(scores)
        assert got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_row_max_takes_the_column_loop_where_the_rows_outnumber_the_columns():
    # the shapes the benchmark configs' blocks score; the full-width tile of
    # a 66-token sequence keeps the reduction
    short = [(32, 2, 18, 18), (32, 2, 4, 4), (32, 4, 10, 10), (64, 2, 18, 18)]
    for shape in short + [(2, 4, 66, 66), (1, 2, 18, 18)]:
        loop = np.prod(shape) > T._ROWS_PER_COLUMN * shape[-1] ** 2
        assert loop == (shape in short), shape


def test_grad_accumulates_across_backward_calls():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            out = T.tsum(T.mul(x, x))
        backward(out, tape)
    assert np.allclose(x.grad, 2 * (2 * x.data))


def test_diamond_graph_accumulates_once_per_path():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)        # x^2
        out = T.tsum(T.add(y, y))  # 2 x^2 -> d/dx = 4x
    backward(out, tape)
    assert np.allclose(x.grad, 4 * x.data)


def test_operations_outside_tape_are_untracked():
    x = Tensor(np.ones(3), requires_grad=True)
    out = T.tsum(x)
    assert out.requires_grad is False
    with Tape() as tape:
        pass
    with pytest.raises(ContractError):
        backward(out, tape)


def test_linear_shape_errors_name_both_operands():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)), Tensor(np.zeros(3)))


@pytest.mark.parametrize("bias", [3, 1])
def test_linear_rejects_a_bias_that_does_not_fit_the_weight(bias):
    # [1] broadcast in the forward and failed only in the backward
    with pytest.raises(DimensionError, match=rf"\(3, 4\) and \({bias},\)"):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(bias)))


def test_layer_norm_rejects_a_one_dimensional_input():
    with pytest.raises(DimensionError, match=r"layer_norm needs .* got \(3,\)"):
        T.layer_norm(Tensor(np.ones(3)), Tensor(np.ones(3)), Tensor(np.zeros(3)))


@pytest.mark.parametrize("dst, src", [(5, 0), (0, 3), (-1, 0), (1.5, 0)])
def test_sub_slot_rejects_a_slot_outside_axis_1(dst, src):
    with pytest.raises(DimensionError, match=r"sub_slot.*\(1, 3, 4\)"):
        T.sub_slot(Tensor(np.zeros((1, 3, 4))), dst, src)


@pytest.mark.parametrize("indices", [
    [[3]],          # past the end
    [[-1]],         # negative: wrapped to the last slot
    [[0.5]],        # not integers: truncated to slot 0
    [[1.7]],
    [[0], [1]],     # two rows of indices for one sample
    [0],            # one axis
])
def test_gather_tokens_rejects_indices_outside_axis_1(indices):
    with pytest.raises(DimensionError, match="gather_tokens needs"):
        T.gather_tokens(Tensor(np.zeros((1, 3, 4))), indices)


def test_reshape_to_another_size_is_a_dimension_error():
    with pytest.raises(DimensionError, match=r"cannot reshape \(3, 4\) to \(5,\)"):
        T.reshape(Tensor(np.zeros((3, 4))), (5,))
