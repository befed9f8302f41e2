"""Op-level gradient checks and tape/backward contract tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtst import tensor as T
from dtst.errors import ContractError, DimensionError
from dtst.tensor import Tape, Tensor, backward

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
    T._gelu_tile(without, t, t)  # `half` may be `t` without a slope
    assert with_slope.view(np.int64).tolist() == without.view(np.int64).tolist()


# with 32-element tiles, each case below spans three or more tiles, the last
# one shorter than the others
SMALL_TILE = 32


def _fused_cases():
    """(name, op, inputs, tile rows, row elements) for the kernels that run
    tile by tile; `op` maps the input Tensors to one output Tensor."""
    rng = np.random.default_rng(5)
    mlp_in = [rng.normal(size=s) for s in ((3, 7, 4), (4, 16), (16,), (16, 4), (4,))]
    cases = [("mlp", T.mlp, mlp_in, 21, 16)]
    for b, t, heads in ((11, 4, 1), (19, 2, 2)):
        x = rng.normal(size=(b, t, 8))
        w = [rng.normal(size=(8, 8)) * 0.5 for _ in range(4)]
        bias = [rng.normal(size=8) * 0.1 for _ in range(4)]
        att_in = [x, np.concatenate(w[:3], axis=1), np.concatenate(bias[:3]), w[3], bias[3]]

        def attention(*args, heads=heads):
            return T.attention(*args, heads)
        cases.append((f"attention[h={heads}]", attention, att_in, b, heads * t * t))
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
    # not where the rows leave a remainder of one
    name, op, inputs, rows, row_elems = case
    want = _run_fused(op, inputs, tracked)
    tile_sizes = range(1, -(-rows * row_elems // 4) + 1)  # up to one tile
    remainders = []
    for tile_elems in tile_sizes:
        monkeypatch.setattr(T, "_TILE_ELEMS", tile_elems)
        sizes = [s.stop - s.start for s in T._row_tiles(rows, row_elems)]
        remainders.append(sizes[0] > 1 and sizes[-1] == 1)
        got = _run_fused(op, inputs, tracked)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (name, tile_elems)
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
    x = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
    w1, w2 = (Tensor(RNG.normal(size=s), requires_grad=True) for s in ((4, 8), (8, 4)))
    b1, b2 = (Tensor(RNG.normal(size=n), requires_grad=True) for n in (8, 4))
    leaves = (x, w1, b1, w2, b2)
    with Tape() as tape:
        out = T.tsum(T.mlp(x, w1, b1, w2, b2))
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
            y = (T.mlp(x, w1, b1, w2, b2) if fused else
                 T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2))
            out = T.tsum(T.mul(y, y))
        entries.append(len(tape))
        backward(out, tape)
        grads.append([y.data] + [t.grad for t in (x, w1, b1, w2, b2)])
    for fused, composed in zip(*grads):
        assert np.array_equal(fused, composed)
    assert entries == [3, 5]
    untracked = T.mlp(Tensor(x.data), Tensor(w1.data), Tensor(b1.data),
                      Tensor(w2.data), Tensor(b2.data))
    assert not untracked.requires_grad
    assert np.array_equal(untracked.data, grads[0][0])


def test_mlp_shape_errors_name_every_operand():
    x, w1, b1 = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 8))), Tensor(np.zeros(8))
    w2, b2 = Tensor(np.zeros((8, 3))), Tensor(np.zeros(3))
    T.mlp(x, w1, b1, w2, b2)
    for bad in ((Tensor(np.zeros((2, 4))), w1, b1, w2, b2),
                (x, w1, Tensor(np.zeros(7)), w2, b2),
                (x, w1, b1, Tensor(np.zeros((7, 3))), b2),
                (x, w1, b1, w2, Tensor(np.zeros(4)))):
        with pytest.raises(DimensionError, match="mlp needs"):
            T.mlp(*bad)


def test_attention_shape_errors_name_every_operand():
    # x, w_qkv, b_qkv, w_o, b_o; each replaced in turn by a wrong shape
    d = 4
    args = [Tensor(np.zeros(s)) for s in ((2, 3, d), (d, 3 * d), (3 * d,), (d, d), (d,))]
    T.attention(*args, 2)
    for i, shape in enumerate(((3, d), (d, d), (d,), (d, 3 * d), (3 * d,))):
        bad = args[:i] + [Tensor(np.zeros(shape))] + args[i + 1:]
        with pytest.raises(DimensionError, match="attention needs") as err:
            T.attention(*bad, 2)
        shapes = ", ".join(str(t.shape) for t in bad)
        assert shapes in str(err.value)
        assert all(name in str(err.value) for name in ("x[", "w_qkv[", "b_qkv[", "w_o[", "b_o["))


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
