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


def test_gelu_matches_erf_oracle():
    # independent direct evaluation of x * Phi(x) via scipy's erf
    from scipy.special import erf

    x = np.linspace(-4, 4, 33)
    expected = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    got = T.gelu(Tensor(x)).data
    assert np.allclose(got, expected, atol=1e-15)


def test_reductions_and_shapes():
    x = RNG.normal(size=(2, 3, 4))
    check_unary(T.tsum, x)
    check_unary(lambda t: T.tsum(t, axis=1), x)
    check_unary(lambda t: T.reshape(t, (6, 4)), x)
    check_unary(lambda t: T.transpose(t, (2, 0, 1)), x)
    check_unary(lambda t: T.broadcast_to(T.reshape(t, (2, 3, 4, 1)), (2, 3, 4, 5)), x)
    check_unary(lambda t: T.narrow(t, 1, 1, 2), x)


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
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
