"""Tensor engine tests: closed-form cases, finite-difference checks, invariants.

Every differentiable op gets a randomized gradient check against central
finite differences; inputs are drawn away from kinks (relu zeros, abs zeros,
pooling ties) so the numerical derivative is meaningful.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2fseg import autodiff as ad
from c2fseg.autodiff import Tensor, Tape, BatchNormState
from c2fseg.errors import NumericsError
from c2fseg.optim import Adam

from oracles import finite_difference_gradient, relative_error


def grad_check(op, arrays, tol=1e-4, step=1e-5, seed=0):
    """Backprop a fixed random cotangent through ``op`` and compare against
    central differences on loss = sum(out * cot)."""
    rng = np.random.default_rng(seed)
    cot = None

    def forward(*arrs):
        nonlocal cot
        out = op(*[Tensor(a) for a in arrs])
        if cot is None:
            cot = rng.normal(size=out.shape)
        return float(np.sum(out.data * cot))

    with Tape() as tape:
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*tensors)
        forward(*arrays)  # fixes the cotangent
        loss = ad.reduce_sum(ad.mul(out, cot))
        tape.backward(loss)
    numeric = finite_difference_gradient(forward, arrays, step=step)
    for t, n in zip(tensors, numeric):
        assert t.grad is not None
        assert relative_error(t.grad, n) < tol
    return [t.grad for t in tensors]


def away_from(rng, shape, keepout, margin=0.08, scale=1.0):
    """Random values at least ``margin`` away from the scalar ``keepout``."""
    x = rng.normal(size=shape) * scale
    shift = np.where(x >= keepout, margin, -margin)
    return np.where(abs(x - keepout) < margin, keepout + shift, x)


# ---------------------------------------------------------------------------
# Pinned closed-form cases
# ---------------------------------------------------------------------------

def test_conv1d_hand_case():
    out = ad.conv1d(Tensor([[1.0, 2.0, 3.0]]), Tensor([[[1.0, 0.0, 1.0]]]),
                    Tensor([0.0]), pad=1)
    assert np.allclose(out.data, [[2.0, 4.0, 2.0]])


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 9))
    w = np.zeros((2, 2, 3))
    w[0, 0, 1] = 1.0
    w[1, 1, 1] = 1.0
    out = ad.conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(2)), pad=1)
    assert np.allclose(out.data, x)


def test_conv1d_rejects_even_kernel():
    with pytest.raises(ValueError):
        ad.conv1d(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 1, 4))),
                  Tensor(np.zeros(1)), pad=1)


def test_maxpool_hand_cases():
    out = ad.maxpool1d_ceil(Tensor([[1.0, 3.0, 2.0, 5.0]]), 2)
    assert np.allclose(out.data, [[3.0, 5.0]])
    x = np.arange(10.0).reshape(2, 5)
    assert np.allclose(ad.maxpool1d_ceil(Tensor(x), 1).data, x)
    out = ad.maxpool1d_ceil(Tensor(x), 2)
    assert out.shape == (2, 3)
    assert np.allclose(out.data[:, -1], x[:, 4])


def test_maxpool_tie_routes_to_first():
    with Tape() as tape:
        x = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        tape.backward(ad.reduce_sum(ad.maxpool1d_ceil(x, 3)))
    assert np.allclose(x.grad, [[1.0, 0.0, 0.0]])


def test_upsample_linear_hand_case():
    out = ad.upsample1d(Tensor([[0.0, 2.0]]), 4, mode="linear")
    assert np.allclose(out.data, [[0.0, 2.0 / 3.0, 4.0 / 3.0, 2.0]])


@pytest.mark.parametrize("mode", ["linear", "nearest"])
def test_upsample_same_length_identity(mode):
    x = np.random.default_rng(2).normal(size=(3, 11))
    out = ad.upsample1d(Tensor(x), 11, mode=mode)
    assert np.array_equal(out.data, x)


def test_upsample_nearest_constant():
    out = ad.upsample1d(Tensor([[7.0]]), 3, mode="nearest")
    assert np.allclose(out.data, [[7.0, 7.0, 7.0]])


def test_batchnorm_train_standardizes():
    state = BatchNormState(1)
    out = ad.batchnorm1d(Tensor([[1.0, 3.0]]), Tensor([1.0]), Tensor([0.0]),
                         state, train=True)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_batchnorm_constant_channel_zero():
    state = BatchNormState(1)
    out = ad.batchnorm1d(Tensor([[4.0, 4.0, 4.0]]), Tensor([1.0]), Tensor([0.0]),
                         state, train=True)
    assert np.allclose(out.data, 0.0)


def test_batchnorm_eval_uses_running_stats():
    state = BatchNormState(1)
    x = np.array([[1.0, 3.0, 5.0, 7.0]])
    ad.batchnorm1d(Tensor(x), Tensor([1.0]), Tensor([0.0]), state, train=True)
    assert np.allclose(state.running_mean, 0.9 * 0.0 + 0.1 * 4.0)
    assert np.allclose(state.running_var, 0.9 * 1.0 + 0.1 * 5.0)
    out = ad.batchnorm1d(Tensor([[0.4]]), Tensor([1.0]), Tensor([0.0]),
                         state, train=False)
    expect = (0.4 - state.running_mean) / np.sqrt(state.running_var + 1e-5)
    assert np.allclose(out.data, expect[:, None])


def test_relu_softmax_hand_cases():
    assert np.allclose(ad.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])
    assert np.allclose(ad.softmax(Tensor([0.0, 0.0]), axis=0).data, [0.5, 0.5])
    out = ad.softmax(Tensor([np.log(1.0), np.log(3.0)]), axis=0)
    assert np.allclose(out.data, [0.25, 0.75])


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6))
    a = ad.softmax(Tensor(x), axis=1).data
    b = ad.softmax(Tensor(x + 1000.0), axis=1).data
    assert np.allclose(a, b, atol=1e-12)


def test_cosine_hand_cases():
    assert np.isclose(ad.cosine_similarity(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).item(), 1.0)
    assert np.isclose(ad.cosine_similarity(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item(), 0.0)
    assert np.isclose(ad.cosine_similarity(Tensor([1.0, 1.0]), Tensor([1.0, 0.0])).item(),
                      1.0 / np.sqrt(2.0))


def test_cosine_rejects_zero_norm():
    with pytest.raises(NumericsError):
        ad.cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))


def test_backward_sum_gives_ones():
    with Tape() as tape:
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tape.backward(ad.reduce_sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape.backward(ad.reduce_sum(ad.mul(x, x)))
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_accumulates_across_calls():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.reduce_sum(ad.mul(x, x))
        tape.backward(loss)
        tape.backward(loss)
    assert np.allclose(x.grad, [4.0, 8.0])


def test_backward_writes_grad_on_leaves_only():
    with Tape() as tape:
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        w = Tensor([0.5, 0.5, -1.0], requires_grad=True)
        h = ad.mul(x, w)
        r = ad.relu(h)
        sq = ad.mul(r, r)
        total = ad.add(sq, x)
        loss = ad.reduce_sum(total)
        tape.backward(loss)
    assert len(tape) == 5
    # d/dx = 2 r w [h > 0] + 1 and d/dw = 2 r x [h > 0], with r = relu(x w)
    assert np.array_equal(x.grad, [1.5, 1.0, 1.0])
    assert np.array_equal(w.grad, [1.0, 0.0, 0.0])
    assert all(t.grad is None for t in (h, r, sq, total, loss))


def test_backward_gives_a_leaf_loss_without_requires_grad_no_grad():
    with Tape() as tape:
        loss = Tensor(3.0)
        tape.backward(loss)
    assert loss.grad is None


def test_nonfinite_gradient_names_its_op():
    with Tape() as tape:
        x = Tensor([0.0, 4.0], requires_grad=True)
        loss = ad.reduce_sum(ad.sqrt(x))
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericsError) as err:
                tape.backward(loss)
    assert str(err.value) == "non-finite values produced by backward of sqrt"
    assert x.grad is None


def test_backward_rejects_non_scalar():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, 2.0)
        with pytest.raises(ValueError):
            tape.backward(y)


def test_no_tape_no_recording():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, x)
    assert y.requires_grad
    with Tape() as tape:
        pass
    assert len(tape) == 0


def test_nested_tapes_record_on_the_innermost():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as outer:
        ad.mul(x, 2.0)
        with Tape() as inner:
            ad.mul(x, 3.0)
        ad.mul(x, 4.0)
        with pytest.raises(AssertionError):
            inner.__exit__(None, None, None)
    ad.mul(x, 5.0)
    assert (len(outer), len(inner)) == (2, 1)


def test_nonfinite_forward_raises():
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(NumericsError):
            ad.log(Tensor([-1.0]))
        with pytest.raises(NumericsError):
            ad.div(Tensor([1.0]), Tensor([0.0]))


def test_adam_zero_grad_unchanged():
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.grad = np.zeros(2)
    Adam([p], lr=0.1).step()
    assert np.allclose(p.data, [1.0, -2.0])


def test_adam_first_step_closed_form():
    # x^2 at x=1: g=2; mhat=g, vhat=g^2, step = lr*g/(|g|+eps) ~= lr
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([2.0])
    Adam([p], lr=0.1).step()
    assert np.isclose(p.data[0], 0.9, atol=1e-6)


def test_adam_decoupled_weight_decay():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([0.0])
    Adam([p], lr=0.1, weight_decay=0.5).step()
    assert np.isclose(p.data[0], 1.0 - 0.1 * 0.5 * 1.0)


def test_adam_skips_params_without_grad():
    p = Tensor([1.0], requires_grad=True)
    q = Tensor([2.0], requires_grad=True)
    p.grad = np.array([2.0])
    opt = Adam([p, q], lr=0.1)
    opt.step()
    assert np.isclose(q.data[0], 2.0)
    opt.zero_grad()
    assert p.grad is None


# ---------------------------------------------------------------------------
# Finite-difference gradient checks, one op at a time
# ---------------------------------------------------------------------------

BROADCAST_SHAPES = [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 1), (1, 4)),
                    ((2, 3, 4), (4,)), ((5,), ())]


@pytest.mark.parametrize("sa,sb", BROADCAST_SHAPES)
@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
def test_grad_arith_broadcast(op, sa, sb):
    rng = np.random.default_rng(10)
    grad_check(op, [rng.normal(size=sa), rng.normal(size=sb)])


@pytest.mark.parametrize("sa,sb", BROADCAST_SHAPES)
def test_grad_div(sa, sb):
    rng = np.random.default_rng(11)
    a = rng.normal(size=sa)
    b = rng.normal(size=sb)
    b = np.sign(b) * (0.5 + abs(b))
    grad_check(ad.div, [a, b])


@pytest.mark.parametrize("seed", range(3))
def test_grad_unary(seed):
    rng = np.random.default_rng(20 + seed)
    shape = (2, 5)
    grad_check(ad.exp, [rng.normal(size=shape)])
    grad_check(ad.log, [0.2 + abs(rng.normal(size=shape))])
    grad_check(ad.sqrt, [0.2 + abs(rng.normal(size=shape))])
    grad_check(ad.absolute, [away_from(rng, shape, 0.0)])
    grad_check(ad.relu, [away_from(rng, shape, 0.0)])
    grad_check(lambda t: ad.clamp_min(t, 0.3), [away_from(rng, shape, 0.3)])
    grad_check(lambda t: ad.clamp_max(t, 0.3), [away_from(rng, shape, 0.3)])


@pytest.mark.parametrize("axis,shape", [(0, (4, 7)), (1, (7, 4)), (1, (1, 5))])
def test_grad_softmax(axis, shape):
    rng = np.random.default_rng(30)
    grad_check(lambda t: ad.softmax(t, axis=axis), [rng.normal(size=shape)])


def test_grad_shape_ops():
    rng = np.random.default_rng(31)
    grad_check(lambda t: ad.reshape(t, (2, 6)), [rng.normal(size=(3, 4))])
    grad_check(ad.transpose2d, [rng.normal(size=(3, 4))])
    grad_check(lambda a, b: ad.concat([a, b], axis=0),
               [rng.normal(size=(2, 4)), rng.normal(size=(3, 4))])
    grad_check(lambda a, b: ad.concat([a, b], axis=1),
               [rng.normal(size=(3, 2)), rng.normal(size=(3, 5))])
    grad_check(lambda t: ad.slice_axis(t, 1, 2, 6), [rng.normal(size=(3, 8))])
    # repeated rows exercise gradient accumulation in the gather
    grad_check(lambda t: ad.take_rows(t, np.array([0, 2, 2, 1])),
               [rng.normal(size=(4, 5))])


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
def test_grad_reductions(axis, keepdims):
    rng = np.random.default_rng(32)
    x = rng.normal(size=(4, 6))
    grad_check(lambda t: ad.reduce_sum(t, axis=axis, keepdims=keepdims), [x])


@pytest.mark.parametrize("axis", [0, 1])
def test_grad_reduce_max(axis):
    rng = np.random.default_rng(33)
    # separate entries so the max is unambiguous under the FD step
    x = rng.permutation(24).astype(float).reshape(4, 6) * 0.37
    grad_check(lambda t: ad.reduce_max(t, axis=axis), [x])


def test_grad_matmul():
    rng = np.random.default_rng(34)
    grad_check(ad.matmul, [rng.normal(size=(2, 3)), rng.normal(size=(3, 4))])


def test_grad_cosine():
    rng = np.random.default_rng(35)
    a = rng.normal(size=6)
    b = rng.normal(size=6)
    grad_check(ad.cosine_similarity, [a + np.sign(a) * 0.2, b + np.sign(b) * 0.2])


@pytest.mark.parametrize("cin,cout,k,t", [(1, 1, 3, 5), (3, 4, 3, 7), (2, 3, 5, 9)])
def test_grad_conv1d(cin, cout, k, t):
    rng = np.random.default_rng(40)
    grad_check(lambda x, w, b: ad.conv1d(x, w, b, pad=(k - 1) // 2),
               [rng.normal(size=(cin, t)), rng.normal(size=(cout, cin, k)) * 0.5,
                rng.normal(size=cout)], tol=1e-5, step=1e-5)


@pytest.mark.parametrize("window,t", [(2, 6), (2, 7), (3, 8), (5, 5)])
def test_grad_maxpool(window, t):
    rng = np.random.default_rng(41)
    x = rng.permutation(3 * t).astype(float).reshape(3, t) * 0.61
    grad_check(lambda v: ad.maxpool1d_ceil(v, window), [x])


@pytest.mark.parametrize("mode", ["linear", "nearest"])
@pytest.mark.parametrize("t,target", [(4, 9), (7, 7), (6, 3), (1, 4)])
def test_grad_upsample(mode, t, target):
    rng = np.random.default_rng(42)
    grad_check(lambda v: ad.upsample1d(v, target, mode=mode),
               [rng.normal(size=(2, t))])


def test_grad_batchnorm_train():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(3, 6))
    gamma = 1.0 + 0.1 * rng.normal(size=3)
    beta = rng.normal(size=3)

    def op(xv, gv, bv):
        return ad.batchnorm1d(xv, gv, bv, BatchNormState(3), train=True)

    grad_check(op, [x, gamma, beta])


def test_grad_batchnorm_eval():
    rng = np.random.default_rng(44)
    state = BatchNormState(3)
    state.running_mean = rng.normal(size=3)
    state.running_var = 0.5 + abs(rng.normal(size=3))

    def op(xv, gv, bv):
        return ad.batchnorm1d(xv, gv, bv, state, train=False)

    grad_check(op, [rng.normal(size=(3, 6)), 1.0 + 0.1 * rng.normal(size=3),
                    rng.normal(size=3)])


def test_grad_composed_ce_graph():
    """conv -> relu -> softmax -> cross-entropy, against finite differences."""
    rng = np.random.default_rng(50)
    x0 = rng.normal(size=(3, 8))
    w0 = rng.normal(size=(4, 3, 3)) * 0.5
    b0 = rng.normal(size=4)
    y = rng.integers(4, size=8)
    onehot = np.eye(4)[y].T

    def run(xa, wa, ba):
        with Tape() as tape:
            x = Tensor(xa, requires_grad=True)
            w = Tensor(wa, requires_grad=True)
            b = Tensor(ba, requires_grad=True)
            p = ad.softmax(ad.relu(ad.conv1d(x, w, b, pad=1)), axis=0)
            per_frame = ad.reduce_sum(ad.mul(ad.log(ad.clamp_min(p, 1e-12)), onehot), axis=0)
            loss = ad.mul(ad.mul(ad.reduce_sum(per_frame), 1.0 / per_frame.shape[0]), -1.0)
            tape.backward(loss)
            return loss, (x, w, b)

    _, tensors = run(x0, w0, b0)
    numeric = finite_difference_gradient(
        lambda *arrs: float(run(*arrs)[0].data), [x0, w0, b0])
    for t, n in zip(tensors, numeric):
        assert relative_error(t.grad, n) < 1e-4


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

@given(st.integers(1, 64), st.integers(1, 8))
@settings(max_examples=120, deadline=None)
def test_pool_length_is_ceil(t, window):
    x = np.zeros((2, t))
    out = ad.maxpool1d_ceil(Tensor(x), window)
    assert out.shape == (2, -(-t // window))


@given(st.integers(1, 12), st.integers(1, 24), st.integers(2, 5),
       st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_upsample_linear_keeps_columns_stochastic(t, target, c, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(c, t))
    p = np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True)
    out = ad.upsample1d(Tensor(p), target, mode="linear")
    assert np.all(out.data >= -1e-12)
    assert np.allclose(out.data.sum(axis=0), 1.0, atol=1e-9)


@given(st.integers(2, 6), st.integers(2, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_softmax_rows_sum_to_one(c, t, seed):
    rng = np.random.default_rng(seed)
    out = ad.softmax(Tensor(rng.normal(size=(t, c)) * 10.0), axis=1)
    assert np.all(out.data >= 0.0)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


def test_fixed_seed_bitwise_determinism():
    def run():
        rng = np.random.default_rng(99)
        with Tape() as tape:
            x = Tensor(rng.normal(size=(3, 10)), requires_grad=True)
            w = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
            h = ad.conv1d(x, w, Tensor(np.zeros(2)), pad=1)
            p = ad.softmax(h, axis=0)
            loss = ad.mul(ad.reduce_sum(ad.mul(p, p)), 1.0 / p.data.size)
            tape.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
