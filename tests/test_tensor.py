import math

import numpy as np
import pytest

from bvihead.errors import ContractError, NumericError, ShapeError, TapeError
from bvihead.tensor import Tensor, log_softmax, matmul, nll, sigmoid_array, softplus_and_exp

from helpers import assert_gradients_match


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(eye, a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_expansion():
    out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    assert_gradients_match(lambda ts: (ts[0] @ ts[1]).sum(), [a, b], rel=1e-6)


def test_add_identity():
    out = Tensor([1.0, 2.0]) + Tensor([0.0, 0.0])
    np.testing.assert_array_equal(out.data, [1.0, 2.0])


def test_mul_elementwise():
    out = Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])
    np.testing.assert_array_equal(out.data, [8.0, 15.0])


def test_elementwise_rejects_non_broadcastable():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2,\)"):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros(2))


def test_broadcast_add_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 3))
    bias = rng.normal(size=3)
    assert_gradients_match(lambda ts: (ts[0] + ts[1]).sum(), [x, bias], rel=1e-6)


def test_broadcast_mul_and_sub_gradients():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    row = rng.normal(size=(1, 3))
    assert_gradients_match(lambda ts: (ts[0] * ts[1]).sum(), [x, row], rel=1e-6)
    y = rng.normal(size=(4, 3))
    assert_gradients_match(lambda ts: ((ts[0] - ts[1]) * ts[1]).sum(), [x, y], rel=1e-6)


def test_relu_values_and_idempotence():
    out = Tensor([-1.0, 0.0, 2.0]).relu()
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=12))
    np.testing.assert_array_equal(x.relu().relu().data, x.relu().data)


def test_relu_gradient_mask_away_from_zero():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6,))
    x[np.abs(x) < 0.1] += 0.5
    assert_gradients_match(lambda ts: ts[0].relu().sum(), [x], rel=1e-6)
    t = Tensor(x)
    loss = t.relu().sum()
    loss.backward()
    np.testing.assert_array_equal(t.grad, (x > 0).astype(float))


def test_log_softmax_symmetry():
    out = log_softmax(Tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[math.log(0.5)] * 2], atol=1e-15)


def test_log_softmax_stability_limit():
    out = log_softmax(Tensor([[1000.0, 0.0]]))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [[0.0, -1000.0]], atol=1e-12)


def test_log_softmax_rows_normalize():
    rng = np.random.default_rng(5)
    out = log_softmax(Tensor(rng.normal(scale=4.0, size=(8, 6))))
    sums = np.exp(out.data).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_log_softmax_gradient():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5))
    weights = rng.normal(size=(3, 5))
    assert_gradients_match(
        lambda ts: (log_softmax(ts[0]) * Tensor(weights)).sum(), [x], rel=1e-6
    )


def test_nll_one_hot_logits_near_zero():
    logits = Tensor([[30.0, 0.0, 0.0]])
    loss = nll(log_softmax(logits), [0])
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_nll_uniform_four_classes():
    log_probs = log_softmax(Tensor([[0.0, 0.0, 0.0, 0.0]]))
    for label in range(4):
        loss = nll(log_probs_fresh := log_softmax(Tensor([[0.0] * 4])), [label])
        assert float(loss.data) == pytest.approx(math.log(4), rel=1e-12)
    assert float(nll(log_probs, [2]).data) == pytest.approx(1.3862943611198906)


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(4, 3))
    labels = [0, 2, 1, 1]
    assert_gradients_match(
        lambda ts: nll(log_softmax(ts[0]), labels), [logits], rel=1e-6
    )


def test_nll_label_out_of_range():
    lp = log_softmax(Tensor(np.zeros((2, 3))))
    with pytest.raises(IndexError, match="3"):
        nll(lp, [0, 3])


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_product_rule_scalars():
    x = Tensor(3.0)
    y = Tensor(5.0)
    (x * y).backward()
    np.testing.assert_array_equal(x.grad, 5.0)
    np.testing.assert_array_equal(y.grad, 3.0)


def test_backward_rejects_non_scalar_root():
    with pytest.raises(ContractError, match="scalar"):
        Tensor([1.0, 2.0]).backward()


def test_backward_twice_raises_tape_error():
    x = Tensor([1.0, 2.0])
    loss = x.sum()
    loss.backward()
    with pytest.raises(TapeError):
        loss.backward()


def test_backward_reuses_leaf_with_fresh_zeroed_grads():
    # Same leaf in two graphs: second pass must not accumulate into the first.
    x = Tensor([1.0, 2.0])
    x.sum().backward()
    first = x.grad.copy()
    (x * 3.0).sum().backward()
    np.testing.assert_array_equal(first, [1.0, 1.0])
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_shared_operand_accumulates_both_paths():
    x = Tensor([2.0])
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [4.0])


def test_softplus_saturation_and_gradient():
    x = Tensor([0.0, -20.0, 100.0])
    out = x.softplus()
    assert float(out.data[0]) == pytest.approx(math.log(2.0), rel=1e-12)
    assert float(out.data[1]) == pytest.approx(2.0611536181902037e-9, rel=1e-9)
    assert float(out.data[2]) == pytest.approx(100.0, abs=1e-12)
    rng = np.random.default_rng(8)
    assert_gradients_match(lambda ts: ts[0].softplus().sum(), [rng.normal(size=7)], rel=1e-6)


def test_softplus_equals_the_select_form_byte_for_byte():
    # x itself above 30 and log1p(exp(x)) elsewhere, whether or not any x is above 30
    rng = np.random.default_rng(10)
    below = np.concatenate([rng.uniform(-40, 30, 300), [-0.0, 0.0, 30.0, -745.5]])
    for x in (below, np.append(below, [np.nextafter(30.0, 31.0), 31.0, 1e300]),
              below[:300].reshape(20, 15), np.array([40.0]), np.zeros(0)):
        sp, e = softplus_and_exp(x)
        assert sp.tobytes() == np.where(x > 30.0, x, np.log1p(e)).tobytes()


def test_sigmoid_reusing_the_softplus_exp_is_bit_identical():
    # below 0 the softplus's exp(min(x, 30)) is the sigmoid's exp(-|x|)
    rng = np.random.default_rng(9)
    negative = np.concatenate([-np.logspace(-300, 3, 500), rng.uniform(-40, 0, 500)])
    negative = negative[negative < 0]
    mixed = np.concatenate([negative, [0.0, -0.0, 1e-3, 2.5, 30.0, 31.0, 800.0]])
    for x in (negative, mixed, negative.reshape(-1, 2)[:3], np.array([-745.5, -1e-320])):
        with_exp = sigmoid_array(x, softplus_and_exp(x)[1])
        assert with_exp.tobytes() == sigmoid_array(x).tobytes()


def test_log_gradient_and_domain():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.5, 3.0, size=6)
    assert_gradients_match(lambda ts: ts[0].log().sum(), [x], rel=1e-6)
    with pytest.raises(NumericError):
        with np.errstate(invalid="ignore"):
            Tensor([-1.0]).log()


def test_constructor_rejects_non_finite():
    with pytest.raises(NumericError):
        Tensor([np.nan])
    with pytest.raises(NumericError):
        Tensor([np.inf])


def test_ops_are_deterministic():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(4, 5))
    one = (Tensor(a) @ Tensor(b)).log_softmax().data
    two = (Tensor(a) @ Tensor(b)).log_softmax().data
    np.testing.assert_array_equal(one, two)


def test_composed_mlp_loss_gradient():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 3))
    w1 = rng.normal(size=(3, 5))
    b1 = rng.normal(size=5)
    w2 = rng.normal(size=(5, 2))
    b2 = rng.normal(size=2)
    labels = [0, 1, 0, 1]

    def loss(ts):
        h = ((Tensor(x) @ ts[0]) + ts[1]).relu()
        logits = (h @ ts[2]) + ts[3]
        return nll(log_softmax(logits), labels)

    assert_gradients_match(loss, [w1, b1, w2, b2], rel=1e-5)


def test_constant_operand_has_no_node_and_correct_gradient():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 4))
    c = rng.normal(size=(3, 4))
    t = Tensor(x)
    out = t * c
    assert out._parents == (t,)
    out.sum().backward()
    np.testing.assert_array_equal(t.grad, c)
    assert_gradients_match(lambda ts: ((ts[0] - c) * c + c).sum(), [x], rel=1e-6)


def test_constant_operand_of_wrong_shape_raises_shape_error():
    t = Tensor(np.zeros((2, 3)))
    for bad in (np.zeros(3), np.zeros((3, 2)), np.zeros((1, 3))):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*constant"):
            t * bad
        with pytest.raises(ShapeError):
            t + bad


def test_leaf_used_twice_accumulates_without_aliasing():
    x = Tensor([1.0, 2.0])
    y = x + x
    z = y * 3.0
    z.sum().backward()
    np.testing.assert_array_equal(x.grad, [6.0, 6.0])
    # the first path's contribution is y's grad itself; the second add must
    # not have written into it
    np.testing.assert_array_equal(y.grad, [3.0, 3.0])
    assert not np.shares_memory(x.grad, y.grad)
    # a later graph over the same leaf starts from a fresh grad
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    np.testing.assert_array_equal(y.grad, [3.0, 3.0])
