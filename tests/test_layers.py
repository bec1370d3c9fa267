import itertools
import math
import threading
import time
import warnings

import numpy as np
import pytest

from bvihead import layers
from bvihead.dist import DiagonalGaussian
from bvihead.errors import ConfigError, ContractError, NumericError, ShapeError
from bvihead.layers import (
    FLIPOUT,
    MC_INFERENCE,
    REPARAM,
    TRAIN,
    DenseDeterministic,
    DenseVariational,
    DropoutSpec,
    NoiseDraw,
    dense_forward,
    draw_layer_noise,
    dropout_forward,
    in_row_halves,
    uniform_rows,
    variational_forward_flipout,
    variational_forward_reparam,
)
from bvihead.tensor import Tensor

from helpers import assert_gradients_match, zero_layer_noise


def make_variational(d_in, d_out, estimator, seed=0, rho=-1.0):
    rng = np.random.default_rng(seed)
    return DenseVariational(
        weight_post=DiagonalGaussian(
            Tensor(rng.normal(size=(d_in, d_out))),
            Tensor(np.full((d_in, d_out), rho)),
        ),
        bias_post=DiagonalGaussian(
            Tensor(rng.normal(size=d_out)), Tensor(np.full(d_out, rho))
        ),
        estimator=estimator,
    )


def mean_weight_output(layer, x):
    return x @ layer.weight_post.mu.data + layer.bias_post.mu.data


# ---- deterministic dense ---------------------------------------------------


def test_dense_identity():
    layer = DenseDeterministic(Tensor(np.eye(3)), Tensor(np.zeros(3)))
    x = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(dense_forward(layer, Tensor(x)).data, x)


def test_dense_hand_case():
    layer = DenseDeterministic(Tensor([[1.0], [1.0]]), Tensor([1.0]))
    out = dense_forward(layer, Tensor([[1.0, 1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0]])


def test_dense_gradient():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=2)

    def loss(ts):
        layer = DenseDeterministic(ts[0], ts[1])
        return dense_forward(layer, Tensor(x)).sum()

    assert_gradients_match(loss, [w, b], rel=1e-6)


def test_dense_shape_mismatch():
    layer = DenseDeterministic(Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        dense_forward(layer, Tensor(np.zeros((2, 4))))


# ---- reparam estimator -----------------------------------------------------


def test_reparam_zero_noise_collapses_to_means():
    layer = make_variational(3, 2, REPARAM, seed=1)
    x = np.random.default_rng(2).normal(size=(4, 3))
    out, _ = variational_forward_reparam(layer, Tensor(x), zero_layer_noise(layer, 4))
    np.testing.assert_allclose(out.data, mean_weight_output(layer, x), rtol=1e-12)


def test_reparam_tiny_std_limit():
    layer = make_variational(3, 2, REPARAM, seed=3, rho=-30.0)
    x = np.random.default_rng(4).normal(size=(2, 3))
    rng = np.random.default_rng(5)
    outs = []
    for _ in range(20):
        noise = draw_layer_noise(layer, 2, rng)
        out, _ = variational_forward_reparam(layer, Tensor(x), noise)
        outs.append(out.data)
    spread = np.stack(outs).std(axis=0)
    assert spread.max() < 1e-10


def test_reparam_mean_over_draws_is_unbiased():
    layer = make_variational(3, 2, REPARAM, seed=6)
    x = np.random.default_rng(7).normal(size=(4, 3))
    rng = np.random.default_rng(8)
    n = 20000
    acc = np.zeros((n, 4, 2))
    for t in range(n):
        noise = draw_layer_noise(layer, 4, rng)
        out, _ = variational_forward_reparam(layer, Tensor(x), noise)
        acc[t] = out.data
    se = acc.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(acc.mean(axis=0) - mean_weight_output(layer, x)) < 4 * se)


def test_reparam_estimator_mismatch():
    layer = make_variational(3, 2, FLIPOUT, seed=9)
    with pytest.raises(ContractError):
        variational_forward_reparam(
            layer, Tensor(np.zeros((1, 3))), zero_layer_noise(layer, 1)
        )


def test_reparam_gradient_through_posterior():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 2))
    mu = rng.normal(size=(2, 2))
    rho = rng.uniform(-1.5, 0.5, size=(2, 2))
    bmu = rng.normal(size=2)
    brho = rng.uniform(-1.5, 0.5, size=2)
    noise = NoiseDraw(rng.standard_normal((2, 2)), rng.standard_normal(2))

    def loss(ts):
        layer = DenseVariational(
            DiagonalGaussian(ts[0], ts[1]),
            DiagonalGaussian(ts[2], ts[3]),
            estimator=REPARAM,
        )
        out, kl = variational_forward_reparam(layer, Tensor(x), noise)
        return out.sum() + kl * 0.1

    assert_gradients_match(loss, [mu, rho, bmu, brho], rel=1e-6)


# ---- flipout estimator -----------------------------------------------------


def test_flipout_zero_perturbation_ignores_signs():
    layer = make_variational(3, 2, FLIPOUT, seed=11)
    x = np.random.default_rng(12).normal(size=(4, 3))
    rng = np.random.default_rng(13)
    signs_in = rng.integers(0, 2, size=(4, 3)) * 2.0 - 1.0
    signs_out = rng.integers(0, 2, size=(4, 2)) * 2.0 - 1.0
    noise = NoiseDraw(np.zeros((3, 2)), np.zeros(2), signs_in, signs_out)
    out, _ = variational_forward_flipout(layer, Tensor(x), noise)
    np.testing.assert_allclose(out.data, mean_weight_output(layer, x), rtol=1e-12)


def test_flipout_sign_enumeration_is_exactly_unbiased():
    # Averaging over all sign assignments must recover the mean forward.
    layer = make_variational(2, 1, FLIPOUT, seed=14)
    x = np.array([[0.7, -1.3]])
    eps_w = np.random.default_rng(15).standard_normal((2, 1))
    outs = []
    for si in itertools.product([-1.0, 1.0], repeat=2):
        for so in [-1.0, 1.0]:
            noise = NoiseDraw(
                eps_w, np.zeros(1), np.array([si]), np.array([[so]])
            )
            out, _ = variational_forward_flipout(layer, Tensor(x), noise)
            outs.append(out.data)
    np.testing.assert_allclose(
        np.mean(outs, axis=0), mean_weight_output(layer, x), rtol=1e-12
    )


def test_flipout_single_example_matches_reparam_moments():
    flip = make_variational(3, 2, FLIPOUT, seed=16, rho=-0.5)
    rep = DenseVariational(
        flip.weight_post, flip.bias_post, estimator=REPARAM
    )
    x = np.random.default_rng(17).normal(size=(1, 3))
    rng = np.random.default_rng(18)
    n = 30000
    flip_draws = np.empty((n, 2))
    rep_draws = np.empty((n, 2))
    for t in range(n):
        fn = draw_layer_noise(flip, 1, rng)
        out_f, _ = variational_forward_flipout(flip, Tensor(x), fn)
        flip_draws[t] = out_f.data[0]
        rn = draw_layer_noise(rep, 1, rng)
        out_r, _ = variational_forward_reparam(rep, Tensor(x), rn)
        rep_draws[t] = out_r.data[0]
    mean_se = np.sqrt(
        flip_draws.var(axis=0, ddof=1) / n + rep_draws.var(axis=0, ddof=1) / n
    )
    assert np.all(
        np.abs(flip_draws.mean(axis=0) - rep_draws.mean(axis=0)) < 4 * mean_se
    )
    # std of a Gaussian-ish sample: se(sigma) ~ sigma / sqrt(2n)
    sf = flip_draws.std(axis=0, ddof=1)
    sr = rep_draws.std(axis=0, ddof=1)
    std_se = np.sqrt(sf**2 / (2 * n) + sr**2 / (2 * n))
    assert np.all(np.abs(sf - sr) < 4 * std_se)


def test_flipout_per_example_mean_is_unbiased():
    layer = make_variational(3, 2, FLIPOUT, seed=19)
    x = np.random.default_rng(20).normal(size=(4, 3))
    rng = np.random.default_rng(21)
    n = 20000
    acc = np.empty((n, 4, 2))
    for t in range(n):
        noise = draw_layer_noise(layer, 4, rng)
        out, _ = variational_forward_flipout(layer, Tensor(x), noise)
        acc[t] = out.data
    se = acc.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(acc.mean(axis=0) - mean_weight_output(layer, x)) < 4 * se)


def test_flipout_kl_matches_reparam_kl_and_ignores_noise():
    layer = make_variational(4, 3, FLIPOUT, seed=22)
    x = Tensor(np.random.default_rng(23).normal(size=(2, 4)))
    rng = np.random.default_rng(24)
    _, kl_one = variational_forward_flipout(layer, x, draw_layer_noise(layer, 2, rng))
    _, kl_two = variational_forward_flipout(layer, x, draw_layer_noise(layer, 2, rng))
    assert float(kl_one.data) == float(kl_two.data)


def test_flipout_decorrelates_identical_rows():
    layer = make_variational(3, 2, FLIPOUT, seed=25)
    row = np.random.default_rng(26).normal(size=3)
    x = np.stack([row, row])
    eps_w = np.random.default_rng(27).standard_normal((3, 2))
    noise = NoiseDraw(
        eps_w,
        np.zeros(2),
        np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
    )
    out, _ = variational_forward_flipout(layer, Tensor(x), noise)
    assert not np.allclose(out.data[0], out.data[1])


def test_flipout_gradient_through_posterior():
    rng = np.random.default_rng(28)
    x = rng.normal(size=(3, 2))
    mu = rng.normal(size=(2, 2))
    rho = rng.uniform(-1.5, 0.5, size=(2, 2))
    bmu = rng.normal(size=2)
    brho = rng.uniform(-1.5, 0.5, size=2)
    signs_in = rng.integers(0, 2, size=(3, 2)) * 2.0 - 1.0
    signs_out = rng.integers(0, 2, size=(3, 2)) * 2.0 - 1.0
    noise = NoiseDraw(
        rng.standard_normal((2, 2)), rng.standard_normal(2), signs_in, signs_out
    )

    def loss(ts):
        layer = DenseVariational(
            DiagonalGaussian(ts[0], ts[1]),
            DiagonalGaussian(ts[2], ts[3]),
            estimator=FLIPOUT,
        )
        out, kl = variational_forward_flipout(layer, Tensor(x), noise)
        return out.sum() + kl * 0.1

    assert_gradients_match(loss, [mu, rho, bmu, brho], rel=1e-6)


def test_flipout_node_equals_op_by_op_graph_bit_for_bit():
    # oracle: the same affine map built from one graph node per operation
    from bvihead.dist import kl_to_prior, sample

    layer = make_variational(4, 3, FLIPOUT, seed=30, rho=-0.7)
    wp, bp = layer.weight_post, layer.bias_post
    rng = np.random.default_rng(31)
    x_arr = rng.normal(size=(5, 4))
    noise = draw_layer_noise(layer, 5, rng)
    upstream = rng.normal(size=(5, 3))

    def run(fused):
        for t in (wp.mu, wp.rho, bp.mu, bp.rho):
            t.grad = None
        x = Tensor(x_arr)
        if fused:
            out, kl = variational_forward_flipout(layer, x, noise)
        else:
            w_std, b_std = wp.rho.softplus(), bp.rho.softplus()
            b = sample(bp, noise.bias_eps, b_std)
            kl = kl_to_prior(wp, layers.PRIOR, w_std) + kl_to_prior(bp, layers.PRIOR, b_std)
            delta = w_std * noise.weight_eps
            out = ((x @ wp.mu) + (((x * noise.sign_in) @ delta) * noise.sign_out)) + b
        ((out * upstream).sum() + kl).backward()
        return [out.data, x.grad] + [t.grad for t in (wp.mu, wp.rho, bp.mu, bp.rho)]

    for got, want in zip(run(True), run(False)):
        np.testing.assert_array_equal(got, want)


# ---- fused training nodes against one node per operation -------------------

FUSED = {
    "dense": dense_forward,
    REPARAM: variational_forward_reparam,
    FLIPOUT: variational_forward_flipout,
}
# the loss each case backpropagates; "rho" is "both" with rho at 0, above
# 0 and above the softplus cut-off of 30
LOSSES = ("both", "output", "kl", "elbo-kl0", "rho")


def fused_case_layer(kind, rng, rho_case):
    if kind == "dense":
        return DenseDeterministic(Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=3)))
    layer = make_variational(4, 3, kind, seed=int(rng.integers(100)), rho=-0.7)
    if rho_case:
        layer.weight_post.rho.data[:] = [[0.0, 0.0, 2.5], [31.0, 45.0, -0.7],
                                         [0.3, 30.0, 30.5], [-1e-3, 1e-3, 0.0]]
        layer.bias_post.rho.data[:] = [0.0, 33.0, 1.5]
    return layer


def op_level_forward(layer, x, noise=None):
    """The same training forward composed from one graph node per operation."""
    from bvihead.dist import kl_to_prior, sample

    if isinstance(layer, DenseDeterministic):
        return (x @ layer.weight) + layer.bias, Tensor(0.0)
    wp, bp = layer.weight_post, layer.bias_post
    w_std, b_std = wp.rho.softplus(), bp.rho.softplus()
    b = sample(bp, noise.bias_eps, b_std)
    kl = kl_to_prior(wp, layers.PRIOR, w_std) + kl_to_prior(bp, layers.PRIOR, b_std)
    if layer.estimator == REPARAM:
        return (x @ sample(wp, noise.weight_eps, w_std)) + b, kl
    delta = w_std * noise.weight_eps
    return ((x @ wp.mu) + (((x * noise.sign_in) @ delta) * noise.sign_out)) + b, kl


def assert_same_bits(got, want):
    if want is None:
        assert got is None
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "kind,loss_case",
    [("dense", "output"), ("dense", "elbo-kl0")]
    + [(kind, case) for kind in (REPARAM, FLIPOUT) for case in LOSSES],
)
def test_fused_node_equals_op_level_composition_bit_for_bit(kind, loss_case):
    from bvihead.train import elbo_loss

    rng = np.random.default_rng(40)
    layer = fused_case_layer(kind, rng, loss_case == "rho")
    leaves = (
        [layer.weight, layer.bias] if kind == "dense"
        else [layer.weight_post.mu, layer.weight_post.rho, layer.bias_post.mu, layer.bias_post.rho]
    )
    x_arr = rng.normal(size=(5, 4))
    noise = None if kind == "dense" else draw_layer_noise(layer, 5, rng)
    upstream = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)

    def run(how):
        for t in leaves:
            t.grad = None
        x = Tensor(x_arr)
        args = (layer, x) if kind == "dense" else (layer, x, noise)
        if how == "op-level":
            out, kl = op_level_forward(*args)
        else:
            res = FUSED[kind](*args)
            out, kl = (res, Tensor(0.0)) if kind == "dense" else res
        if loss_case == "output":
            loss = (out * upstream).sum()
        elif loss_case == "kl":
            loss = kl
        elif loss_case == "elbo-kl0":
            loss = elbo_loss(out.log_softmax(), labels, kl, 0.0)
        else:
            loss = (out * upstream).sum() + kl
        loss.backward()
        return [out.data, kl.data, x.grad] + [t.grad for t in leaves], out.grad, kl.grad

    want, _, _ = run("op-level")
    got, g, gk = run("fused")
    for value, expected in zip(got, want, strict=True):
        assert_same_bits(value, expected)
    # the array form a training step runs: from the node's upstream
    # gradients, the same bytes, and no gradient of the batch
    array_args = (layer, x_arr) if kind == "dense" else (layer, x_arr, noise)
    res = FUSED[kind](*array_args)
    backward = res[-1]
    grads = [np.empty_like(t.data) for t in leaves]
    assert backward(g, gk, grads, False) is None
    assert_same_bits(res[0], want[0])
    if kind != "dense":
        assert_same_bits(res[1], want[1])
    for value, expected in zip(grads, want[3:], strict=True):
        assert_same_bits(value, expected)


@pytest.mark.parametrize("kind", list(FUSED))
def test_fused_node_gradients_match_finite_differences(kind):
    # every leaf, the input included, with the KL weighted into the loss
    rng = np.random.default_rng(41)
    x = rng.normal(size=(3, 4))
    proj = Tensor(rng.normal(size=(3, 2)))
    if kind == "dense":
        arrays = [x, rng.normal(size=(4, 2)), rng.normal(size=2)]

        def loss(ts):
            return (dense_forward(DenseDeterministic(ts[1], ts[2]), ts[0]) * proj).sum()
    else:
        arrays = [x, rng.normal(size=(4, 2)), rng.uniform(-2, 0.5, size=(4, 2)),
                  rng.normal(size=2), rng.uniform(-2, 0.5, size=2)]
        noise = NoiseDraw(rng.standard_normal((4, 2)), rng.standard_normal(2),
                          rng.integers(0, 2, size=(3, 4)) * 2.0 - 1.0,
                          rng.integers(0, 2, size=(3, 2)) * 2.0 - 1.0)

        def loss(ts):
            layer = DenseVariational(
                DiagonalGaussian(ts[1], ts[2]), DiagonalGaussian(ts[3], ts[4]), estimator=kind
            )
            out, kl = FUSED[kind](layer, ts[0], noise)
            return (out * proj).sum() + kl * 0.1

    assert_gradients_match(loss, arrays, rel=1e-6)


def test_flipout_training_forward_is_one_node_over_its_inputs():
    layer = make_variational(3, 2, FLIPOUT, seed=32)
    x = Tensor(np.random.default_rng(33).normal(size=(4, 3)))
    noise = draw_layer_noise(layer, 4, np.random.default_rng(34))
    out, kl = variational_forward_flipout(layer, x, noise)
    wp, bp = layer.weight_post, layer.bias_post
    leaves = [wp.mu, wp.rho, bp.mu, bp.rho]
    assert all(a is b for a, b in zip(out._parents, [x] + leaves, strict=True))
    assert len(kl._parents) == 1 and kl._parents[0] is out
    # an array batch records no node: the output comes with its backward
    out, kl, backward = variational_forward_flipout(layer, x.data, noise)
    assert type(out) is np.ndarray and callable(backward)


def test_flipout_estimator_mismatch():
    layer = make_variational(3, 2, REPARAM, seed=29)
    with pytest.raises(ContractError):
        variational_forward_flipout(
            layer, Tensor(np.zeros((1, 3))), zero_layer_noise(layer, 1)
        )


def test_flipout_array_form_equals_the_expression_bit_for_bit():
    layer = make_variational(5, 4, FLIPOUT, seed=35, rho=-0.7)
    rng = np.random.default_rng(36)
    x = rng.normal(size=(9, 5))
    noise = draw_layer_noise(layer, 9, rng)
    wp, bp = layer.weight_post, layer.bias_post
    delta = np.log1p(np.exp(wp.rho.data)) * noise.weight_eps
    b = bp.mu.data + np.log1p(np.exp(bp.rho.data)) * noise.bias_eps
    want = ((x @ wp.mu.data) + (((x * noise.sign_in) @ delta) * noise.sign_out)) + b
    out, _, _ = variational_forward_flipout(layer, x, noise)
    np.testing.assert_array_equal(out, want)


@pytest.mark.parametrize("estimator", [REPARAM, FLIPOUT])
def test_inference_form_is_one_sampled_weight_for_either_estimator(estimator):
    layer = make_variational(5, 4, estimator, seed=35, rho=-0.7)
    rng = np.random.default_rng(36)
    x = rng.normal(size=(9, 5))
    noise = draw_layer_noise(layer, 9, rng, MC_INFERENCE)
    assert noise.sign_in is None and noise.sign_out is None
    wp, bp = layer.weight_post, layer.bias_post
    w = wp.mu.data + np.log1p(np.exp(wp.rho.data)) * noise.weight_eps
    want = (x @ w) + (bp.mu.data + np.log1p(np.exp(bp.rho.data)) * noise.bias_eps)
    memo = {}
    for kept in (None, memo, memo):
        out, _, _ = variational_forward_reparam(layer, x, noise, kept)
        np.testing.assert_array_equal(out, want)
    # the graph form keeps its estimator check
    if estimator == FLIPOUT:
        with pytest.raises(ContractError):
            variational_forward_reparam(layer, Tensor(x), noise)


def test_shared_weight_draw_has_the_flipout_law_per_example():
    # each example's Flipout perturbation dW * (r s^T) has the law of dW, so
    # one weight draw shared by the batch leaves each example's output law
    # as it is: mean and variance over 2e4 draws agree within 4 SE
    layer = make_variational(3, 2, FLIPOUT, seed=50, rho=-0.5)
    x = np.random.default_rng(51).normal(size=(4, 3))
    rng = np.random.default_rng(52)
    n = 20000
    shared, flip = np.empty((n, 4, 2)), np.empty((n, 4, 2))
    memo = {}  # the posterior's std, as mc_predict keeps it across passes
    for t in range(n):
        shared[t] = variational_forward_reparam(
            layer, x, draw_layer_noise(layer, 4, rng, MC_INFERENCE), memo
        )[0]
        flip[t] = variational_forward_flipout(layer, x, draw_layer_noise(layer, 4, rng))[0]
    for stat in (lambda a: a, lambda a: (a - a.mean(axis=0)) ** 2):
        a, b = stat(shared), stat(flip)
        se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / n)
        assert (np.abs(a.mean(axis=0) - b.mean(axis=0)) < 4 * se).all()


def test_dense_inference_writes_into_out_and_rejects_non_finite():
    layer = DenseDeterministic(Tensor(np.arange(6.0).reshape(3, 2)), Tensor([0.5, -1.0]))
    x = np.random.default_rng(37).normal(size=(4, 3))
    buf = np.empty((4, 2))
    out, backward = dense_forward(layer, x, out=buf)
    assert out is buf and callable(backward)
    np.testing.assert_array_equal(buf, (x @ layer.weight.data) + layer.bias.data)
    x[2, 1] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        dense_forward(layer, x)


# ---- Flipout signs -----------------------------------------------------------


def next_draws(rng):
    """What a generator yields next, to compare two generators' states
    (the state dicts can differ in a stale spare half that is never read)."""
    return rng.standard_normal(3), rng.integers(0, 2, size=5), rng.random(2), rng.integers(9)


def assert_draw_is_the_integer_stream(layer, m, ours, ref, phase=TRAIN):
    """draw_layer_noise on `ours` equals the separate draws on `ref`: two
    normal arrays, then, for Flipout in TRAIN, one integers call per sign."""
    d_in, d_out = layer.weight_post.shape
    got = draw_layer_noise(layer, m, ours, phase)
    np.testing.assert_array_equal(got.weight_eps, ref.standard_normal((d_in, d_out)))
    np.testing.assert_array_equal(got.bias_eps, ref.standard_normal(d_out))
    if layer.estimator == FLIPOUT and phase == TRAIN:
        assert got.sign_in.dtype == got.sign_out.dtype == np.float64
        for sign, d in ((got.sign_in, d_in), (got.sign_out, d_out)):
            want = ref.integers(0, 2, size=(m, d)).astype(np.float64) * 2.0 - 1.0
            np.testing.assert_array_equal(sign, want)
    else:
        assert got.sign_in is None and got.sign_out is None


def assert_same_next_draws(ours, ref):
    for a, b in zip(next_draws(ours), next_draws(ref)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("lead", [0, 1, 2])
@pytest.mark.parametrize("m", [0, 1, 4, 9])
def test_flipout_noise_draw_is_the_integer_sign_stream(lead, m):
    layer = make_variational(5, 3, FLIPOUT, seed=43)
    ours, ref = np.random.default_rng(44), np.random.default_rng(44)
    for rng in (ours, ref):
        rng.integers(0, 2, size=lead)  # an odd lead leaves a spare 32-bit half
    assert ours.bit_generator.state["has_uint32"] == lead % 2
    assert_draw_is_the_integer_stream(layer, m, ours, ref)
    assert_same_next_draws(ours, ref)


@pytest.mark.parametrize("shape", [(1, 1), (2, 7), (8, 1), (33, 64)])
def test_flipout_noise_draw_is_the_integer_sign_stream_at_any_layer_shape(shape):
    # m * (d_in + d_out) odd and even, so the joined draw ends on either half
    layer = make_variational(*shape, FLIPOUT, seed=45)
    for m in (1, 3):
        ours, ref = np.random.default_rng(46), np.random.default_rng(46)
        assert_draw_is_the_integer_stream(layer, m, ours, ref)
        assert_same_next_draws(ours, ref)


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM]
)
def test_flipout_noise_draw_is_the_integer_sign_stream_on_other_bit_generators(bit_generator):
    layer = make_variational(4, 3, FLIPOUT, seed=47)
    for lead in (0, 1):
        ours, ref = (np.random.Generator(bit_generator(48)) for _ in range(2))
        for rng in (ours, ref):
            rng.integers(0, 2, size=lead)
        assert_draw_is_the_integer_stream(layer, 5, ours, ref)
        assert_same_next_draws(ours, ref)


def test_flipout_noise_draws_in_sequence_with_normal_draws_between():
    # a training step's draws: one per layer, other consumers of rng between
    layers = [make_variational(d_in, d_out, FLIPOUT, seed=49 + i)
              for i, (d_in, d_out) in enumerate([(3, 5), (5, 1), (1, 4), (4, 4)])]
    ours, ref = np.random.default_rng(50), np.random.default_rng(50)
    for m in (3, 0, 5, 1):
        for layer in layers:
            assert_draw_is_the_integer_stream(layer, m, ours, ref)
            np.testing.assert_array_equal(ours.standard_normal(m), ref.standard_normal(m))
    assert_same_next_draws(ours, ref)


@pytest.mark.parametrize(
    "estimator, phase", [(REPARAM, TRAIN), (REPARAM, MC_INFERENCE), (FLIPOUT, MC_INFERENCE)]
)
def test_noise_draw_without_signs_takes_only_the_normal_draws(estimator, phase):
    layer = make_variational(5, 3, estimator, seed=51)
    ours, ref = np.random.default_rng(52), np.random.default_rng(52)
    ours.integers(0, 2, size=1)
    ref.integers(0, 2, size=1)
    assert_draw_is_the_integer_stream(layer, 4, ours, ref, phase)
    assert_same_next_draws(ours, ref)


@pytest.mark.parametrize("estimator", [REPARAM, FLIPOUT])
def test_noise_draw_rejects_an_unknown_phase_before_drawing(estimator):
    rng = np.random.default_rng(53)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="unknown phase 'trian'"):
        draw_layer_noise(make_variational(5, 3, estimator), 4, rng, "trian")
    assert rng.bit_generator.state == state


def test_zero_flipout_noise_has_float64_signs():
    noise = zero_layer_noise(make_variational(3, 2, FLIPOUT), 4)
    assert noise.sign_in.dtype == noise.sign_out.dtype == np.float64
    assert (noise.sign_in == 1).all() and noise.sign_out.shape == (4, 2)


# ---- dropout ---------------------------------------------------------------


def test_dropout_rate_zero_is_identity_in_all_phases():
    spec = DropoutSpec(0.0)
    x = Tensor(np.random.default_rng(30).normal(size=(3, 4)))
    for phase in (TRAIN, MC_INFERENCE):
        out = dropout_forward(spec, x, np.zeros((3, 4)), phase)
        assert out is x


def test_dropout_without_mask_is_identity_at_inference_only():
    spec = DropoutSpec(0.7)
    x = np.random.default_rng(31).normal(size=(2, 5))
    out, backward = dropout_forward(spec, x, None, MC_INFERENCE)
    assert out is x and backward is None
    t = Tensor(x)
    assert dropout_forward(spec, t, None, MC_INFERENCE) is t
    with pytest.raises(ShapeError):
        dropout_forward(spec, Tensor(x), None, TRAIN)


def test_dropout_preserves_expectation():
    spec = DropoutSpec(0.3)
    row = np.random.default_rng(32).normal(size=4) + 2.0
    n = 10**5
    x = np.tile(row, (n, 1))
    mask_noise = np.random.default_rng(33).uniform(size=(n, 4))
    out = dropout_forward(spec, Tensor(x), mask_noise, TRAIN)
    se = out.data.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(out.data.mean(axis=0) - row) < 3 * se)


def test_dropout_inference_equals_the_scaled_mask_bit_for_bit():
    spec = DropoutSpec(0.3)
    rng = np.random.default_rng(38)
    x = rng.normal(size=(6, 5))
    mask = rng.random((6, 5))
    before = x.copy()
    out, _ = dropout_forward(spec, x, mask, MC_INFERENCE)
    np.testing.assert_array_equal(out, x * ((mask >= 0.3).astype(np.float64) / (1.0 - 0.3)))
    np.testing.assert_array_equal(x, before)


# values whose products with 0.0, 1.0 and the scale keep or flip a zero's
# sign, underflow, or come near the largest double
DROPOUT_VALUES = np.array([-3.5, -1.0, -0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 0.7])


@pytest.mark.parametrize("rate", [0.2, 0.3, 0.4])
@pytest.mark.parametrize("phase", [TRAIN, MC_INFERENCE])
def test_dropout_is_one_formula_byte_for_byte_the_scaled_mask_product(rate, phase):
    # every value against every kept and dropped unit, forward and backward
    spec = DropoutSpec(rate)
    n = DROPOUT_VALUES.size
    x = np.repeat(DROPOUT_VALUES, 2 * n).reshape(n, 2 * n)
    g = np.tile(np.repeat(DROPOUT_VALUES, 2), (n, 1))
    u = np.tile([rate - 0.1, rate + 0.1], (n, n))
    u[0, :2] = rate  # the threshold itself is kept
    scaled_mask = (u >= rate) * (1.0 / (1.0 - rate))
    want, want_dx = x * scaled_mask, g * scaled_mask
    for mask in (u, u >= rate):
        for out in (None, "x", "mask"):
            xs, ms = x.copy(), mask.copy()
            buf = {None: None, "x": xs, "mask": ms}[out]
            if out == "mask" and ms.dtype == bool:
                continue  # a boolean mask cannot hold the output
            got, backward = dropout_forward(spec, xs, ms, phase, out=buf)
            assert got.tobytes() == want.tobytes()
            assert buf is None or got is buf
            assert backward(g).tobytes() == want_dx.tobytes()
    xt = Tensor(x)
    node = dropout_forward(spec, xt, u, phase)
    node._backward_fn(g)  # a loss over these values would overflow
    assert node.data.tobytes() == want.tobytes() and xt.grad.tobytes() == want_dx.tobytes()


def test_dropout_mask_shape_checked():
    spec = DropoutSpec(0.5)
    with pytest.raises(ShapeError):
        dropout_forward(spec, Tensor(np.zeros((2, 3))), np.zeros((2, 2)), TRAIN)


def test_dropout_rate_validation():
    with pytest.raises(ConfigError):
        DropoutSpec(1.0)
    with pytest.raises(ConfigError):
        DropoutSpec(-0.1)


def test_dropout_gradient_flows_through_mask():
    rng = np.random.default_rng(34)
    x = rng.normal(size=(3, 4))
    mask_noise = rng.uniform(size=(3, 4))
    spec = DropoutSpec(0.4)

    def loss(ts):
        return dropout_forward(spec, ts[0], mask_noise, TRAIN).sum()

    assert_gradients_match(loss, [x], rel=1e-6)


# ---- row halves --------------------------------------------------------------


def no_worker(*args, **kwargs):
    raise AssertionError("work was handed to the worker thread")


# a step 256 values wide splits from ROWS rows up
ROWS = layers.SPLIT_VALUES // 256


def lower_waits_for_upper(body):
    """body(lo, hi), whose lower half starts only once the upper one has,
    so that the worker runs the upper half."""
    upper_started = threading.Event()

    def halves(lo, hi):
        if lo:
            upper_started.set()
        else:
            assert upper_started.wait(10)
        body(lo, hi)

    return halves


def test_in_row_halves_splits_from_split_values_up_with_the_upper_half_on_the_worker():
    calls = []
    in_row_halves(lambda lo, hi: calls.append((lo, hi, threading.current_thread())), ROWS - 1, 256)
    assert calls == [(0, ROWS - 1, threading.main_thread())]
    calls.clear()
    in_row_halves(lower_waits_for_upper(
        lambda lo, hi: calls.append((lo, hi, threading.current_thread()))), ROWS + 1, 256)
    h = (ROWS + 1) // 2
    assert sorted(c[:2] for c in calls) == [(0, h), (h, ROWS + 1)]
    thread = {lo: t for lo, _, t in calls}
    assert thread[0] is threading.main_thread() and thread[h] is not thread[0]


def test_in_row_halves_runs_the_upper_half_itself_if_the_worker_has_not_started_it():
    release = threading.Event()
    busy = layers._worker().submit(release.wait, 10)
    calls = []
    try:
        in_row_halves(lambda lo, hi: calls.append((lo, hi, threading.current_thread())),
                      2 * ROWS, 256)
    finally:
        release.set()
    busy.result()
    layers._worker().submit(lambda: None).result()  # the queued upper half is a no-op
    assert calls == [(0, ROWS, threading.main_thread()), (ROWS, 2 * ROWS, threading.main_thread())]


def test_in_row_halves_raises_the_lower_half_error_first_after_both_end():
    m = 2 * ROWS + 1
    ended = []

    def body(lo, hi, failing):
        ended.append(lo)
        if lo in failing:
            raise NumericError(f"half at {lo}")

    with pytest.raises(NumericError, match="half at 0$"):
        in_row_halves(lower_waits_for_upper(lambda lo, hi: body(lo, hi, (0, m // 2))), m, 256)
    assert sorted(ended) == [0, m // 2]
    with pytest.raises(NumericError, match=f"half at {m // 2}$"):
        in_row_halves(lambda lo, hi: body(lo, hi, (m // 2,)), m, 256)


def test_in_row_halves_waits_for_a_running_upper_half_before_it_raises():
    ended = []

    def body(lo, hi):
        if not lo:
            raise NumericError("lower half")
        time.sleep(0.05)
        ended.append(lo)

    with pytest.raises(NumericError, match="lower half"):
        in_row_halves(lower_waits_for_upper(body), 2 * ROWS, 256)
    assert ended == [ROWS]


def test_in_row_halves_runs_the_worker_half_under_the_callers_errstate():
    seen = {}
    with np.errstate(over="ignore", invalid="raise"):
        in_row_halves(lower_waits_for_upper(
            lambda lo, hi: seen.setdefault(lo, (np.geterr(), threading.current_thread()))),
            2 * ROWS, 256)
    assert seen[ROWS][1] is not threading.main_thread()
    assert seen[0][0] == seen[ROWS][0]
    assert seen[0][0]["over"] == "ignore" and seen[0][0]["invalid"] == "raise"


@pytest.mark.parametrize("m, k, n", [(ROWS, 256, 256), (2049, 64, 256), (2049, 12, 264),
                                     (6001, 300, 64), (2 * ROWS + 3, 256, 128)])
def test_a_product_split_width_wide_has_the_bits_of_one_call_in_row_halves(m, k, n):
    # what SPLIT_WIDTH rests on, at widths and row counts where products split
    assert n % layers.SPLIT_WIDTH == 0 and m * n >= layers.SPLIT_VALUES
    rng = np.random.default_rng(65)
    x, w = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    halves = np.vstack([x[: m // 2] @ w, x[m // 2 :] @ w])
    assert halves.tobytes() == (x @ w).tobytes()


def test_a_product_of_another_width_runs_whole(monkeypatch):
    monkeypatch.setattr(layers, "_worker", no_worker)
    rng = np.random.default_rng(66)
    m = 2 * ROWS + 1
    x, w, b = rng.normal(size=(m, 300)), rng.normal(size=(300, 300)), rng.normal(size=300)
    out, _ = dense_forward(DenseDeterministic(Tensor(w), Tensor(b)), x)
    assert out.tobytes() == (x @ w + b).tobytes()


@pytest.mark.parametrize("lead", [0, 1])
@pytest.mark.parametrize("m", [5, ROWS - 1, ROWS, 2401, 6001])
def test_uniform_rows_is_rng_random_in_values_and_state(lead, m):
    ours, ref = np.random.default_rng(61), np.random.default_rng(61)
    for rng in (ours, ref):
        rng.integers(0, 2, size=lead)  # an odd lead leaves a spare 32-bit half
    assert ours.bit_generator.state["has_uint32"] == lead
    np.testing.assert_array_equal(uniform_rows(ours, m, 256), ref.random((m, 256)))
    assert ours.bit_generator.state == ref.bit_generator.state
    assert_same_next_draws(ours, ref)


def test_uniform_rows_on_another_bit_generator_draws_at_once(monkeypatch):
    monkeypatch.setattr(layers, "_worker", no_worker)
    ours, ref = (np.random.Generator(np.random.MT19937(62)) for _ in range(2))
    np.testing.assert_array_equal(uniform_rows(ours, 2401, 256), ref.random((2401, 256)))
    assert_same_next_draws(ours, ref)


def last_row_overflow(d):
    """2 * ROWS + 1 rows of ones but the last, of 1e308, which a product
    with weights of 10 or a dropout scale of 2 takes past the float64
    range."""
    x = np.ones((2 * ROWS + 1, d))
    x[-1] = 1e308
    return x


@pytest.mark.parametrize("split", [True, False])
@pytest.mark.parametrize("kind", ["dense", "reparam", "dropout"])
def test_an_overflow_in_the_last_row_raises_what_the_whole_step_raises(
    monkeypatch, kind, split
):
    if not split:
        monkeypatch.setattr(layers, "_worker", no_worker)
        monkeypatch.setattr(layers, "SPLIT_VALUES", 10**12)
    w = np.full((6, 256), 10.0)
    if kind == "dense":
        x = last_row_overflow(6)

        def step():
            dense_forward(DenseDeterministic(Tensor(w), Tensor(np.zeros(256))), x)
        op = "forward"
    elif kind == "reparam":
        x = last_row_overflow(6)
        layer = make_variational(6, 256, REPARAM, seed=63, rho=-30.0)
        layer.weight_post.mu.data = w
        noise = draw_layer_noise(layer, len(x), np.random.default_rng(64), MC_INFERENCE)

        def step():
            variational_forward_reparam(layer, x, noise)
        op = "forward"
    else:
        x = last_row_overflow(256)

        def step():
            dropout_forward(DropoutSpec(0.5), x, np.ones(x.shape, bool), MC_INFERENCE)
        op = "dropout"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the worker half keeps the caller's errstate
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=f"^{op} produced non-finite values$"):
                step()
