import math

import numpy as np
import pytest

from bvihead import layers
from bvihead.data import LabeledFeatureSet, SynthSpec, batches, generate
from bvihead.errors import ConfigError, ContractError, NumericError
from bvihead.layers import FLIPOUT, REPARAM, TRAIN
from bvihead.model import (
    DETERMINISTIC,
    MC_DROPOUT,
    STOCHASTIC_VI,
    HeadConfig,
    build_head,
    draw_noise_bundle,
    forward,
    parameter_views,
    zero_noise_bundle,
)
from bvihead.tensor import Tensor, nll, relu_backward, relu_forward
from bvihead.train import (
    BLOCK,
    KL_CONSTANT,
    Adam,
    Sgd,
    TrainConfig,
    elbo_loss,
    flatten_parameters,
    kl_weight_for,
    make_optimizer,
    train,
)

from helpers import assert_gradients_match, zero_noise


def blobs_2class(n_per_class=100, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per_class, 2)) + np.array([4.0, 4.0])
    b = rng.normal(size=(n_per_class, 2)) + np.array([-4.0, -4.0])
    x = np.concatenate([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return LabeledFeatureSet(x, y)


def small_head(variant, input_dim=2, k=2, seed=5):
    cfg = HeadConfig(input_dim, (8, 8), k, variant, dropout_rate=0.1)
    return build_head(cfg, init_seed=seed)


# ---- elbo loss ---------------------------------------------------------------


def test_elbo_zero_weight_is_pure_nll():
    rng = np.random.default_rng(1)
    head = small_head(STOCHASTIC_VI)
    x = Tensor(rng.normal(size=(4, 2)))
    lp, kl = forward(head, x, draw_noise_bundle(head, 4, rng), TRAIN)
    labels = [0, 1, 0, 1]
    loss = elbo_loss(lp, labels, kl, 0.0)

    assert float(loss.data) == float(nll(lp, labels).data)


def test_elbo_deterministic_head_ignores_kl_weight():
    rng = np.random.default_rng(2)
    head = small_head(DETERMINISTIC)
    x = Tensor(rng.normal(size=(4, 2)))
    labels = [0, 1, 1, 0]
    lp, kl = forward(head, x, draw_noise_bundle(head, 4, rng), TRAIN)
    assert float(elbo_loss(lp, labels, kl, 0.0).data) == float(
        elbo_loss(lp, labels, kl, 123.0).data
    )


def test_elbo_gradient_with_frozen_noise():
    from bvihead.dist import DiagonalGaussian
    from bvihead.layers import DenseVariational
    from bvihead.model import Head

    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 2))
    labels = [0, 1, 1]
    cfg = HeadConfig(2, (4, 4), 2, STOCHASTIC_VI, estimator=REPARAM)
    template = build_head(cfg, init_seed=6)
    frozen = draw_noise_bundle(template, 3, np.random.default_rng(7))
    base = [p.data.copy() for p in template.parameters()]

    def loss(ts):
        layers = []
        for i in range(3):
            layers.append(
                DenseVariational(
                    DiagonalGaussian(ts[4 * i], ts[4 * i + 1]),
                    DiagonalGaussian(ts[4 * i + 2], ts[4 * i + 3]),
                    estimator=REPARAM,
                )
            )
        head = Head(config=cfg, layers=layers)
        lp, kl = forward(head, Tensor(x), frozen, TRAIN)
        return elbo_loss(lp, labels, kl, 0.05)

    assert_gradients_match(loss, base, rel=1e-5)


def test_flipout_head_elbo_gradient_matches_finite_differences():
    # every parameter of a full Flipout head, through the fused layer nodes,
    # the shared softplus, the bias draw and the closed-form KL
    from bvihead.dist import DiagonalGaussian
    from bvihead.layers import DenseVariational
    from bvihead.model import Head

    rng = np.random.default_rng(31)
    x = rng.normal(size=(4, 3))
    labels = [0, 2, 1, 2]
    cfg = HeadConfig(3, (5, 4), 3, STOCHASTIC_VI, estimator=FLIPOUT)
    template = build_head(cfg, init_seed=32)
    frozen = draw_noise_bundle(template, 4, rng)
    base = [p.data + rng.normal(scale=0.3, size=p.shape) for p in template.parameters()]

    def loss(ts):
        layers = [
            DenseVariational(
                DiagonalGaussian(ts[4 * i], ts[4 * i + 1]),
                DiagonalGaussian(ts[4 * i + 2], ts[4 * i + 3]),
                estimator=FLIPOUT,
            )
            for i in range(3)
        ]
        lp, kl = forward(Head(config=cfg, layers=layers), Tensor(x), frozen, TRAIN)
        return elbo_loss(lp, labels, kl, 0.05)

    assert_gradients_match(loss, base, rel=1e-6)


# ---- optimizers ----------------------------------------------------------------


def test_sgd_zero_gradient_keeps_parameters():
    p = np.array([1.0, -2.0])
    opt = Sgd(0.1, momentum=0.0)
    opt.step(p, np.zeros(2))
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_sgd_single_step_exact():
    p = np.array([1.0, -2.0])
    g = np.array([0.5, -1.0])
    opt = Sgd(0.1, momentum=0.0)
    opt.step(p, g)
    np.testing.assert_allclose(p, [1.0 - 0.05, -2.0 + 0.1], rtol=1e-15)


def test_sgd_momentum_accumulates_velocity():
    p = np.array([0.0])
    opt = Sgd(0.1, momentum=0.9)
    opt.step(p, np.array([1.0]))
    opt.step(p, np.array([1.0]))
    # v1 = -0.1, v2 = 0.9*(-0.1) - 0.1 = -0.19; p = -0.1 - 0.19
    np.testing.assert_allclose(p, [-0.29], rtol=1e-15)


def adam_scalar_simulation(p0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain-float oracle for Adam on f(p) = p^2."""
    p, m, v = p0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = 2.0 * p
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


def test_adam_quadratic_bowl_matches_scalar_oracle():
    expected = adam_scalar_simulation(1.0, 0.1, 200)
    assert abs(expected) < 0.01

    p = np.array([1.0])
    opt = Adam(0.1)
    for _ in range(200):
        opt.step(p, 2.0 * p)
    assert abs(float(p[0])) < 0.01
    np.testing.assert_allclose(p, [expected], rtol=1e-10)


def test_optimizer_shape_mismatch():
    opt = Sgd(0.1)
    with pytest.raises(ContractError):
        opt.step(np.zeros(2), np.zeros(3))
    with pytest.raises(ContractError):
        Adam(0.1).step(np.zeros(2), np.zeros(0))


class PerTensorSgd:
    """Oracle: momentum SGD over a list of arrays, one tensor at a time."""

    def __init__(self, lr, momentum):
        self.lr, self.momentum, self.velocity = lr, momentum, None

    def step(self, params, grads):
        if self.velocity is None:
            self.velocity = [np.zeros_like(p) for p in params]
        for i, (g, v) in enumerate(zip(grads, self.velocity)):
            v *= self.momentum
            v -= self.lr * g
            params[i] = params[i] + v


class PerTensorAdam:
    """Oracle: Adam over a list of arrays, one tensor at a time."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t, self.m, self.v = 0, None, None

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, (g, m, v) in enumerate(zip(grads, self.m, self.v)):
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            params[i] = params[i] - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@pytest.mark.parametrize(
    "flat, oracle",
    [
        (lambda: Adam(3e-3), lambda: PerTensorAdam(3e-3)),
        (lambda: Sgd(0.05, momentum=0.9), lambda: PerTensorSgd(0.05, 0.9)),
    ],
    ids=["adam", "sgd-momentum"],
)
def test_flat_optimizer_equals_per_tensor_oracle_bit_for_bit(flat, oracle):
    head = build_head(HeadConfig(5, (7, 6), 3, STOCHASTIC_VI), init_seed=4)
    params = head.parameters()
    assert len(params) == 12
    reference = [p.data.copy() for p in params]
    theta = flatten_parameters(params)
    grad = np.empty_like(theta)
    views = parameter_views(params, grad)
    opt, ref_opt = flat(), oracle()
    rng = np.random.default_rng(8)
    for _ in range(20):
        grads = [rng.normal(scale=rng.uniform(0.01, 10.0), size=p.shape) for p in params]
        for view, g in zip(views, grads):
            view[...] = g
        opt.step(theta, grad)
        ref_opt.step(reference, grads)
        for p, r in zip(params, reference):
            np.testing.assert_array_equal(p.data, r)


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize(
    "flat, oracle",
    [
        (lambda: Adam(3e-3), lambda: PerTensorAdam(3e-3)),
        (lambda: Sgd(0.05, momentum=0.9), lambda: PerTensorSgd(0.05, 0.9)),
    ],
    ids=["adam", "sgd-momentum"],
)
def test_blocked_optimizer_equals_per_tensor_oracle_at_block_edges(flat, oracle, size):
    rng = np.random.default_rng(size)
    theta = rng.normal(size=size)
    reference = np.split(theta.copy(), [size // 3])  # two tensors, one may be empty
    opt, ref_opt = flat(), oracle()
    for _ in range(3):
        grad = rng.normal(scale=rng.uniform(0.01, 10.0), size=size)
        opt.step(theta, grad)
        ref_opt.step(reference, np.split(grad, [size // 3]))
    assert theta.tobytes() == np.concatenate(reference).tobytes()


def test_flatten_parameters_rebinds_views_of_one_vector():
    head = small_head(STOCHASTIC_VI)
    params = head.parameters()
    before = [p.data.copy() for p in params]
    theta = flatten_parameters(params)
    assert theta.dtype == np.float64 and theta.size == sum(b.size for b in before)
    for p, b in zip(params, before):
        assert np.shares_memory(p.data, theta)
        np.testing.assert_array_equal(p.data, b)
    theta += 1.0
    np.testing.assert_array_equal(params[0].data, before[0] + 1.0)


def test_relu_forward_equals_where_select_byte_for_byte():
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    values = [-0.0, 0.0, tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308, 1e308, -1e308,
              1.0, -1.0]
    for x in (np.array(values), np.tile(values, 11)[:-3].reshape(43, 3)):  # past SIMD widths
        out, mask = relu_forward(x)
        assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()
        assert mask.dtype == np.float64 and mask.tobytes() == (x > 0).astype(float).tobytes()


def relu_gradients(rng, shape=(8, 6)):
    """A gradient through relu as relu_backward forms it and as np.where
    would: -0.0 against +0.0 wherever the unit was off and g < 0."""
    h, g = rng.normal(size=shape), rng.normal(size=shape)
    return relu_backward(relu_forward(h)[1], g).ravel(), np.where(h > 0, g, 0.0).ravel()


@pytest.mark.parametrize("make", [lambda: Adam(3e-3), lambda: Sgd(0.05, momentum=0.9)],
                         ids=["adam", "sgd-momentum"])
def test_gradients_differing_in_zero_signs_give_byte_identical_steps(make):
    rng = np.random.default_rng(21)
    product, select = relu_gradients(rng)
    assert np.array_equal(product, select) and product.tobytes() != select.tobytes()
    theta = rng.normal(size=product.size)
    opts, thetas = (make(), make()), (theta.copy(), theta.copy())
    for _ in range(3):
        for opt, th, grad in zip(opts, thetas, (product, select)):
            opt.step(th, grad)
        product, select = relu_gradients(rng)
        assert thetas[0].tobytes() == thetas[1].tobytes()
        for state in ("m", "v") if isinstance(opts[0], Adam) else ("velocity",):
            assert getattr(opts[0], state).tobytes() == getattr(opts[1], state).tobytes()


# ---- kl weights ------------------------------------------------------------------


def test_kl_weight_modes():
    cfg_n = TrainConfig(kl_weight_mode="one-over-n")
    assert kl_weight_for(cfg_n, 200, 4) == pytest.approx(1 / 200)
    cfg_b = TrainConfig(kl_weight_mode="one-over-batches")
    assert kl_weight_for(cfg_b, 200, 4) == pytest.approx(0.25)
    cfg_c = TrainConfig(kl_weight_mode="constant", kl_weight_const=0.7)
    assert kl_weight_for(cfg_c, 200, 4) == pytest.approx(0.7)


# ---- training loop ---------------------------------------------------------------


def test_deterministic_head_learns_separable_blobs():
    data = blobs_2class()
    head = small_head(DETERMINISTIC)
    cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=1e-2, seed=1)
    head, report = train(head, data, cfg)
    assert report.epochs[-1].accuracy >= 0.99


def test_zero_epochs_leaves_head_unchanged():
    data = blobs_2class()
    head = small_head(STOCHASTIC_VI)
    before = [p.data.copy() for p in head.parameters()]
    head, report = train(head, data, TrainConfig(epochs=0))
    for b, p in zip(before, head.parameters()):
        np.testing.assert_array_equal(b, p.data)
    assert report.epochs == []


def test_training_is_deterministic():
    data = blobs_2class()
    cfg = TrainConfig(epochs=3, batch_size=16, seed=9)
    h1, r1 = train(small_head(STOCHASTIC_VI), data, cfg)
    h2, r2 = train(small_head(STOCHASTIC_VI), data, cfg)
    for a, b in zip(h1.parameters(), h2.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    assert [e.nll for e in r1.epochs] == [e.nll for e in r2.epochs]
    assert [e.kl for e in r1.epochs] == [e.kl for e in r2.epochs]


def test_vi_zero_weight_zero_noise_matches_deterministic_gradients():
    # With kl weight 0 and all-zero noise, the VI head must reproduce the
    # deterministic head built from its posterior means, gradients included.
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 2))
    labels = np.array([0, 1, 0, 1, 1])
    cfg_vi = HeadConfig(2, (4, 4), 2, STOCHASTIC_VI, estimator=REPARAM)
    vi = build_head(cfg_vi, init_seed=11)
    det = build_head(HeadConfig(2, (4, 4), 2, DETERMINISTIC, dropout_rate=0.0), init_seed=11)
    for dl, vl in zip(det.layers, vi.layers):
        dl.weight.data = vl.weight_post.mu.data.copy()
        dl.bias.data = vl.bias_post.mu.data.copy()

    lp_vi, kl_vi = forward(vi, Tensor(x), zero_noise(vi, 5), TRAIN)
    loss_vi = elbo_loss(lp_vi, labels, kl_vi, 0.0)
    loss_vi.backward()

    lp_det, kl_det = forward(det, Tensor(x), zero_noise_bundle(det, 5), TRAIN)
    loss_det = elbo_loss(lp_det, labels, kl_det, 0.0)
    loss_det.backward()

    assert abs(float(loss_vi.data) - float(loss_det.data)) < 1e-14
    vi_mu_grads = [vi.layers[i].weight_post.mu.grad for i in range(3)]
    det_w_grads = [det.layers[i].weight.grad for i in range(3)]
    for gv, gd in zip(vi_mu_grads, det_w_grads):
        denom = max(np.linalg.norm(gd), 1e-300)
        assert np.linalg.norm(gv - gd) / denom < 1e-10


def test_loss_non_increasing_after_transient():
    spec = SynthSpec(k_in=3, k_out=1, feature_dim=8, per_class=40, center_seed=3, noise_seed=4)
    data, _, _ = generate(spec)
    head = build_head(HeadConfig(8, (16, 16), 3, STOCHASTIC_VI), init_seed=12)
    _, report = train(head, data, TrainConfig(epochs=12, batch_size=32, seed=2))
    losses = [e.loss for e in report.epochs]
    for i in range(5, len(losses) - 1):
        assert losses[i + 1] <= losses[i] * 1.02


@pytest.mark.parametrize(
    "field, value",
    [("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", 2.0), ("adam_eps", 0.0)],
)
def test_adam_ranges_rejected(field, value):
    # beta2 = 1 divides by 1 - beta2**t = 0, and beta2 > 1 takes the root of a negative
    with pytest.raises(ConfigError, match=f"adam needs 0 <= beta1, beta2 < 1 and adam_eps > 0"):
        TrainConfig(**{field: value})


def test_empty_dataset_rejected():
    empty = LabeledFeatureSet(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ConfigError, match="empty"):
        train(small_head(DETERMINISTIC), empty, TrainConfig(epochs=1))


def test_label_out_of_head_range_rejected():
    data = blobs_2class()
    bad = LabeledFeatureSet(data.features, data.labels + 5)
    with pytest.raises(ConfigError, match="labels"):
        train(small_head(DETERMINISTIC), bad, TrainConfig(epochs=1))


def test_nan_abort_names_epoch_and_batch():
    data = blobs_2class(n_per_class=20)
    head = small_head(DETERMINISTIC)
    # poison a weight so the first forward blows up
    head.layers[0].weight.data[0, 0] = 1e308
    head.layers[0].weight.data[1, 0] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"epoch 0, batch 0"):
            train(head, data, TrainConfig(epochs=1, batch_size=8))


def test_report_csv_format():
    data = blobs_2class(n_per_class=10)
    _, report = train(small_head(DETERMINISTIC), data, TrainConfig(epochs=2, batch_size=8))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "epoch,nll,kl,loss,accuracy,seconds"
    assert len(lines) == 3
    assert lines[1].startswith("0,")


def test_vi_flipout_step_computes_each_softplus_once(monkeypatch):
    # one softplus per posterior (3 layers x weight/bias), shared by the
    # sample and the KL
    calls = []
    original = layers.softplus_and_exp

    def counting(rho):
        calls.append(rho.shape)
        return original(rho)

    monkeypatch.setattr(layers, "softplus_and_exp", counting)
    head = small_head(STOCHASTIC_VI)
    data = blobs_2class(n_per_class=4)
    train(head, data, TrainConfig(epochs=1, batch_size=data.n))
    assert len(calls) == 6
    assert sorted(calls) == sorted(
        s for layer in head.layers for s in (layer.weight_post.shape, layer.bias_post.shape)
    )


@pytest.mark.parametrize("variant", [DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI])
def test_training_step_constructs_no_tensor(variant, monkeypatch):
    head = small_head(variant)
    data = blobs_2class(n_per_class=4)
    created = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        created.append(kwargs.get("_op", "tensor"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    train(head, data, TrainConfig(epochs=2, batch_size=3))
    assert created == []


# ---- the array step against the graph reference --------------------------------


def reference_train(head, data, cfg):
    """The training loop on the autodiff graph: forward(..., TRAIN),
    elbo_loss and Tensor.backward, with the grads concatenated in
    Head.parameters() order for the same flat optimizers."""
    optimizer = make_optimizer(cfg)
    params = head.parameters()
    theta = flatten_parameters(params)
    rows = []
    for epoch in range(cfg.epochs):
        seed = int(np.random.default_rng((cfg.seed, epoch)).integers(2**31))
        epoch_batches = batches(data, cfg.batch_size, seed=seed, shuffle=cfg.shuffle)
        kl_weight = kl_weight_for(cfg, data.n, len(epoch_batches))
        sums = [0.0, 0.0, 0.0]
        correct = 0
        for b_idx, batch in enumerate(epoch_batches):
            noise_rng = np.random.default_rng((cfg.seed, epoch, b_idx))
            bundle = draw_noise_bundle(head, batch.n, noise_rng)
            log_probs, kl = forward(head, Tensor(batch.features), bundle, TRAIN)
            loss = elbo_loss(log_probs, batch.labels, kl, kl_weight)
            loss.backward()
            optimizer.step(theta, np.concatenate([p.grad.ravel() for p in params]))
            batch_nll = float(nll(log_probs, batch.labels).data)
            for i, value in enumerate((batch_nll, float(kl.data), float(loss.data))):
                sums[i] += value * batch.n
            correct += int((log_probs.data.argmax(axis=1) == batch.labels).sum())
        rows.append((epoch, *(total / data.n for total in sums), correct / data.n))
    return theta, rows


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("kl_mode", ["zero", "one-over-batches"])
@pytest.mark.parametrize(
    "variant,estimator,hidden",
    [
        pytest.param(DETERMINISTIC, FLIPOUT, (7, 6), id="deterministic-flipout"),
        pytest.param(MC_DROPOUT, FLIPOUT, (7, 6), id="mc-dropout-flipout"),
        pytest.param(STOCHASTIC_VI, FLIPOUT, (7, 6), id="stochastic-vi-flipout"),
        pytest.param(STOCHASTIC_VI, REPARAM, (7, 6), id="stochastic-vi-reparam"),
        # 35,334 values: the optimizer steps over two blocks, the second short
        pytest.param(STOCHASTIC_VI, FLIPOUT, (128, 128), id="stochastic-vi-flipout-two-blocks"),
    ],
)
def test_training_step_equals_graph_reference_bit_for_bit(
    variant, estimator, hidden, kl_mode, optimizer
):
    # 4 epochs of 16 batches (the last one short): 64 steps
    spec = SynthSpec(k_in=3, k_out=1, feature_dim=5, per_class=26, center_seed=5, noise_seed=6)
    data, _, _ = generate(spec)
    weight = {"kl_weight_mode": KL_CONSTANT, "kl_weight_const": 0.0} if kl_mode == "zero" else {
        "kl_weight_mode": kl_mode}
    cfg = TrainConfig(epochs=4, batch_size=4, optimizer=optimizer, learning_rate=5e-3, seed=3,
                      **weight)
    head_cfg = HeadConfig(5, hidden, 3, variant, dropout_rate=0.3, estimator=estimator)
    head, report = train(build_head(head_cfg, init_seed=4), data, cfg)
    theta = np.concatenate([p.data.ravel() for p in head.parameters()])
    want_theta, want_rows = reference_train(build_head(head_cfg, init_seed=4), data, cfg)
    assert hidden == (7, 6) or theta.size > BLOCK
    assert theta.tobytes() == want_theta.tobytes()
    rows = [(e.epoch, e.nll, e.kl, e.loss, e.accuracy) for e in report.epochs]
    assert repr(rows) == repr(want_rows)


@pytest.mark.parametrize("variant", [DETERMINISTIC, STOCHASTIC_VI])
def test_layer_one_overflow_names_epoch_batch_and_layer(variant):
    data = blobs_2class(n_per_class=20)
    head = small_head(variant)
    layer = head.layers[1]
    weight = layer.weight if variant == DETERMINISTIC else layer.weight_post.mu
    weight.data[:] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"epoch 0, batch 0: layer 1: "):
            train(head, data, TrainConfig(epochs=1, batch_size=8))


@pytest.mark.parametrize("batch_size", [64, 8])
@pytest.mark.parametrize("variant", [DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI])
def test_training_never_hands_work_to_the_row_worker(monkeypatch, variant, batch_size):
    # 1,200 rows of H = 256 would split; batches of 64 or 8 rows stay whole
    def no_worker():
        raise AssertionError("training handed work to the worker thread")

    monkeypatch.setattr(layers, "_worker", no_worker)
    data = blobs_2class(n_per_class=600, seed=3)
    assert data.n * 256 > layers.SPLIT_VALUES
    head = build_head(HeadConfig(2, (256, 256), 2, variant), init_seed=5)
    train(head, data, TrainConfig(epochs=1, batch_size=batch_size))
