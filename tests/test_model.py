import base64
import json
import math

import numpy as np
import pytest

from bvihead.errors import ConfigError, NumericError, ShapeError
from bvihead.layers import MC_INFERENCE, REPARAM, TRAIN
from bvihead.model import (
    DETERMINISTIC,
    MC_DROPOUT,
    STOCHASTIC_VI,
    Head,
    HeadConfig,
    build_head,
    draw_noise_bundle,
    forward,
    head_from_dict,
    head_to_dict,
    load_head,
    save_head,
    train_step,
    zero_noise_bundle,
)
from bvihead.tensor import Tensor

from helpers import zero_noise


def small_config(variant, estimator="flipout"):
    return HeadConfig(
        input_dim=5,
        hidden_dims=(7, 6),
        num_classes=3,
        variant=variant,
        dropout_rate=0.2,
        estimator=estimator,
    )


def test_build_head_is_deterministic():
    cfg = small_config(STOCHASTIC_VI)
    one = build_head(cfg, init_seed=42)
    two = build_head(cfg, init_seed=42)
    for a, b in zip(one.parameters(), two.parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_build_head_rho_init():
    head = build_head(small_config(STOCHASTIC_VI), init_seed=0)
    rho = head.layers[0].weight_post.rho.data
    np.testing.assert_array_equal(rho, -3.0)
    std = float(np.log1p(np.exp(-3.0)))
    assert std == pytest.approx(0.04858735157374196, rel=1e-12)


def test_build_head_rejects_zero_hidden_dim():
    with pytest.raises(ConfigError):
        HeadConfig(5, (0, 4), 3, DETERMINISTIC)


def test_each_width_and_each_layer_is_bounded():
    # a width sizes the activations, so it is bounded alone; a layer's
    # weights bound the feature and class counts that the data gives
    assert HeadConfig(4096, (4096, 4096), 4096, DETERMINISTIC).hidden_dims == (4096, 4096)
    for dims in ((4, 4097), (262144, 64)):
        with pytest.raises(ConfigError, match=r"^hidden_dims: each must be at most 4096, got \("):
            HeadConfig(64, dims, 3, DETERMINISTIC)
    with pytest.raises(ConfigError, match=r"^input_dim: layer 0 holds 65537 x 256 weights"):
        HeadConfig(65537, (256, 256), 3, DETERMINISTIC)
    with pytest.raises(ConfigError, match=r"^num_classes: layer 2 holds 256 x 65537 weights"):
        HeadConfig(4, (256, 256), 65537, DETERMINISTIC)


def test_config_validation():
    with pytest.raises(ConfigError):
        HeadConfig(5, (4, 4), 1, DETERMINISTIC)
    with pytest.raises(ConfigError):
        HeadConfig(5, (4, 4, 4), 3, DETERMINISTIC)
    with pytest.raises(ConfigError):
        HeadConfig(5, (4, 4), 3, "bogus")


@pytest.mark.parametrize("variant,estimator", [
    (DETERMINISTIC, "flipout"), (MC_DROPOUT, "flipout"), (STOCHASTIC_VI, "flipout"),
    (STOCHASTIC_VI, REPARAM),
])
def test_noise_bundle_reproduces_the_uniform_and_integer_stream(variant, estimator):
    # the reference draws every array with the generator's general-purpose calls
    head = build_head(small_config(variant, estimator), init_seed=3)
    ours, ref = np.random.default_rng(40), np.random.default_rng(40)
    got = draw_noise_bundle(head, 9, ours)
    for entry, (d_in, d_out) in zip(got, head.config.layer_dims):
        if variant == STOCHASTIC_VI:
            want = [ref.standard_normal((d_in, d_out)), ref.standard_normal(d_out)]
            have = [entry.weight_eps, entry.bias_eps]
            if estimator != REPARAM:
                for d in (d_in, d_out):
                    want.append(ref.integers(0, 2, size=(9, d)).astype(np.float64) * 2.0 - 1.0)
                have += [entry.sign_in, entry.sign_out]
        elif entry is None:
            continue
        else:
            want, have = [ref.uniform(size=(9, d_out))], [entry]
        for a, b in zip(have, want):
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ours.standard_normal(4), ref.standard_normal(4))
    np.testing.assert_array_equal(ours.integers(0, 2, 5), ref.integers(0, 2, 5))


def test_deterministic_variant_kl_is_zero():
    head = build_head(small_config(DETERMINISTIC), init_seed=1)
    x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
    _, kl = forward(head, x, zero_noise_bundle(head, 4), MC_INFERENCE)
    assert float(kl.data) == 0.0


def test_vi_zero_noise_equals_mean_forward():
    cfg = small_config(STOCHASTIC_VI, estimator=REPARAM)
    head = build_head(cfg, init_seed=2)
    x = Tensor(np.random.default_rng(1).normal(size=(3, 5)))
    lp, _ = forward(head, x, zero_noise(head, 3), MC_INFERENCE)

    det = build_head(small_config(DETERMINISTIC), init_seed=2)
    for dl, vl in zip(det.layers, head.layers):
        dl.weight.data = vl.weight_post.mu.data.copy()
        dl.bias.data = vl.bias_post.mu.data.copy()
    lp_det, _ = forward(det, x, zero_noise_bundle(det, 3), MC_INFERENCE)
    np.testing.assert_allclose(lp.data, lp_det.data, rtol=1e-12)


def test_forward_rows_normalize():
    for variant in (DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI):
        head = build_head(small_config(variant), init_seed=3)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(6, 5)))
        noise = draw_noise_bundle(head, 6, rng)
        lp, _ = forward(head, x, noise, TRAIN)
        np.testing.assert_allclose(np.exp(lp.data).sum(axis=1), 1.0, atol=1e-12)
        assert lp.shape == (6, 3)


def test_kl_total_ignores_input_and_noise():
    head = build_head(small_config(STOCHASTIC_VI), init_seed=5)
    rng = np.random.default_rng(6)
    _, kl_a = forward(
        head, Tensor(rng.normal(size=(2, 5))), draw_noise_bundle(head, 2, rng), TRAIN
    )
    _, kl_b = forward(
        head, Tensor(rng.normal(size=(4, 5))), draw_noise_bundle(head, 4, rng), TRAIN
    )
    assert float(kl_a.data) == float(kl_b.data)


def test_deterministic_inference_is_pure():
    head = build_head(small_config(DETERMINISTIC), init_seed=7)
    x = Tensor(np.random.default_rng(8).normal(size=(3, 5)))
    lp1, _ = forward(head, x, zero_noise_bundle(head, 3), MC_INFERENCE)
    lp2, _ = forward(head, x, zero_noise_bundle(head, 3), MC_INFERENCE)
    np.testing.assert_array_equal(lp1.data, lp2.data)


def test_mc_dropout_inference_is_stochastic_across_draws():
    head = build_head(small_config(MC_DROPOUT), init_seed=9)
    x = Tensor(np.random.default_rng(10).normal(size=(3, 5)))
    rng = np.random.default_rng(11)
    lp1, _ = forward(head, x, draw_noise_bundle(head, 3, rng), MC_INFERENCE)
    lp2, _ = forward(head, x, draw_noise_bundle(head, 3, rng), MC_INFERENCE)
    assert not np.array_equal(lp1.data, lp2.data)


@pytest.mark.parametrize(
    "variant, estimator",
    [(STOCHASTIC_VI, "flipout"), (STOCHASTIC_VI, REPARAM), (MC_DROPOUT, "flipout")],
)
def test_inference_forward_matches_train_forward_bitwise(variant, estimator):
    # inference runs every variational layer through the reparam forward,
    # so the oracle is the training forward of the reparam head with the
    # same parameters on the same sign-less draw
    head = build_head(small_config(variant, estimator), init_seed=17)
    ref = build_head(small_config(variant, REPARAM), init_seed=17)
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(9, 5)))
    noise = draw_noise_bundle(head, 9, rng, MC_INFERENCE)
    lp_train, kl_train = forward(ref, x, noise, TRAIN)
    lp_mc, kl_mc = forward(head, x, noise, MC_INFERENCE)
    assert lp_mc.data.tobytes() == lp_train.data.tobytes()
    assert kl_mc.data.tobytes() == kl_train.data.tobytes()


@pytest.mark.parametrize("estimator", ["flipout", REPARAM])
def test_inference_bundle_draws_only_the_eps_arrays(estimator):
    head = build_head(small_config(STOCHASTIC_VI, estimator), init_seed=27)
    rng, ref = np.random.default_rng((5, 0)), np.random.default_rng((5, 0))
    bundle = draw_noise_bundle(head, 9, rng, MC_INFERENCE)
    for layer, draw in zip(head.layers, bundle, strict=True):
        assert draw.sign_in is None and draw.sign_out is None
        np.testing.assert_array_equal(draw.weight_eps, ref.standard_normal(layer.weight_post.shape))
        np.testing.assert_array_equal(draw.bias_eps, ref.standard_normal(layer.bias_post.shape))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_deterministic_inference_bundle_is_empty_and_draws_nothing():
    head = build_head(small_config(DETERMINISTIC), init_seed=28)
    rng = np.random.default_rng(29)
    state = rng.bit_generator.state
    assert draw_noise_bundle(head, 9, rng, MC_INFERENCE) == [None, None, None]
    assert rng.bit_generator.state == state


def test_mc_dropout_inference_bundle_equals_its_train_bundle():
    head = build_head(small_config(MC_DROPOUT), init_seed=30)
    rng_train, rng_mc = np.random.default_rng(31), np.random.default_rng(31)
    train = draw_noise_bundle(head, 9, rng_train, TRAIN)
    mc = draw_noise_bundle(head, 9, rng_mc, MC_INFERENCE)
    assert [a is None for a in mc] == [False, False, True]
    for a, b in zip(train, mc, strict=True):
        np.testing.assert_array_equal(a, b)
    assert rng_mc.bit_generator.state == rng_train.bit_generator.state


def test_deterministic_inference_matches_train_without_dropout():
    cfg = HeadConfig(5, (7, 6), 3, DETERMINISTIC, dropout_rate=0.0)
    head = build_head(cfg, init_seed=19)
    x = Tensor(np.random.default_rng(20).normal(size=(4, 5)))
    noise = zero_noise_bundle(head, 4)
    lp_train, _ = forward(head, x, noise, TRAIN)
    lp_det, kl_det = forward(head, x, noise, MC_INFERENCE)
    assert lp_det.data.tobytes() == lp_train.data.tobytes()
    assert float(kl_det.data) == 0.0


@pytest.mark.parametrize("variant", [DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI])
@pytest.mark.parametrize("value", [1e308, -1e308])  # relu would map -inf to 0
def test_inference_overflow_names_the_layer(variant, value):
    head = build_head(small_config(variant), init_seed=21)
    layer = head.layers[1]
    weight = layer.weight if variant != STOCHASTIC_VI else layer.weight_post.mu
    weight.data = np.full(weight.shape, value)
    x = Tensor(np.full((3, 5), 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        for phase in (TRAIN, MC_INFERENCE):
            noise = draw_noise_bundle(head, 3, np.random.default_rng(22), phase)
            with pytest.raises(NumericError, match="layer 1"):
                forward(head, x, noise, phase)


def test_dropout_overflow_names_the_same_layer_in_training_and_mc_passes():
    # layer 0's pre-activation, 1e300 * 1.5e8, is finite, and the dropout
    # scale 1.25 takes every kept unit to inf: the training step, its graph
    # reference and an MC-dropout pass all name layer 0's dropout
    head = build_head(small_config(MC_DROPOUT), init_seed=21)
    weight = head.layers[0].weight
    weight.data = np.zeros(weight.shape)
    weight.data[0, :] = 1.5e8
    x = np.full((3, 5), 1e300)
    want = "^layer 0: dropout produced non-finite values$"
    grads = [[np.empty_like(p.data) for p in layer.leaves()] for layer in head.layers]
    with np.errstate(over="ignore", invalid="ignore"):
        for phase in (TRAIN, MC_INFERENCE):
            noise = draw_noise_bundle(head, 3, np.random.default_rng(22), phase)
            with pytest.raises(NumericError, match=want):
                forward(head, Tensor(x), noise, phase)
        noise = draw_noise_bundle(head, 3, np.random.default_rng(22), TRAIN)
        with pytest.raises(NumericError, match=want):
            train_step(head, x, np.zeros(3, dtype=np.int64), noise, 0.0, grads)


def test_inference_forward_records_no_graph(monkeypatch):
    created = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(kwargs.get("_op", "tensor"))
        init(self, *args, **kwargs)

    for variant in (DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI):
        head = build_head(small_config(variant), init_seed=23)
        x = Tensor(np.random.default_rng(24).normal(size=(4, 5)))
        noise = draw_noise_bundle(head, 4, np.random.default_rng(25))
        monkeypatch.setattr(Tensor, "__init__", counting_init)
        created.clear()
        lp, kl = forward(head, x, noise, MC_INFERENCE)
        monkeypatch.setattr(Tensor, "__init__", init)
        assert len(created) <= 2, (variant, created)
        assert lp._parents == () and kl._parents == ()


def test_forward_rejects_unknown_phase():
    head = build_head(small_config(STOCHASTIC_VI), init_seed=26)
    with pytest.raises(ConfigError, match="phase"):
        forward(head, Tensor(np.zeros((2, 5))), zero_noise_bundle(head, 2), "bogus")


@pytest.mark.parametrize("variant", [DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI])
def test_noise_bundle_rejects_an_unknown_phase_before_drawing(variant):
    head = build_head(small_config(variant), init_seed=26)
    rng = np.random.default_rng(27)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="unknown phase 'trian'"):
        draw_noise_bundle(head, 5, rng, "trian")
    assert rng.bit_generator.state == state


def test_forward_shape_mismatch():
    head = build_head(small_config(DETERMINISTIC), init_seed=12)
    with pytest.raises(ShapeError):
        forward(head, Tensor(np.zeros((2, 4))), zero_noise_bundle(head, 2), TRAIN)


def test_checkpoint_round_trip_exact(tmp_path):
    for variant in (DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI):
        head = build_head(small_config(variant), init_seed=13)
        path = tmp_path / f"{variant}.json"
        save_head(head, path)
        loaded = load_head(path)
        assert loaded.config == head.config
        for a, b in zip(head.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("variant", [DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI])
def test_a_head_assembled_from_config_and_layers_survives_its_checkpoint(tmp_path, variant):
    # the dropout a head applies comes from its config, which the checkpoint
    # records; an assembled MC-dropout head once applied none until reloaded
    from bvihead.uncertainty import mc_predict

    cfg = small_config(variant)
    head = Head(config=cfg, layers=build_head(cfg, init_seed=17).layers)
    save_head(head, tmp_path / "head.json")
    loaded = load_head(tmp_path / "head.json")
    assert loaded.dropout == head.dropout
    x = Tensor(np.random.default_rng(18).normal(size=(6, 5)))
    want, got = (mc_predict(h, x, 4, seed=19).sample_probs for h in (head, loaded))
    assert want.tobytes() == got.tobytes()
    with pytest.raises(TypeError):
        Head(config=cfg, layers=head.layers, dropout=None)


def test_a_lone_mc_pass_leaves_its_bundle_unchanged():
    # only mc_predict, which passes its workspace and draws each bundle afresh,
    # lets a pass write over its masks; a lone pass once did too
    head = build_head(small_config(MC_DROPOUT), init_seed=20)
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(6, 5)))
    bundle = draw_noise_bundle(head, 6, rng, MC_INFERENCE)
    before = [None if a is None else a.copy() for a in bundle]
    first, second = (forward(head, x, bundle, MC_INFERENCE)[0].data for _ in range(2))
    assert first.tobytes() == second.tobytes()
    assert [None if a is None else a.tobytes() for a in bundle] == [
        None if a is None else a.tobytes() for a in before
    ]


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_head_to_dict_rejects_the_non_finite_theta_the_reader_rejects(value):
    head = build_head(small_config(STOCHASTIC_VI), init_seed=11)
    head.layers[1].bias_post.rho.data[2] = value
    index = sum(p.data.size for p in head.parameters()[:7]) + 2
    with pytest.raises(NumericError, match=rf"^checkpoint\.theta\[{index}\] is not finite"):
        head_to_dict(head)
    doc = head_to_dict(build_head(small_config(STOCHASTIC_VI), init_seed=11))
    theta = np.concatenate([p.data.ravel() for p in head.parameters()])
    doc["theta"] = base64.b64encode(theta.astype("<f8").tobytes()).decode("ascii")
    with pytest.raises(ConfigError, match=rf"^checkpoint\.theta\[{index}\] is not finite"):
        head_from_dict(doc)


def test_checkpoint_format_version_checked(tmp_path):
    head = build_head(small_config(DETERMINISTIC), init_seed=14)
    doc = head_to_dict(head)
    doc["format_version"] = 99
    with pytest.raises(ConfigError, match="format_version"):
        head_from_dict(doc)
    # a version-1 file stored one list of decimal strings per array
    v1 = {"format_version": 1, "config": doc["config"], "layers": []}
    with pytest.raises(ConfigError, match="format_version 1"):
        head_from_dict(v1)


def test_checkpoint_theta_is_little_endian_float64(tmp_path):
    head = build_head(small_config(STOCHASTIC_VI), init_seed=15)
    path = tmp_path / "head.json"
    save_head(head, path)
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["config", "format_version", "theta"]
    expected = b"".join(p.data.astype("<f8").tobytes() for p in head.parameters())
    assert base64.b64decode(doc["theta"], validate=True) == expected


def test_loaded_parameters_are_writable_views_of_one_vector(tmp_path):
    path = tmp_path / "head.json"
    save_head(build_head(small_config(STOCHASTIC_VI), init_seed=15), path)
    params = load_head(path).parameters()
    assert all(p.data.flags.writeable for p in params)
    base = params[0].data.base
    assert base is not None and all(p.data.base is base for p in params)


def _saved_checkpoint(tmp_path):
    path = tmp_path / "head.json"
    save_head(build_head(small_config(STOCHASTIC_VI), init_seed=16), path)
    return path


def test_load_head_non_json_raises_config_error(tmp_path):
    path = tmp_path / "head.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match=r"head\.json.*not valid JSON"):
        load_head(path)
    path.write_bytes(b"\xff\xfe\x00binary")
    with pytest.raises(ConfigError, match=r"head\.json: line 1: not UTF-8 text"):
        load_head(path)


def test_load_head_missing_config_names_file_and_key(tmp_path):
    path = _saved_checkpoint(tmp_path)
    doc = json.loads(path.read_text())
    del doc["config"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"head\.json.*'config'"):
        load_head(path)
    doc = head_to_dict(build_head(small_config(STOCHASTIC_VI), init_seed=16))
    del doc["config"]["variant"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"head\.json.*'variant'"):
        load_head(path)


def test_load_head_missing_theta_names_file_and_key(tmp_path):
    path = _saved_checkpoint(tmp_path)
    doc = json.loads(path.read_text())
    del doc["theta"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"head\.json: checkpoint lacks key 'theta'"):
        load_head(path)
    doc = head_to_dict(build_head(small_config(STOCHASTIC_VI), init_seed=16))
    doc["config"]["init_seed"] = 16
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"head\.json: config has unknown key 'init_seed'"):
        load_head(path)


@pytest.mark.parametrize("variant", [DETERMINISTIC, STOCHASTIC_VI])
def test_load_head_checks_array_sizes_before_allocating(tmp_path, variant):
    # the widest header the bounds allow, 4096 x 4096 x 4096, would need
    # 268 MB (537 MB for VI) if the head were built first; one 10^7 wide
    # fails the width bound before theta is read
    doc = head_to_dict(build_head(small_config(variant), init_seed=16))
    path = tmp_path / "head.json"
    for dims, match in ((4096, r"checkpoint\.theta holds \d+ bytes"),
                        (10**7, r"config\.hidden_dims: each must be at most 4096")):
        doc["config"].update(input_dim=dims, hidden_dims=[dims, dims])
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"head\.json: " + match):
            load_head(path)


def _with_value(doc, index, value):
    """doc with theta's value at `index` replaced by `value`."""
    theta = np.frombuffer(base64.b64decode(doc["theta"]), dtype="<f8").copy()
    theta[index] = value
    doc["theta"] = base64.b64encode(theta.astype("<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize(
    "corrupt, where",
    [
        (lambda d: d.__setitem__("config", [1, 2]), "config"),
        (lambda d: d["config"].__setitem__("input_dim", "5"), "input_dim"),
        (lambda d: d["config"].__setitem__("input_dim", 5.5), "input_dim"),
        (lambda d: d["config"].__setitem__("hidden_dims", 7), "hidden_dims"),
        (lambda d: d["config"].__setitem__("hidden_dims", [7, True]), "hidden_dims"),
        (lambda d: d["config"].__setitem__("dropout_rate", None), "dropout_rate"),
        (lambda d: d.__setitem__("layers", "abc"), "layers"),
        pytest.param(
            lambda d: d.__setitem__("theta", 3),
            "theta is not a base64 string",
            id="theta-not-a-string",
        ),
        pytest.param(
            lambda d: d.__setitem__("theta", d["theta"][:-4]),
            r"theta holds \d+ bytes",
            id="theta-too-short",
        ),
        pytest.param(
            lambda d: d.__setitem__("theta", "!" + d["theta"][1:]),
            "theta is not a base64 string",
            id="theta-bad-character",
        ),
        pytest.param(
            lambda d: d.__setitem__("theta", "\u00e9" + d["theta"][1:]),
            "theta is not a base64 string",
            id="theta-not-ascii",
        ),
        pytest.param(
            lambda d: _with_value(d, -1, math.nan),
            r"theta\[\d+\] is not finite: nan",
            id="theta-nan",
        ),
        pytest.param(
            lambda d: _with_value(d, 0, math.inf), r"theta\[0\] is not finite: inf", id="theta-inf"
        ),
        pytest.param(
            lambda d: _with_value(d, 5, -math.inf),
            r"theta\[5\] is not finite: -inf",
            id="theta-minus-inf",
        ),
    ],
)
def test_load_head_wrong_types_raise_config_error(tmp_path, corrupt, where):
    path = _saved_checkpoint(tmp_path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=rf"head\.json.*{where}"):
        load_head(path)


@pytest.mark.parametrize("estimator", ["flipout", REPARAM])
def test_kl_alone_backpropagates_to_every_posterior_as_kl_to_prior_does(estimator):
    # with two or more VI layers, the ReLU between them once had its
    # backward called with None and raised TypeError
    from bvihead.layers import PRIOR, kl_to_prior

    head = build_head(HeadConfig(3, (4, 4), 2, STOCHASTIC_VI, estimator=estimator), init_seed=9)
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(5, 3)))
    _, kl = forward(head, x, draw_noise_bundle(head, 5, rng), TRAIN)
    kl.backward()
    assert x.grad is None
    for layer in head.layers:
        for post in (layer.weight_post, layer.bias_post):
            got = post.mu.grad, post.rho.grad
            kl_to_prior(post, PRIOR).backward()
            assert got[0].tobytes() == post.mu.grad.tobytes()
            assert got[1].tobytes() == post.rho.grad.tobytes()
