import importlib
import math
import tracemalloc

import numpy as np
import pytest

import bvihead.uncertainty as uncertainty_mod
from bvihead import layers
from bvihead.errors import ConfigError, DataError, NumericError
from bvihead.layers import MC_INFERENCE
from bvihead.model import (
    DETERMINISTIC,
    MC_DROPOUT,
    STOCHASTIC_VI,
    HeadConfig,
    build_head,
    draw_noise_bundle,
    forward,
)
from bvihead.tensor import Tensor
from bvihead.uncertainty import (
    PredictiveDistribution,
    bald,
    expected_entropy,
    mc_predict,
    predictive_entropy,
    report,
    reports_to_csv,
)


def random_pd(rng, t=None, k=None):
    t = t or int(rng.integers(1, 12))
    k = k or int(rng.integers(2, 9))
    raw = rng.gamma(shape=0.6, size=(t, k)) + 1e-12
    probs = raw / raw.sum(axis=1, keepdims=True)
    return PredictiveDistribution.from_samples(probs)


def head_for(variant, seed=0):
    return build_head(HeadConfig(4, (8, 8), 3, variant), init_seed=seed)


# ---- distribution type -------------------------------------------------------


def test_rows_must_normalize():
    with pytest.raises(DataError, match="sum to 1"):
        PredictiveDistribution.from_samples(np.array([[0.5, 0.4]]))


def test_from_samples_identical_rows_copies_exactly():
    row = np.random.default_rng(0).dirichlet(np.ones(5))
    pd = PredictiveDistribution.from_samples(np.tile(row, (40, 1)))
    np.testing.assert_array_equal(pd.mean_probs, row)
    assert bald(pd) == 0.0


# ---- entropies ----------------------------------------------------------------


def test_entropy_one_hot_is_zero():
    probs = np.zeros((1, 4))
    probs[0, 2] = 1.0
    pd = PredictiveDistribution.from_samples(probs)
    assert predictive_entropy(pd) == pytest.approx(0.0, abs=1e-10)


def test_entropy_uniform_54_classes():
    pd = PredictiveDistribution.from_samples(np.full((3, 54), 1 / 54))
    assert predictive_entropy(pd) == pytest.approx(math.log(54), rel=1e-12)
    assert predictive_entropy(pd) == pytest.approx(3.9889840465642745, rel=1e-10)


def test_entropy_fair_coin():
    pd = PredictiveDistribution.from_samples(np.array([[0.5, 0.5]]))
    assert predictive_entropy(pd) == pytest.approx(math.log(2), rel=1e-12)


def test_bald_maximal_disagreement():
    pd = PredictiveDistribution.from_samples(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert bald(pd) == pytest.approx(math.log(2), abs=1e-9)


def test_bald_zero_for_identical_rows():
    pd = PredictiveDistribution.from_samples(np.tile([0.3, 0.7], (7, 1)))
    assert bald(pd) == 0.0


def test_bald_jensen_bounds_over_random_distributions():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        pd = random_pd(rng)
        b = bald(pd)
        assert -1e-9 <= b <= predictive_entropy(pd) + 1e-9
        assert 0.0 <= predictive_entropy(pd) <= math.log(pd.k) + 1e-9
        assert 0.0 <= expected_entropy(pd) <= math.log(pd.k) + 1e-9


def test_metrics_invariant_to_class_permutation():
    rng = np.random.default_rng(2)
    pd = random_pd(rng, t=6, k=5)
    perm = rng.permutation(5)
    pd_perm = PredictiveDistribution.from_samples(pd.sample_probs[:, perm])
    np.testing.assert_allclose(pd_perm.mean_probs, pd.mean_probs[perm], atol=1e-15)
    assert predictive_entropy(pd_perm) == pytest.approx(predictive_entropy(pd), rel=1e-12)
    assert expected_entropy(pd_perm) == pytest.approx(expected_entropy(pd), rel=1e-12)
    assert bald(pd_perm) == pytest.approx(bald(pd), abs=1e-12)


def test_metrics_invariant_to_row_permutation():
    rng = np.random.default_rng(3)
    pd = random_pd(rng, t=8, k=4)
    pd_perm = PredictiveDistribution.from_samples(pd.sample_probs[rng.permutation(8)])
    assert predictive_entropy(pd_perm) == pytest.approx(predictive_entropy(pd), rel=1e-14)
    assert expected_entropy(pd_perm) == pytest.approx(expected_entropy(pd), rel=1e-14)
    assert bald(pd_perm) == pytest.approx(bald(pd), abs=1e-14)


def test_bald_not_negative_on_near_certain_passes():
    # clamping probabilities at 1e-12 before the log gave -1.15e-11 here
    probs = np.array([[1 - 1e-13, 1e-13], [1 - 3e-12, 3e-12]])
    assert bald(PredictiveDistribution.from_samples(probs)) == pytest.approx(8.5e-13, rel=0.01)


def test_zero_probabilities_contribute_no_entropy():
    pd = PredictiveDistribution.from_samples(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert expected_entropy(pd) == 0.0
    assert bald(pd) == predictive_entropy(pd) == pytest.approx(math.log(2), rel=1e-15)


# ---- batches ------------------------------------------------------------------


def test_batch_measures_equal_per_example_measures():
    rng = np.random.default_rng(14)
    batch = PredictiveDistribution.from_samples(
        np.stack([random_pd(rng, t=6, k=5).sample_probs for _ in range(20)])
    )
    assert len(batch) == 20 and batch.k == 5
    assert batch[3].sample_probs.shape == (6, 5)
    # an indexed example derives its mean from its own samples, byte-equal to
    # the batch's row, also at T beyond the default 40 passes
    shapes = [(20, 6, 5)] + [tuple(rng.integers((1, 1, 2), (9, 65, 9))) for _ in range(60)]
    for m, t, k in shapes:
        samples = rng.dirichlet(np.ones(k), size=(m, t))
        samples[0] = samples[0, 0]  # one example whose passes are identical
        batch = PredictiveDistribution.from_samples(samples)
        for measure in (predictive_entropy, expected_entropy, bald):
            values = measure(batch)
            assert values.shape == (m,)
            assert values.tolist() == [measure(pd) for pd in batch]
        for j in range(m):
            assert batch[j].mean_probs.tobytes() == batch.mean_probs[j].tobytes()


def test_batch_identical_pass_rule_is_per_example():
    rows = np.random.default_rng(15).dirichlet(np.ones(4), size=(2, 5))
    rows[1] = rows[1, 0]
    pd = PredictiveDistribution.from_samples(rows)
    np.testing.assert_array_equal(pd.mean_probs[1], rows[1, 0])
    assert bald(pd)[1] == 0.0 and bald(pd)[0] > 0.0


def test_one_example_has_no_examples_to_index():
    pd = PredictiveDistribution.from_samples(np.array([[0.5, 0.5]]))
    with pytest.raises(TypeError):
        len(pd)


def test_from_samples_rejects_shapes_other_than_t_k_or_m_t_k():
    # one array cannot hold examples of unequal T; these shapes are all it
    # can be instead
    for shape in [(4,), (2, 3, 4, 5), (0, 3), (2, 0, 3)]:
        with pytest.raises(DataError, match="T x K or M x T x K"):
            PredictiveDistribution.from_samples(np.full(shape, 0.5))


# ---- report -------------------------------------------------------------------


def test_report_argmax_and_confidence():
    pd = PredictiveDistribution.from_samples(np.array([[0.2, 0.5, 0.3]]))
    r = report(pd)
    assert r.predicted_class == 1
    assert r.confidence == pytest.approx(0.5)


def test_report_tie_breaks_to_lowest_index():
    pd = PredictiveDistribution.from_samples(np.array([[0.5, 0.5]]))
    assert report(pd).predicted_class == 0


def test_report_fields_consistent():
    rng = np.random.default_rng(4)
    for _ in range(50):
        r = report(random_pd(rng))
        assert r.bald == pytest.approx(r.predictive_entropy - r.expected_entropy, abs=1e-12)
        assert 0.0 <= r.confidence <= 1.0


# ---- mc_predict ------------------------------------------------------------------


def test_mc_predict_deterministic_head_identical_rows():
    head = head_for(DETERMINISTIC)
    x = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
    pd = mc_predict(head, x, t=7, seed=0)
    assert pd.sample_probs.shape == (3, 7, 3)
    assert (pd.sample_probs == pd.sample_probs[:, :1]).all()
    assert (bald(pd) == 0.0).all()


def test_mc_predict_single_sample_degeneracy():
    head = head_for(STOCHASTIC_VI)
    x = Tensor(np.random.default_rng(6).normal(size=(2, 4)))
    pd = mc_predict(head, x, t=1, seed=1)
    assert (expected_entropy(pd) == predictive_entropy(pd)).all()
    assert (bald(pd) == 0.0).all()


def test_mc_predict_rejects_bad_t():
    head = head_for(DETERMINISTIC)
    with pytest.raises(ConfigError):
        mc_predict(head, Tensor(np.zeros((1, 4))), t=0, seed=0)


def test_mc_predict_is_reproducible():
    head = head_for(MC_DROPOUT)
    x = Tensor(np.random.default_rng(7).normal(size=(4, 4)))
    a = mc_predict(head, x, t=5, seed=3)
    b = mc_predict(head, x, t=5, seed=3)
    np.testing.assert_array_equal(a.sample_probs, b.sample_probs)


def test_mc_predict_convergence_with_more_samples():
    head = head_for(STOCHASTIC_VI, seed=8)
    x = Tensor(np.random.default_rng(9).normal(size=(1, 4)))
    small = mc_predict(head, x, t=40, seed=4)[0]
    large = mc_predict(head, x, t=4000, seed=5)[0]
    bound = 5.0 / math.sqrt(4000)
    assert np.abs(small.mean_probs - large.mean_probs).max() < bound


@pytest.mark.parametrize(
    "variant,estimator",
    [(DETERMINISTIC, "flipout"), (MC_DROPOUT, "flipout"), (STOCHASTIC_VI, "flipout"),
     (STOCHASTIC_VI, "reparam")],
)
def test_mc_predict_equals_a_loop_of_independent_passes(variant, estimator):
    # each pass on its own: no state shared between passes. The loop runs
    # the reparam head with the same parameters, since inference samples a
    # Flipout layer's weights as the reparam forward does. Hidden widths
    # and class count all differ, so that no layer can pass with another
    # layer's output array or mask; rate 0 draws no mask at all
    x = Tensor(np.random.default_rng(13).normal(size=(9, 5)))
    for dims, rate in (((7, 4), 0.2), ((4, 7), 0.2), ((7, 4), 0.0)):
        head, ref = (
            build_head(HeadConfig(5, dims, 3, variant, rate, estimator=e), init_seed=12)
            for e in (estimator, "reparam")
        )
        passes = []
        for i in range(4):
            bundle = draw_noise_bundle(ref, 9, np.random.default_rng((7, i)), MC_INFERENCE)
            log_probs, _ = forward(ref, x, bundle, MC_INFERENCE)
            passes.append(np.exp(log_probs.data))
        pd = mc_predict(head, x, t=4, seed=7)
        np.testing.assert_array_equal(pd.sample_probs, np.stack(passes, axis=1))


def test_flipout_and_reparam_heads_with_one_theta_predict_the_same_bytes():
    rng = np.random.default_rng(14)
    heads = [build_head(HeadConfig(5, (7, 3), 3, STOCHASTIC_VI, estimator=e), init_seed=0)
             for e in ("flipout", "reparam")]
    # every rho (odd index) near -2, so that sigma is about 0.13
    theta = [rng.normal(size=p.data.shape) - 2.0 * (j % 2)
             for j, p in enumerate(heads[0].parameters())]
    for head in heads:
        for p, value in zip(head.parameters(), theta, strict=True):
            p.data = value.copy()
    x = Tensor(rng.normal(size=(9, 5)))
    flip, rep = (mc_predict(head, x, t=6, seed=8).sample_probs for head in heads)
    assert flip.tobytes() == rep.tobytes()
    assert not (flip == flip[:, :1]).all()  # the passes differ


@pytest.mark.parametrize("estimator", ["flipout", "reparam"])
def test_mc_predict_computes_each_posterior_kl_once(estimator, monkeypatch):
    # the std and KL of a posterior do not change between passes: each
    # layer's sweep forms the KL terms of its two posteriors, joined, once
    layers_mod = importlib.import_module("bvihead.layers")
    calls = []
    real_kl_terms = layers_mod.kl_terms

    def counting(mu, std, prior, **kwargs):
        calls.append(mu.tobytes())
        return real_kl_terms(mu, std, prior, **kwargs)

    monkeypatch.setattr(layers_mod, "kl_terms", counting)
    head = build_head(HeadConfig(5, (7, 3), 3, STOCHASTIC_VI, estimator=estimator), init_seed=12)
    x = Tensor(np.random.default_rng(13).normal(size=(9, 5)))
    for _ in range(2):
        calls.clear()
        mc_predict(head, x, t=6, seed=7)
        assert calls == [
            layer.weight_post.mu.data.tobytes() + layer.bias_post.mu.data.tobytes()
            for layer in head.layers
        ]


def test_mc_predict_computes_the_dense_first_layer_once(monkeypatch):
    # every MC dropout pass sees the same x, so the first layer's ReLU'd
    # output is formed on the first pass and kept for the others
    model_mod = importlib.import_module("bvihead.model")
    head = build_head(HeadConfig(5, (7, 3), 3, MC_DROPOUT), init_seed=12)
    calls = []
    real_dense = model_mod.dense_forward

    def counting(layer, *args, **kwargs):
        calls.append(head.layers.index(layer))
        return real_dense(layer, *args, **kwargs)

    monkeypatch.setattr(model_mod, "dense_forward", counting)
    x = Tensor(np.random.default_rng(13).normal(size=(9, 5)))
    mc_predict(head, x, t=5, seed=7)
    assert calls.count(0) == 1 and calls.count(1) == calls.count(2) == 5


@pytest.mark.parametrize("variant", [DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI])
def test_mc_predict_first_layer_overflow_raises_on_the_first_pass(variant, monkeypatch):
    # the dense variants compute the first layer once, and check it then
    head = build_head(HeadConfig(5, (7, 3), 3, variant), init_seed=12)
    layer = head.layers[0]
    weight = layer.weight if variant != STOCHASTIC_VI else layer.weight_post.mu
    weight.data = np.full(weight.shape, 1e308)
    passes = []
    real_forward = uncertainty_mod.forward

    def counting_forward(*args, **kwargs):
        passes.append(len(passes))
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(uncertainty_mod, "forward", counting_forward)
    x = Tensor(np.full((4, 5), 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="layer 0"):
            mc_predict(head, x, t=5, seed=3)
    assert passes == [0]


def set_weight_means(head, values):
    for layer, value in zip(head.layers, values):
        weight = layer.weight if head.config.variant != STOCHASTIC_VI else layer.weight_post.mu
        weight.data = np.full(weight.shape, value)


@pytest.mark.parametrize("value", [1e150, -1e150])  # an in-place relu would map -inf to 0
@pytest.mark.parametrize("index", [1, 2])
@pytest.mark.parametrize("variant", [DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI])
def test_mc_predict_hidden_overflow_names_its_layer_on_the_first_pass(
    variant, index, value, monkeypatch
):
    # the layers before `index` map rows of 1e200 to activations of at
    # least 5e200, which layer `index` then takes to +-inf; the weights
    # stay small enough for a finite KL
    head = build_head(HeadConfig(5, (7, 6), 3, variant), init_seed=12)
    set_weight_means(head, [1.0] * index + [value])
    passes = []
    real_forward = uncertainty_mod.forward

    def counting_forward(*args, **kwargs):
        passes.append(len(passes))
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(uncertainty_mod, "forward", counting_forward)
    x = Tensor(np.full((4, 5), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=f"layer {index}"):
            mc_predict(head, x, t=3, seed=3)
    assert passes == [0]


@pytest.mark.parametrize("variant", [DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI])
def test_mc_predict_peak_memory_is_at_most_four_hidden_arrays(variant):
    # the passes reuse one workspace: a dense first layer's output, one
    # array per other layer or the dropout masks, and nothing as wide
    # per pass; an MC-dropout pass that allocates every layer output and
    # dropout product anew peaks at about six
    m = 2000
    head = build_head(HeadConfig(16, (256, 256), 8, variant), init_seed=12)
    x = Tensor(np.random.default_rng(13).normal(size=(m, 16)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mc_predict(head, x, t=2, seed=7)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    hidden_array = m * 256 * 8
    assert peak <= 4 * hidden_array, f"{peak / hidden_array:.2f} hidden arrays"


HEADS = [(DETERMINISTIC, "flipout"), (MC_DROPOUT, "flipout"),
         (STOCHASTIC_VI, "flipout"), (STOCHASTIC_VI, "reparam")]


def mc_bytes(variant, estimator, dims, k, m, seed=14):
    head = build_head(HeadConfig(12, dims, k, variant, estimator=estimator), init_seed=seed)
    x = Tensor(np.random.default_rng(seed).normal(size=(m, 12)))
    return mc_predict(head, x, t=3, seed=seed).sample_probs.tobytes()


@pytest.mark.parametrize("variant, estimator", HEADS)
@pytest.mark.parametrize("dims, k, m", [((256, 256), 8, 2049), ((300, 300), 10, 1025)])
@pytest.mark.parametrize("split_values", [layers.SPLIT_VALUES, 2])
def test_mc_predict_in_row_halves_writes_the_bytes_of_whole_steps(
    monkeypatch, variant, estimator, dims, k, m, split_values
):
    # a 300-column product over 1,025 rows, and the 10-column output
    # layer's when every step splits, would give some values other last
    # bits in halves than in one call on SkylakeX; they stay whole
    monkeypatch.setattr(layers, "SPLIT_VALUES", split_values)
    halves = mc_bytes(variant, estimator, dims, k, m)
    monkeypatch.setattr(layers, "SPLIT_VALUES", 10**12)
    assert mc_bytes(variant, estimator, dims, k, m) == halves


@pytest.mark.parametrize("variant", [DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI])
@pytest.mark.parametrize("index", [0, 1])
def test_mc_predict_names_an_overflow_in_the_last_row_as_whole_steps_do(
    monkeypatch, variant, index
):
    # layer `index` takes the last row's activations of 1e200 or more past
    # the float64 range; the upper row half on the worker finds it
    head = build_head(HeadConfig(5, (256, 256), 3, variant), init_seed=12)
    set_weight_means(head, [1.0] * index + [1e150])
    x = np.ones((2049, 5))
    x[-1] = 1e200
    errors = []
    for split_values in (layers.SPLIT_VALUES, 10**12):
        monkeypatch.setattr(layers, "SPLIT_VALUES", split_values)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as exc:
                mc_predict(head, Tensor(x), t=2, seed=3)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == f"layer {index}: forward produced non-finite values"


def test_mc_predict_bounds_the_result_before_any_pass(monkeypatch):
    # 1,251 rows * 10**4 passes * 8 classes are 100,080,000 > 10**8 values
    monkeypatch.setattr(uncertainty_mod, "forward", None)  # no pass may start
    head = build_head(HeadConfig(5, (7, 3), 8, STOCHASTIC_VI), init_seed=12)
    with pytest.raises(ConfigError, match=r"inference.mc_samples: 10000 passes over 1251 rows"):
        mc_predict(head, Tensor(np.zeros((1251, 5))), t=10**4, seed=0)


def test_mc_predict_stochastic_passes_differ():
    head = head_for(STOCHASTIC_VI, seed=10)
    x = Tensor(np.random.default_rng(11).normal(size=(1, 4)))
    pd = mc_predict(head, x, t=4, seed=6)[0]
    assert not (pd.sample_probs == pd.sample_probs[0]).all()


# ---- csv ---------------------------------------------------------------------


def test_reports_csv_header_and_rows():
    rng = np.random.default_rng(12)
    batch = np.stack([random_pd(rng, t=5, k=4).sample_probs for _ in range(3)])
    columns = report(PredictiveDistribution.from_samples(batch))
    csv_text = reports_to_csv(columns, np.array([0, 1, -1]))
    lines = csv_text.strip().split("\n")
    assert (
        lines[0]
        == "example_id,true_label,predicted,confidence,pred_entropy,exp_entropy,bald,is_ood"
    )
    assert len(lines) == 4
    assert lines[3].split(",")[1] == "-1"
    assert lines[3].split(",")[-1] == "1"
    assert lines[2].split(",")[3:7] == [repr(float(c[1])) for c in columns[1:]]
