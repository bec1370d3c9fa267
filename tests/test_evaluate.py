import math

import numpy as np
import pytest

from bvihead.errors import ConfigError, DataError, UndefinedCurveError
from bvihead.evaluate import (
    SUMMARY_KEYS,
    DensityHistogram,
    ScoredBinary,
    density_histogram,
    evaluation_suite,
    pr_curve_auc,
    roc_curve_auc,
    top_k_accuracy,
    write_bundle,
)
from bvihead.uncertainty import PredictiveDistribution, report


def brute_force_auc(scores, labels):
    """Fraction of (positive, negative) pairs ranked correctly; ties half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def one_pass_pd(rows):
    """M examples of one pass each, from their M x K probabilities."""
    return PredictiveDistribution.from_samples(np.asarray(rows)[:, None, :])


# ---- top-k -------------------------------------------------------------------


def test_top_k_equals_num_classes_is_always_one():
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(4), size=10)
    labels = rng.integers(0, 4, size=10)
    assert top_k_accuracy(probs, labels, 4) == 1.0


def test_top_k_one_hot_single_example():
    probs = np.array([[0.0, 1.0, 0.0]])
    assert top_k_accuracy(probs, np.array([1]), 1) == 1.0


def test_top_k_hand_enumerated_case():
    probs = np.array(
        [
            [0.7, 0.2, 0.1],
            [0.1, 0.6, 0.3],
            [0.4, 0.5, 0.1],
            [0.1, 0.5, 0.4],
        ]
    )
    labels = np.array([0, 1, 0, 0])
    assert top_k_accuracy(probs, labels, 1) == 0.5
    assert top_k_accuracy(probs, labels, 2) == 0.75


def test_top_k_tie_ranks_lower_index_first():
    probs = np.array([[0.4, 0.4, 0.2]])
    assert top_k_accuracy(probs, np.array([0]), 1) == 1.0
    assert top_k_accuracy(probs, np.array([1]), 1) == 0.0


def test_top_k_rejects_bad_k():
    with pytest.raises(ConfigError):
        top_k_accuracy(np.ones((1, 3)) / 3, np.array([0]), 4)


# ---- ROC ---------------------------------------------------------------------


def test_roc_perfect_separation():
    sb = ScoredBinary([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
    assert roc_curve_auc(sb).auc == 1.0


def test_roc_hand_case():
    sb = ScoredBinary([0.9, 0.8, 0.7, 0.6], [True, False, True, False])
    assert roc_curve_auc(sb).auc == pytest.approx(0.75, abs=1e-12)


def test_roc_coin_labels_near_half():
    rng = np.random.default_rng(1)
    n = 10**4
    scores = rng.normal(size=n)
    labels = rng.integers(0, 2, size=n).astype(bool)
    assert abs(roc_curve_auc(ScoredBinary(scores, labels)).auc - 0.5) < 0.02


def test_roc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(4, 51))
        scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        labels = rng.integers(0, 2, size=n).astype(bool)
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        auc = roc_curve_auc(ScoredBinary(scores, labels)).auc
        assert abs(auc - brute_force_auc(scores, labels)) < 1e-12


def test_roc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=60)
    labels = rng.integers(0, 2, size=60).astype(bool)
    labels[0], labels[1] = True, False
    base = roc_curve_auc(ScoredBinary(scores, labels)).auc
    warped = roc_curve_auc(ScoredBinary(np.exp(3 * scores), labels)).auc
    assert warped == pytest.approx(base, abs=1e-12)


def test_roc_rejects_single_class():
    with pytest.raises(UndefinedCurveError):
        roc_curve_auc(ScoredBinary([0.1, 0.2], [True, True]))


def test_roc_curve_endpoints():
    curve = roc_curve_auc(ScoredBinary([0.9, 0.1], [True, False]))
    assert curve.xs[0] == 0.0 and curve.ys[0] == 0.0
    assert curve.xs[-1] == 1.0 and curve.ys[-1] == 1.0
    assert math.isinf(curve.thresholds[0])


# ---- PR ----------------------------------------------------------------------


def test_pr_perfect_ranking():
    sb = ScoredBinary([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
    assert pr_curve_auc(sb).auc == pytest.approx(1.0, abs=1e-12)


def test_pr_single_positive_ranked_second():
    sb = ScoredBinary([0.9, 0.8], [False, True])
    assert pr_curve_auc(sb).auc == pytest.approx(0.5, abs=1e-12)


def test_pr_hand_evaluated_three_points():
    sb = ScoredBinary([0.9, 0.8, 0.7], [True, False, True])
    assert pr_curve_auc(sb).auc == pytest.approx(1 * 0.5 + (2 / 3) * 0.5, abs=1e-12)


def test_pr_rejects_no_positives():
    with pytest.raises(UndefinedCurveError):
        pr_curve_auc(ScoredBinary([0.5, 0.2], [False, False]))


def test_pr_and_roc_auc_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n).astype(bool)
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        sb = ScoredBinary(scores, labels)
        assert 0.0 <= roc_curve_auc(sb).auc <= 1.0
        assert 0.0 <= pr_curve_auc(sb).auc <= 1.0


# ---- histograms -----------------------------------------------------------------


def test_histogram_single_value_single_bin():
    hist = density_histogram([0.3], 1, 0.0, 1.0)
    np.testing.assert_allclose(hist.densities, [1.0])


def test_histogram_area_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        values = rng.normal(size=int(rng.integers(1, 200)))
        hist = density_histogram(values, 13, -2.0, 2.0)
        area = (hist.densities * np.diff(hist.bin_edges)).sum()
        assert abs(area - 1.0) < 1e-9


def test_histogram_uniform_statistical_oracle():
    rng = np.random.default_rng(6)
    values = rng.uniform(size=10**6)
    hist = density_histogram(values, 10, 0.0, 1.0)
    np.testing.assert_allclose(hist.densities, 1.0, atol=0.02)


def test_histogram_clips_out_of_range_into_edge_bins():
    # -5 clips into the first bin, +5 into the last; 0.5 sits on the upper bin
    hist = density_histogram([-5.0, 0.5, 5.0], 2, 0.0, 1.0)
    np.testing.assert_allclose(hist.densities * 0.5 * 3, [1.0, 2.0])


def test_histogram_rejects_empty_and_bad_range():
    with pytest.raises(DataError):
        density_histogram([], 5, 0.0, 1.0)
    with pytest.raises(ConfigError):
        density_histogram([0.5], 0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        density_histogram([0.5], 5, 1.0, 1.0)


def test_histogram_type_validates_area():
    with pytest.raises(DataError, match="area"):
        DensityHistogram(np.array([0.0, 1.0]), np.array([0.5]))


# ---- evaluation suite ------------------------------------------------------------


def suite_fixture(rng, n_in=30, n_ood=20, k=4, spread=2.0):
    """M x T x K per-pass probabilities and labels, -1 for the OOD rows."""
    samples = []
    labels = []
    for _ in range(n_in):
        label = int(rng.integers(0, k))
        logits = rng.normal(size=k)
        logits[label] += spread
        rows = np.exp(np.stack([logits + 0.3 * rng.normal(size=k) for _ in range(8)]))
        rows /= rows.sum(axis=1, keepdims=True)
        samples.append(rows)
        labels.append(label)
    for _ in range(n_ood):
        rows = np.exp(rng.normal(size=(8, k)))
        rows /= rows.sum(axis=1, keepdims=True)
        samples.append(rows)
        labels.append(-1)
    return np.stack(samples), np.array(labels)


def test_suite_emits_all_summary_keys_with_ood():
    rng = np.random.default_rng(7)
    samples, labels = suite_fixture(rng)
    bundle = evaluation_suite(PredictiveDistribution.from_samples(samples), labels)
    assert set(bundle.summary) == set(SUMMARY_KEYS)
    for key in ("top1", "top5", "roc_auc_micro", "pr_auc_micro",
                "ood_auroc_entropy", "ood_auroc_bald"):
        assert bundle.summary[key] is not None


def test_suite_without_ood_skips_with_notice():
    rng = np.random.default_rng(8)
    samples, labels = suite_fixture(rng, n_ood=0)
    bundle = evaluation_suite(PredictiveDistribution.from_samples(samples), labels)
    assert bundle.summary["ood_auroc_entropy"] is None
    assert any("no OOD" in n for n in bundle.notices)
    assert "confidence_in" not in bundle.histograms


def test_suite_all_correct_reports_undefined_correctness():
    k = 3
    pd = one_pass_pd([np.eye(k)[i % k] * 0.94 + 0.02 for i in range(6)])
    labels = np.array([i % k for i in range(6)])
    bundle = evaluation_suite(pd, labels)
    assert bundle.summary["roc_auc_correctness"] is None
    assert any("correctness" in n for n in bundle.notices)


def test_suite_perfect_one_hot_micro_auc_is_one():
    k = 5
    eps = 1e-6
    rows = []
    labels = []
    for i in range(10):
        row = np.full(k, eps)
        row[i % k] = 1.0 - eps * (k - 1)
        rows.append(row)
        labels.append(i % k)
    bundle = evaluation_suite(one_pass_pd(rows), np.array(labels))
    assert bundle.summary["roc_auc_micro"] == pytest.approx(1.0, abs=1e-9)


def test_suite_deterministic_head_bald_mass_in_first_bin():
    rng = np.random.default_rng(9)
    samples, labels = suite_fixture(rng, n_in=20, n_ood=0)
    identical = PredictiveDistribution.from_samples(np.repeat(samples[:, :1], 5, axis=1))
    bundle = evaluation_suite(identical, labels)
    hist = bundle.histograms["bald_true"]
    width = float(np.diff(hist.bin_edges)[0])
    assert hist.densities[0] * width == pytest.approx(1.0, abs=1e-12)


def test_suite_length_mismatch():
    rng = np.random.default_rng(10)
    samples, labels = suite_fixture(rng, n_in=4, n_ood=0)
    with pytest.raises(DataError):
        evaluation_suite(PredictiveDistribution.from_samples(samples), labels[:-1])


def one_example_oracle(sample_probs):
    """Report fields of one example's T x K passes, computed row by row."""
    def entropy(probs):
        logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0)  # 0 log 0 := 0
        return float(-(probs * logs).sum())

    mean_probs = sample_probs.mean(axis=0)
    if (sample_probs == sample_probs[0]).all():
        mean_probs = sample_probs[0].copy()
    ents = [entropy(row) for row in sample_probs]
    ee = ents[0] if all(e == ents[0] for e in ents) else float(np.mean(ents))
    predicted = int(np.argmax(mean_probs))
    pe = entropy(mean_probs)
    return (predicted, float(mean_probs[predicted]), pe, ee, pe - ee)


def test_suite_reports_match_one_example_oracle():
    rng = np.random.default_rng(13)
    samples, labels = suite_fixture(rng)
    samples[0] = samples[0, 0]
    samples[1, 0, :2] = [1.0 - samples[1, 0, 2:].sum(), 0.0]  # a zero probability
    pd = PredictiveDistribution.from_samples(samples)
    bundle = evaluation_suite(pd, labels)
    expected = [one_example_oracle(rows) for rows in samples]
    assert list(zip(*(c.tolist() for c in bundle.reports))) == expected
    assert list(zip(*(c.tolist() for c in report(pd)))) == expected
    assert bundle.reports.bald[0] == 0.0


def test_write_bundle_creates_files(tmp_path):
    rng = np.random.default_rng(11)
    samples, labels = suite_fixture(rng)
    bundle = evaluation_suite(PredictiveDistribution.from_samples(samples), labels)
    write_bundle(bundle, tmp_path)
    curves = {f"curve_{kind}_{of}.csv" for kind in ("roc", "pr") for of in ("micro", "correctness")}
    curves |= {f"curve_roc_ood_{score}.csv" for score in ("entropy", "bald")}
    hists = {f"hist_{score}_{split}.csv" for score in ("confidence", "entropy", "bald")
             for split in ("true", "false", "in", "out")}
    assert {p.name for p in tmp_path.iterdir()} == {"summary.json", *curves, *hists}
    curve_text = (tmp_path / "curve_roc_micro.csv").read_text()
    assert curve_text.startswith("threshold,x,y\n")
    for line in curve_text.strip().split("\n")[1:]:
        assert len([float(v) for v in line.split(",")]) == 3
    hist_text = (tmp_path / "hist_confidence_true.csv").read_text()
    assert hist_text.startswith("bin_lo,bin_hi,density\n")
    for line in hist_text.strip().split("\n")[1:]:
        assert len([float(v) for v in line.split(",")]) == 3


@pytest.mark.parametrize("label", [9, -7])
@pytest.mark.parametrize("k", [4, 8])
def test_suite_rejects_an_in_distribution_label_outside_the_classes(k, label):
    # the micro one-hot once wrapped -7 round to a class, or raised IndexError
    rng = np.random.default_rng(14)
    pd = one_pass_pd(rng.dirichlet(np.ones(k), size=4))
    labels = np.array([0, 1, label, -1])
    with pytest.raises(DataError, match=rf"^in-distribution label {label} is outside \[0, {k}\)$"):
        evaluation_suite(pd, labels)
