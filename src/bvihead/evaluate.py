"""Evaluation instruments: top-k accuracy, ROC/PR curves, density histograms.

Curves sweep the distinct scores in descending order with ties grouped.
ROC area uses the trapezoidal rule, which equals the normalized
pairwise-ordering statistic with ties counted half. PR area uses the
average-precision step sum, not trapezoids, which would be optimistic.
Histograms are area-normalized: sum(density * width) == 1.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import OOD_LABEL
from .errors import ConfigError, DataError, UndefinedCurveError
from .fsio import atomic_write_text, csv_text
from .uncertainty import PredictiveDistribution, ReportColumns, report

# far beyond any plot; caps a histogram's counts at 8 MB
MAX_BINS = 10**6


@dataclass(frozen=True)
class ScoredBinary:
    scores: np.ndarray
    labels: np.ndarray  # True = positive

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=bool))
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise DataError(
                f"scores {self.scores.shape} and labels {self.labels.shape}"
                " must be equal-length vectors"
            )

    @property
    def n_pos(self) -> int:
        return int(self.labels.sum())

    @property
    def n_neg(self) -> int:
        return int((~self.labels).sum())


@dataclass(frozen=True)
class Curve:
    thresholds: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    auc: float

    def to_csv(self) -> str:
        columns = np.array((self.thresholds, self.xs, self.ys), dtype=np.float64)
        return csv_text(("threshold", "x", "y"), columns.T.tolist())


@dataclass(frozen=True)
class DensityHistogram:
    bin_edges: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bin_edges", np.asarray(self.bin_edges, dtype=np.float64))
        object.__setattr__(self, "densities", np.asarray(self.densities, dtype=np.float64))
        if self.bin_edges.ndim != 1 or self.bin_edges.size != self.densities.size + 1:
            raise DataError("need B+1 edges for B densities")
        if not (np.diff(self.bin_edges) > 0).all():
            raise DataError("bin edges must be strictly increasing")
        if (self.densities < 0).any():
            raise DataError("densities must be nonnegative")
        area = float((self.densities * np.diff(self.bin_edges)).sum())
        if abs(area - 1.0) > 1e-9:
            raise DataError(f"histogram area {area!r} is not 1 within 1e-9")

    def to_csv(self) -> str:
        edges = self.bin_edges
        columns = np.array((edges[:-1], edges[1:], self.densities))
        return csv_text(("bin_lo", "bin_hi", "density"), columns.T.tolist())


def top_k_accuracy(mean_probs: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of rows whose label ranks in the top k probabilities.

    Ties rank the lower class index first.
    """
    mean_probs = np.asarray(mean_probs, dtype=np.float64)
    labels = np.asarray(labels)
    n, num_classes = mean_probs.shape
    if k > num_classes:
        raise ConfigError(f"k={k} exceeds the {num_classes} classes")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    order = np.argsort(-mean_probs, axis=1, kind="stable")
    hits = (order[:, :k] == labels[:, None]).any(axis=1)
    return float(hits.mean())


def _sweep(sb: ScoredBinary):
    """Cumulative TP/FP after each distinct descending score."""
    order = np.argsort(-sb.scores, kind="stable")
    scores = sb.scores[order]
    labels = sb.labels[order]
    distinct = np.where(np.diff(scores))[0]
    last = np.concatenate([distinct, [scores.size - 1]])
    tp = np.cumsum(labels)[last].astype(np.float64)
    fp = np.cumsum(~labels)[last].astype(np.float64)
    return scores[last], tp, fp


def roc_curve_auc(sb: ScoredBinary) -> Curve:
    """ROC curve from (0,0) to (1,1); trapezoidal area."""
    if sb.n_pos == 0 or sb.n_neg == 0:
        raise UndefinedCurveError(
            f"ROC needs both classes, got {sb.n_pos} positives and {sb.n_neg} negatives"
        )
    thresholds, tp, fp = _sweep(sb)
    tpr = np.concatenate([[0.0], tp / sb.n_pos])
    fpr = np.concatenate([[0.0], fp / sb.n_neg])
    thresholds = np.concatenate([[np.inf], thresholds])
    auc = float((np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0).sum())
    return Curve(thresholds, fpr, tpr, auc)


def pr_curve_auc(sb: ScoredBinary) -> Curve:
    """Precision-recall curve; area by the step-interpolated AP sum."""
    if sb.n_pos == 0:
        raise UndefinedCurveError("PR needs at least one positive example")
    thresholds, tp, fp = _sweep(sb)
    precision = tp / (tp + fp)
    recall = tp / sb.n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    auc = float(((recall - prev_recall) * precision).sum())
    return Curve(thresholds, recall, precision, auc)


def density_histogram(values, bins: int, lo: float, hi: float) -> DensityHistogram:
    """Equal-width area-one histogram; out-of-range values clip to edge bins.

    `bins` must be in [1, MAX_BINS] and [lo, hi] a finite range wide enough
    for that many bins; anything else raises ConfigError.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise DataError("cannot build a histogram from no values")
    if not 1 <= bins <= MAX_BINS:
        raise ConfigError(f"bins must be in [1, {MAX_BINS}], got {bins}")
    width = (hi - lo) / bins
    bad_range = ConfigError(f"need finite lo < hi, wide enough for {bins} bins, got [{lo}, {hi}]")
    # an infinite or NaN bound fails too; a subnormal width would overflow the densities
    if not (hi > lo and math.isfinite(hi - lo) and width >= sys.float_info.min):
        raise bad_range
    clipped = np.clip(values, lo, hi)
    try:
        counts, edges = np.histogram(clipped, bins=bins, range=(lo, hi))
    except ValueError:  # numpy found no `bins` distinct float edges in the range
        raise bad_range from None
    densities = counts / (values.size * width)
    return DensityHistogram(edges, densities)


# ---- the full protocol -------------------------------------------------------

# in the order of the comparison table's columns
SUMMARY_KEYS = (
    "top1",
    "top5",
    "pr_auc_micro",
    "pr_auc_correctness",
    "roc_auc_micro",
    "roc_auc_correctness",
    "ood_auroc_entropy",
    "ood_auroc_bald",
)


@dataclass
class EvalBundle:
    summary: dict
    curves: dict[str, Curve] = field(default_factory=dict)
    histograms: dict[str, DensityHistogram] = field(default_factory=dict)
    notices: list[str] = field(default_factory=list)
    reports: ReportColumns | None = None

    def summary_json(self) -> str:
        return json.dumps(self.summary, indent=1, sort_keys=True) + "\n"


def _try_hist(bundle, name, values, bins, lo, hi):
    if len(values) == 0:
        bundle.notices.append(f"skipped histogram {name}: no examples in group")
        return
    bundle.histograms[name] = density_histogram(values, bins, lo, hi)


def _curves(bundle, name, sb, roc_key, pr_key=None):
    """The ROC curve of sb as curve roc_<name>, its area as summary roc_key;
    given pr_key, the PR curve as pr_<name> and its area likewise."""
    roc = bundle.curves[f"roc_{name}"] = roc_curve_auc(sb)
    bundle.summary[roc_key] = roc.auc
    if pr_key is not None:
        pr = bundle.curves[f"pr_{name}"] = pr_curve_auc(sb)
        bundle.summary[pr_key] = pr.auc


def evaluation_suite(pd: PredictiveDistribution, labels: np.ndarray, bins: int = 50) -> EvalBundle:
    """All comparison artifacts for one model on one evaluation set.

    `pd` is the M x T x K distribution of in-distribution and OOD examples
    together; OOD rows carry label OOD_LABEL and are excluded from
    accuracy, the micro one-vs-rest curves and the correctness split.
    """
    labels = np.asarray(labels)
    if len(pd) != labels.size:
        raise DataError(f"length mismatch: {len(pd)} distributions, {labels.size} labels")
    if len(pd) == 0:
        raise DataError("nothing to evaluate")

    k = pd.k
    mean_probs = pd.mean_probs
    columns = report(pd)
    predicted, confidence, pred_entropy, _, bald_scores = columns

    ood = labels == OOD_LABEL
    in_dist = ~ood
    bundle = EvalBundle(summary={key: None for key in SUMMARY_KEYS}, reports=columns)
    if not in_dist.any():
        raise DataError("evaluation needs at least one in-distribution example")
    in_labels = labels[in_dist]
    outside = (in_labels < 0) | (in_labels >= k)
    if outside.any():
        raise DataError(f"in-distribution label {in_labels[outside][0]} is outside [0, {k})")

    # (a) accuracies on in-distribution data
    bundle.summary["top1"] = top_k_accuracy(mean_probs[in_dist], in_labels, 1)
    bundle.summary["top5"] = top_k_accuracy(mean_probs[in_dist], in_labels, min(5, k))

    # (b) micro one-vs-rest curves over (example, class) pairs
    onehot = np.zeros((in_labels.size, k), dtype=bool)
    onehot[np.arange(in_labels.size), in_labels] = True
    micro = ScoredBinary(mean_probs[in_dist].reshape(-1), onehot.reshape(-1))
    _curves(bundle, "micro", micro, "roc_auc_micro", "pr_auc_micro")

    # (c) correctness detection: does confidence rank correct predictions first
    correct = predicted[in_dist] == in_labels
    try:
        _curves(bundle, "correctness", ScoredBinary(confidence[in_dist], correct),
                "roc_auc_correctness", "pr_auc_correctness")
    except UndefinedCurveError as exc:
        bundle.notices.append(f"correctness curves undefined: {exc}")

    # (d, e) density histograms
    ln_k = float(np.log(k))
    scores = (("confidence", confidence, 1.0), ("entropy", pred_entropy, ln_k),
              ("bald", bald_scores, ln_k))
    for name, values, hi in scores:
        _try_hist(bundle, f"{name}_true", values[in_dist][correct], bins, 0.0, hi)
        _try_hist(bundle, f"{name}_false", values[in_dist][~correct], bins, 0.0, hi)

    if ood.any():
        for name, values, hi in scores:
            _try_hist(bundle, f"{name}_in", values[in_dist], bins, 0.0, hi)
            _try_hist(bundle, f"{name}_out", values[ood], bins, 0.0, hi)

        # (f) OOD detection: uncertainty as the score, OOD as the positive
        for name, values in (("entropy", pred_entropy), ("bald", bald_scores)):
            _curves(bundle, f"ood_{name}", ScoredBinary(values, ood), f"ood_auroc_{name}")
    else:
        bundle.notices.append(
            "no OOD examples: skipped in/out histograms and OOD AUROC"
        )
    return bundle


def write_bundle(bundle: EvalBundle, out_dir) -> None:
    """Write summary JSON plus one CSV per curve and histogram."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "summary.json", bundle.summary_json())
    for name, curve in bundle.curves.items():
        atomic_write_text(out / f"curve_{name}.csv", curve.to_csv())
    for name, hist in bundle.histograms.items():
        atomic_write_text(out / f"hist_{name}.csv", hist.to_csv())
    if bundle.notices:
        atomic_write_text(out / "notices.txt", "\n".join(bundle.notices) + "\n")
