"""Monte Carlo predictive inference and uncertainty measures.

T stochastic forward passes produce per-pass class probabilities; their
mean over the passes is the predictive distribution. From it come the
confidence (max mean probability), the predictive entropy, the expected
per-pass entropy, and their difference, the mutual-information
disagreement score (BALD). Entropies are in nats with 0 log 0 := 0 and no
probability is clamped, so BALD is >= 0 up to rounding (about 1e-15 when
passes differ only in their last bits) and exactly 0 when they agree.

One `PredictiveDistribution` holds one example (T x K) or M examples
(M x T x K); every measure runs the same array code on either and returns
a float for one example or an (M,) array for M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import MAX_FEATURE_VALUES, OOD_LABEL
from .errors import ConfigError, DataError
from .fsio import atomic_write_text, csv_text
from .layers import MC_INFERENCE
from .model import Head, draw_noise_bundle, forward, mc_workspace
from .model import zero_noise_bundle  # noqa: F401  # perfbench/tracer.py wraps it here
from .tensor import Tensor


@dataclass
class PredictiveDistribution:
    """Per-pass probabilities, T x K for one example or M x T x K for M,
    and `mean_probs`, derived from them: their mean over the passes (K or
    M x K). Indexing or iterating over M examples gives one example's
    T x K distribution."""

    sample_probs: np.ndarray
    mean_probs: np.ndarray = field(init=False)

    def __post_init__(self):
        self.sample_probs = s = np.asarray(self.sample_probs, dtype=np.float64)
        if s.ndim not in (2, 3) or s.shape[-2] == 0:
            raise DataError(f"sample_probs must be T x K or M x T x K, T >= 1, not {s.shape}")
        if not (np.abs(s.sum(axis=-1) - 1.0) <= 1e-9).all():
            raise DataError("each sample row must sum to 1 within 1e-9")
        if not ((s >= 0) & (s <= 1)).all():
            raise DataError("sample probabilities must lie in [0, 1]")
        first = s[..., 0, :]
        # an example whose passes are identical takes its first row as the
        # mean, so that its BALD is exactly zero instead of within rounding
        identical = (s == first[..., None, :]).all(axis=(-2, -1))
        self.mean_probs = np.where(identical[..., None], first, s.mean(axis=-2))

    @classmethod
    def from_samples(cls, sample_probs) -> "PredictiveDistribution":
        """The distribution of T x K or M x T x K per-pass probabilities."""
        return cls(sample_probs)

    @property
    def k(self) -> int:
        return self.sample_probs.shape[-1]

    def __len__(self) -> int:
        if self.sample_probs.ndim != 3:
            raise TypeError("a one-example distribution has no len")
        return len(self.sample_probs)

    def __getitem__(self, j) -> "PredictiveDistribution":  # also drives iteration
        return PredictiveDistribution(self.sample_probs[j])


class ReportColumns(NamedTuple):
    """The summary columns of report.csv: scalars for one example, (M,) arrays for M."""

    predicted_class: np.ndarray
    confidence: np.ndarray
    predictive_entropy: np.ndarray
    expected_entropy: np.ndarray
    bald: np.ndarray


def _entropies(probs: np.ndarray) -> np.ndarray:
    """Entropy along the last axis, in nats, with 0 log 0 := 0."""
    return -(probs * np.log(probs, out=np.zeros_like(probs), where=probs > 0)).sum(axis=-1)


def _expected_entropies(sample_probs: np.ndarray) -> np.ndarray:
    """Mean over passes (axis -2) of the per-pass entropy, in nats."""
    ents = _entropies(sample_probs)
    # averaging equal values must not introduce rounding
    identical = (ents == ents[..., :1]).all(axis=-1)
    return np.where(identical, ents[..., 0], ents.mean(axis=-1))


def _value(a):
    """A float for one example, the (M,) array for M."""
    return float(a) if np.ndim(a) == 0 else a


def predictive_entropy(pd: PredictiveDistribution):
    """Entropy of the mean predictive probabilities, in nats."""
    return _value(_entropies(pd.mean_probs))


def expected_entropy(pd: PredictiveDistribution):
    """Mean over passes of the per-pass entropy, in nats."""
    return _value(_expected_entropies(pd.sample_probs))


def bald(pd: PredictiveDistribution):
    """Predictive entropy minus expected entropy (mutual information)."""
    return _value(_entropies(pd.mean_probs) - _expected_entropies(pd.sample_probs))


def report(pd: PredictiveDistribution) -> ReportColumns:
    """Predicted class, confidence, both entropies and BALD of every
    example; argmax ties break toward the lowest index."""
    pe = _entropies(pd.mean_probs)
    ee = _expected_entropies(pd.sample_probs)
    predicted, confidence = np.argmax(pd.mean_probs, axis=-1), pd.mean_probs.max(axis=-1)
    return ReportColumns(predicted, confidence, pe, ee, pe - ee)


def check_mc_size(m: int, t: int, k: int) -> None:
    """ConfigError unless t >= 1 and t passes over m rows of k classes are
    at most MAX_FEATURE_VALUES probabilities."""
    if t < 1:
        raise ConfigError(f"sample count must be >= 1, got {t}")
    if m * t * k > MAX_FEATURE_VALUES:
        raise ConfigError(f"inference.mc_samples: {t} passes over {m} rows of {k} classes"
                          f" are {m * t * k} probabilities, more than {MAX_FEATURE_VALUES}")


def mc_predict(head: Head, x: Tensor, t: int, seed: int) -> PredictiveDistribution:
    """Run t stochastic passes over the M examples of x; one M x T x K
    distribution. Pass i draws its MC_INFERENCE noise bundle from a
    generator sub-seeded with (seed, i), so results do not depend on
    execution order and are reproducible. The passes share one
    `mc_workspace`: each posterior is swept once per call, a dense first
    layer's output is computed once, and each layer's output array is
    allocated once."""
    m, k = x.shape[0], head.config.num_classes
    check_mc_size(m, t, k)  # before any pass
    all_probs = np.empty((m, t, k))
    workspace = mc_workspace(head)
    for i in range(t):
        bundle = draw_noise_bundle(head, m, np.random.default_rng((seed, i)), MC_INFERENCE)
        log_probs, _ = forward(head, x, bundle, MC_INFERENCE, workspace)
        del bundle  # its masks hold this pass's activations: freed before the next draw
        np.exp(log_probs.data, out=all_probs[:, i])
    return PredictiveDistribution.from_samples(all_probs)


def reports_to_csv(columns: ReportColumns, labels: np.ndarray) -> str:
    """report.csv: one row per example; is_ood is 1 where the label is OOD_LABEL."""
    labels = np.asarray(labels).astype(np.int64)
    rows = zip(range(len(labels)), labels.tolist(), *(c.tolist() for c in columns),
               (labels == OOD_LABEL).astype(np.int64).tolist())
    return csv_text(("example_id", "true_label", "predicted", "confidence", "pred_entropy",
                     "exp_entropy", "bald", "is_ood"), rows)


def save_reports(path, columns, labels) -> None:
    atomic_write_text(path, reports_to_csv(columns, labels))
