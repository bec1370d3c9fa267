"""Monte Carlo predictive inference and uncertainty measures.

T stochastic forward passes produce per-pass class probabilities; their
columnwise mean is the predictive distribution. From it come the
confidence (max mean probability), the predictive entropy, the expected
per-pass entropy, and their difference, the mutual-information disagreement
score. All entropies are in nats with probabilities clamped at 1e-12
before the log.

Each pass runs the inference forward, which records no autodiff graph.
The summaries are array operations over all examples at once
(``report_arrays``); the per-example functions run the same formulas.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .fsio import atomic_write_text
from .layers import DETERMINISTIC_INFERENCE
from .model import Head, draw_noise_bundle, forward, inference_phase, zero_noise_bundle
from .tensor import Tensor

PROB_CLAMP = 1e-12


@dataclass
class PredictiveDistribution:
    """T x K per-pass probabilities plus their columnwise mean."""

    sample_probs: np.ndarray
    mean_probs: np.ndarray

    def __post_init__(self):
        self.sample_probs = np.asarray(self.sample_probs, dtype=np.float64)
        self.mean_probs = np.asarray(self.mean_probs, dtype=np.float64)
        if self.sample_probs.ndim != 2:
            raise DataError(
                f"sample_probs must be T x K, got shape {self.sample_probs.shape}"
            )
        rows = self.sample_probs.sum(axis=1)
        if np.abs(rows - 1.0).max() > 1e-9:
            raise DataError("each sample row must sum to 1 within 1e-9")
        if self.sample_probs.min() < 0 or self.sample_probs.max() > 1:
            raise DataError("sample probabilities must lie in [0, 1]")
        if np.abs(self.mean_probs - self.sample_probs.mean(axis=0)).max() > 1e-12:
            raise DataError("mean_probs must be the columnwise mean of sample_probs")

    @classmethod
    def from_samples(cls, sample_probs: np.ndarray) -> "PredictiveDistribution":
        sample_probs = np.asarray(sample_probs, dtype=np.float64)
        if sample_probs.ndim == 2 and (sample_probs == sample_probs[0]).all():
            # identical passes: copy the row so downstream differences are
            # exactly zero instead of within rounding of zero
            mean = sample_probs[0].copy()
        else:
            mean = sample_probs.mean(axis=0)
        return cls(sample_probs, mean)

    @property
    def t(self) -> int:
        return self.sample_probs.shape[0]

    @property
    def k(self) -> int:
        return self.sample_probs.shape[1]


@dataclass(frozen=True)
class UncertaintyReport:
    predicted_class: int
    confidence: float
    predictive_entropy: float
    expected_entropy: float
    bald: float


def _entropies(probs: np.ndarray) -> np.ndarray:
    """Entropy along the last axis, in nats."""
    p = np.clip(probs, PROB_CLAMP, 1.0)
    return -(p * np.log(p)).sum(axis=-1)


def _expected_entropies(sample_probs: np.ndarray) -> np.ndarray:
    """Mean over passes (axis -2) of the per-pass entropy, in nats."""
    ents = _entropies(sample_probs)
    # averaging equal values must not introduce rounding
    identical = (ents == ents[..., :1]).all(axis=-1)
    return np.where(identical, ents[..., 0], ents.mean(axis=-1))


def predictive_entropy(pd: PredictiveDistribution) -> float:
    """Entropy of the mean predictive probabilities, in nats."""
    return float(_entropies(pd.mean_probs))


def expected_entropy(pd: PredictiveDistribution) -> float:
    """Mean over passes of the per-pass entropy, in nats."""
    return float(_expected_entropies(pd.sample_probs))


def bald(pd: PredictiveDistribution) -> float:
    """Predictive entropy minus expected entropy (mutual information)."""
    return predictive_entropy(pd) - expected_entropy(pd)


def report_arrays(mean_probs: np.ndarray, sample_probs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The UncertaintyReport fields of M examples at once, as five arrays.

    `mean_probs` is M x K and `sample_probs` M x T x K. Argmax ties break
    toward the lowest index.
    """
    predicted = np.argmax(mean_probs, axis=1)
    confidence = mean_probs[np.arange(mean_probs.shape[0]), predicted]
    pe = _entropies(mean_probs)
    ee = _expected_entropies(sample_probs)
    return predicted, confidence, pe, ee, pe - ee


def reports_from_arrays(fields: tuple[np.ndarray, ...]) -> list[UncertaintyReport]:
    """One UncertaintyReport per row of the arrays `report_arrays` returns."""
    return [UncertaintyReport(*row) for row in zip(*(a.tolist() for a in fields))]


def report(pd: PredictiveDistribution) -> UncertaintyReport:
    """Summarise one example; argmax ties break toward the lowest index."""
    return reports_from_arrays(report_arrays(pd.mean_probs[None], pd.sample_probs[None]))[0]


def mc_predict(
    head: Head, x: Tensor, t: int, seed: int
) -> list[PredictiveDistribution]:
    """Run t stochastic passes over the batch; one distribution per example.

    Pass i draws its noise from a generator sub-seeded with (seed, i), so
    results do not depend on execution order and are reproducible.
    """
    if t < 1:
        raise ConfigError(f"sample count must be >= 1, got {t}")
    m = x.shape[0]
    phase = inference_phase(head)
    all_probs = np.empty((t, m, head.config.num_classes))
    for i in range(t):
        rng = np.random.default_rng((seed, i))
        if phase == DETERMINISTIC_INFERENCE:
            bundle = zero_noise_bundle(head, m)
        else:
            bundle = draw_noise_bundle(head, m, rng)
        log_probs, _ = forward(head, x, bundle, phase)
        all_probs[i] = np.exp(log_probs.data)
    return [PredictiveDistribution.from_samples(all_probs[:, j, :]) for j in range(m)]


def reports_to_csv(
    reports: list[UncertaintyReport],
    true_labels: np.ndarray,
    is_ood: np.ndarray,
) -> str:
    buf = io.StringIO()
    buf.write(
        "example_id,true_label,predicted,confidence,pred_entropy,exp_entropy,bald,is_ood\n"
    )
    for i, r in enumerate(reports):
        buf.write(
            f"{i},{int(true_labels[i])},{r.predicted_class},{r.confidence!r},"
            f"{r.predictive_entropy!r},{r.expected_entropy!r},{r.bald!r},"
            f"{int(is_ood[i])}\n"
        )
    return buf.getvalue()


def save_reports(path, reports, true_labels, is_ood) -> None:
    atomic_write_text(path, reports_to_csv(reports, true_labels, is_ood))
