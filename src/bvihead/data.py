"""Synthetic feature clusters and feature-file ingestion.

Stands in for a frozen video backbone: features are Gaussian blobs around
uniformly drawn class centers, with an out-of-distribution set whose
centers are pushed to a minimum distance from every in-distribution
center. Two on-disk formats are supported: a CSV with a header row and a
compact binary format (BFV) storing float32 features.
"""

from __future__ import annotations

import csv
import io
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, GenerationError, ParseError
from .fsio import atomic_write_bytes, atomic_write_text, csv_text, read_text

OOD_LABEL = -1
BFV_MAGIC = b"BFV1"
# BFV stores float32, and a larger feature would overflow any head anyway
FEATURE_MAX = float(np.finfo(np.float32).max)

# CSV cells are ASCII decimal literals with optional surrounding blanks;
# float() and int() alone would also take "1_5" as 15 and non-ASCII digits
_CSV_FLOAT = re.compile(
    r"\s*[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)\s*",
    re.ASCII | re.IGNORECASE,
)
_CSV_INT = re.compile(r"\s*[+-]?\d+\s*", re.ASCII)


@dataclass
class LabeledFeatureSet:
    """N x F features with integer labels; OOD rows use label -1."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.n,):
            raise DataError(
                f"inconsistent lengths: {self.n} features, labels of shape {self.labels.shape}"
            )

    @property
    def is_ood(self) -> np.ndarray:
        """Whether each row is out of distribution: its label is OOD_LABEL."""
        return self.labels == OOD_LABEL

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def num_classes(self) -> int:
        in_dist = self.labels[~self.is_ood]
        return int(in_dist.max()) + 1 if in_dist.size else 0

    def subset(self, idx: np.ndarray) -> "LabeledFeatureSet":
        return LabeledFeatureSet(self.features[idx], self.labels[idx])


# the most feature values gen-data generates, far beyond the default's
# 256,000: 10**8 float64 values are 800 MB
MAX_FEATURE_VALUES = 10**8


@dataclass(frozen=True)
class SynthSpec:
    # center_scale 1.3 leaves mild class overlap: a trained head lands at
    # roughly 96-98% val accuracy, so false predictions exist for the
    # confidence/uncertainty splits while OOD stays well separated
    k_in: int = 8
    k_out: int = 8
    feature_dim: int = 64
    per_class: int = 250
    center_scale: float = 1.3
    within_std: float = 1.5
    center_seed: int = 11
    noise_seed: int = 12
    ood_displacement: float = 12.0

    def __post_init__(self):
        counts = (self.k_in, self.k_out, self.feature_dim, self.per_class)
        if any(int(c) <= 0 for c in counts):
            raise ConfigError(f"all counts must be positive, got {counts}")
        if self.k_in < 2:  # no head trains on one class
            raise ConfigError(f"data.k_in: need at least 2 classes, got {self.k_in}")
        values = (self.k_in + self.k_out) * self.per_class * self.feature_dim
        if values > MAX_FEATURE_VALUES:  # checked before generate allocates them
            raise ConfigError(
                f"data.per_class: (k_in + k_out) * per_class * feature_dim is {values}"
                f" feature values, more than {MAX_FEATURE_VALUES}"
            )
        if self.n_train == self.per_class:
            raise ConfigError(f"data.per_class must be >= 3, so that the 80/20 split leaves"
                              f" a validation row, got {self.per_class}")
        if not self.within_std > 0:
            raise ConfigError(f"within-class std must be positive, got {self.within_std}")
        if not self.ood_displacement >= 0:
            raise ConfigError(f"data.ood_displacement must be >= 0, got {self.ood_displacement}")
        if not 0 < self.center_scale <= 1e300:  # centers are drawn from +-center_scale
            raise ConfigError(f"data.center_scale must be in (0, 1e300], got {self.center_scale}")

    @property
    def n_train(self) -> int:
        """Training rows per class: 80% of per_class, rounded."""
        return int(round(self.per_class * 0.8))


_MAX_CENTER_TRIES = 10**5


_MAX_PUSHES = 100


def _ood_centers(
    rng: np.random.Generator, spec: SynthSpec, in_centers: np.ndarray
) -> np.ndarray:
    """Uniform draws, radially displaced away from whichever in-dist center
    is nearest, repeated until every gap is at least `ood_displacement`.
    Candidates that fail to converge are rejected and redrawn."""
    d = spec.ood_displacement
    centers = []
    tries = 0
    while len(centers) < spec.k_out:
        cand = rng.uniform(-spec.center_scale, spec.center_scale, spec.feature_dim)
        for _ in range(_MAX_PUSHES):
            tries += 1
            if tries > _MAX_CENTER_TRIES:
                raise GenerationError(
                    f"could not place OOD centers at distance >= {d} after"
                    f" {_MAX_CENTER_TRIES} tries; reduce ood_displacement or"
                    " increase center_scale"
                )
            gaps = np.linalg.norm(in_centers - cand, axis=1)
            nearest = int(np.argmin(gaps))
            if gaps[nearest] >= d - 1e-9:
                centers.append(cand)
                break
            offset = cand - in_centers[nearest]
            norm = np.linalg.norm(offset)
            if norm == 0.0:
                direction = np.zeros(spec.feature_dim)
                direction[0] = 1.0
            else:
                direction = offset / norm
            cand = in_centers[nearest] + direction * d
    return np.asarray(centers)


def _centers(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """(in-distribution, OOD) class centers, deterministic in center_seed."""
    center_rng = np.random.default_rng(spec.center_seed)
    in_centers = center_rng.uniform(
        -spec.center_scale, spec.center_scale, (spec.k_in, spec.feature_dim)
    )
    return in_centers, _ood_centers(center_rng, spec, in_centers)


@np.errstate(over="ignore")  # overflow is caught below, as a too-large feature
def generate(spec: SynthSpec) -> tuple[LabeledFeatureSet, LabeledFeatureSet, LabeledFeatureSet]:
    """Build (train, val, ood) sets, deterministic in the spec's two seeds.

    Train/val is an 80/20 split stratified by class; OOD rows carry the -1
    sentinel label. Features beyond FEATURE_MAX raise ConfigError.
    """
    in_centers, out_centers = _centers(spec)

    noise_rng = np.random.default_rng(spec.noise_seed)
    train_x, train_y, val_x, val_y = [], [], [], []
    n_train = spec.n_train
    for k in range(spec.k_in):
        pts = in_centers[k] + spec.within_std * noise_rng.standard_normal(
            (spec.per_class, spec.feature_dim)
        )
        train_x.append(pts[:n_train])
        train_y.append(np.full(n_train, k))
        val_x.append(pts[n_train:])
        val_y.append(np.full(spec.per_class - n_train, k))

    ood_x = []
    for k in range(spec.k_out):
        ood_x.append(
            out_centers[k]
            + spec.within_std
            * noise_rng.standard_normal((spec.per_class, spec.feature_dim))
        )

    def pack(xs, ys):
        return LabeledFeatureSet(np.concatenate(xs), np.concatenate(ys))

    ood_y = [np.full(spec.per_class, OOD_LABEL)] * spec.k_out
    sets = (pack(train_x, train_y), pack(val_x, val_y), pack(ood_x, ood_y))
    peak = max(float(np.abs(s.features).max()) for s in sets)
    if not peak <= FEATURE_MAX:
        raise ConfigError(
            f"data.center_scale={spec.center_scale!r} and data.within_std={spec.within_std!r}"
            f" give features up to {peak!r}, beyond float32's range (±{FEATURE_MAX:.7g})"
            " in which BFV files store them"
        )
    return sets


# ---- batching ----------------------------------------------------------------


def batches(
    data: LabeledFeatureSet, batch_size: int, seed: int, shuffle: bool
) -> list[LabeledFeatureSet]:
    """Partition into batches; the last one may be short."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = (
        np.random.default_rng(seed).permutation(data.n)
        if shuffle
        else np.arange(data.n)
    )
    return [
        data.subset(order[i : i + batch_size]) for i in range(0, data.n, batch_size)
    ]


# ---- CSV format ----------------------------------------------------------------


def save_csv(data: LabeledFeatureSet, path) -> None:
    header = [f"f{i}" for i in range(data.feature_dim)] + ["label", "is_ood"]
    rows = zip(data.features.tolist(), data.labels.tolist(), data.is_ood.astype(np.int64).tolist())
    atomic_write_text(path, csv_text(header, (row + [label, ood] for row, label, ood in rows)))


def csv_rows(path):
    """(line number, cells) of the header, then of each non-blank row, of
    the CSV file at path, numbered by the line a row starts on: a quoted
    cell may span lines. An empty file, a row with another cell count than
    the header, or a row csv cannot read raises ParseError naming the file."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        yield 1, header
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            yield lineno, row
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def decimal(cell: str) -> float | None:
    """The number a CSV cell spells in the decimal grammar, else None."""
    return float(cell) if _CSV_FLOAT.fullmatch(cell) else None


def _load_csv(path) -> LabeledFeatureSet:
    rows = csv_rows(path)
    _, header = next(rows)
    if len(header) < 3 or header[-2:] != ["label", "is_ood"]:
        raise ParseError(f"{path}: line 1: expected header f0..fN,label,is_ood")
    f_dim = len(header) - 2
    feats, labels, linenos = [], [], []
    for lineno, row in rows:
        values = [decimal(cell) for cell in row[:f_dim]]
        if None in values:
            col = values.index(None)
            raise ParseError(
                f"{path}: line {lineno}, column {col + 1} ({header[col]!r}):"
                f" {row[col]!r} is not a decimal number"
            )
        feats.append(values)
        if not _CSV_INT.fullmatch(row[f_dim]):
            raise ParseError(
                f"{path}: line {lineno}, column {f_dim + 1} ('label'):"
                f" non-integer label {row[f_dim]!r}"
            )
        # int32, as in BFV; the length test keeps int() off huge digit strings
        digits = row[f_dim].strip().lstrip("+-0")
        label = int(row[f_dim]) if len(digits) <= 10 else None
        if label is None or not -(2**31) <= label < 2**31:
            raise ParseError(
                f"{path}: line {lineno}, column {f_dim + 1} ('label'):"
                f" label {row[f_dim]!r} is outside the int32 range"
            )
        flag = row[f_dim + 1].strip()
        if flag not in ("0", "1"):
            raise ParseError(f"{path}: line {lineno}: is_ood must be 0 or 1, got {flag!r}")
        if (flag == "1") != (label == OOD_LABEL):
            raise ParseError(
                f"{path}: line {lineno}: is_ood={flag} disagrees with label {label}"
                f" (OOD rows, and only they, carry label {OOD_LABEL})"
            )
        labels.append(label)
        linenos.append(lineno)
    return _checked(path, feats, labels,
                    lambda r, c: f"line {linenos[r]}, column {c + 1} ({header[c]!r})",
                    lambda r: f"line {linenos[r]}, column {f_dim + 1} ('label')")


def _checked(path, feats, labels, feature_at, label_at) -> LabeledFeatureSet:
    """The rows a loader parsed, after the content checks of both formats.
    A file with no rows, then the first feature that is NaN or infinite,
    then the first label below OOD_LABEL raises ParseError naming the file
    and the position that feature_at(row, column) or label_at(row) spells."""
    if not len(labels):
        raise ParseError(f"{path}: no data rows")
    data = LabeledFeatureSet(feats, labels)
    bad = np.argwhere(~np.isfinite(data.features))
    if bad.size:
        r, c = bad[0]
        raise ParseError(f"{path}: {feature_at(r, c)}: non-finite feature"
                         f" {float(data.features[r, c])!r}")
    below = np.flatnonzero(data.labels < OOD_LABEL)
    if below.size:
        r = below[0]
        raise ParseError(f"{path}: {label_at(r)}: label {data.labels[r]}"
                         f" is negative, and only OOD rows carry one, {OOD_LABEL}")
    return data


# ---- BFV binary format -------------------------------------------------------


def save_bfv(data: LabeledFeatureSet, path) -> None:
    """Magic 'BFV1', little-endian u32 N and F, N*F float32, N int32 labels."""
    out = bytearray()
    out += BFV_MAGIC
    out += struct.pack("<II", data.n, data.feature_dim)
    out += data.features.astype("<f4").tobytes(order="C")
    out += data.labels.astype("<i4").tobytes()
    atomic_write_bytes(path, bytes(out))


def _load_bfv(path) -> LabeledFeatureSet:
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise ParseError(f"{path}: truncated at byte {len(raw)}: missing header")
    if raw[:4] != BFV_MAGIC:
        raise ParseError(f"{path}: byte 0: bad magic {raw[:4]!r}, expected {BFV_MAGIC!r}")
    n, f = struct.unpack("<II", raw[4:12])
    if f == 0:  # as a CSV without an f0 column fails its header check
        raise ParseError(f"{path}: byte 8: F = 0, but a row needs at least one feature")
    feat_bytes = n * f * 4
    expected = 12 + feat_bytes + n * 4
    if len(raw) != expected:
        raise ParseError(
            f"{path}: byte {len(raw)}: expected {expected} bytes for N={n}, F={f}"
        )
    feats = np.frombuffer(raw, dtype="<f4", count=n * f, offset=12).reshape(n, f)
    labels = np.frombuffer(raw, dtype="<i4", count=n, offset=12 + feat_bytes)
    return _checked(path, feats, labels,
                    lambda r, c: f"byte {12 + (r * f + c) * 4}: row {r}, feature {c}",
                    lambda r: f"byte {12 + feat_bytes + r * 4}: row {r}")


# each on-disk format's (save, load), in the order commands look for them
_CODECS = {"bfv": (save_bfv, _load_bfv), "csv": (save_csv, _load_csv)}
FORMATS = tuple(_CODECS)


def _codec(fmt: str):
    if fmt not in _CODECS:
        raise ConfigError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return _CODECS[fmt]


def load_features(path, fmt: str) -> LabeledFeatureSet:
    return _codec(fmt)[1](path)


def save_features(data: LabeledFeatureSet, path, fmt: str) -> None:
    _codec(fmt)[0](data, path)
