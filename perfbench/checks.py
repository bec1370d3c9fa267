"""Output checks for the benchmark's operations, and their self-test.

Each check returns a list of problems; an empty list means the output is
correct. The oracles here read the files a user would read and do not
reuse bvihead's own validation code, except ``load_head`` to show that a
checkpoint loads.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

SUMMARY_KEYS = (
    "top1",
    "top5",
    "roc_auc_micro",
    "pr_auc_micro",
    "roc_auc_correctness",
    "pr_auc_correctness",
    "ood_auroc_entropy",
    "ood_auroc_bald",
)
REPORT_HEADER = [
    "example_id", "true_label", "predicted", "confidence",
    "pred_entropy", "exp_entropy", "bald", "is_ood",
]
VARIANTS = ("deterministic", "mc-dropout", "stochastic-vi")

# BALD may dip below 0 by rounding and by the 1e-12 probability clamp, which
# bounds the dip near K * 1e-12 * ln(1e12) ~ 2e-10 for K = 8; the acceptance
# gate's metric-property criterion allows -1e-9, and so does this check.
BALD_TOLERANCE = 1e-9

# Generous quality floors: chance top-1 is 1/K = 0.125 and chance AUROC is
# 0.5; trained heads on these clusters sit far above both on every seed.
TOP1_FLOOR = 0.5
OOD_AUROC_FLOOR = 0.6


def check_eval_dir(eval_dir, variant: str, k: int, m: int) -> list[str]:
    """summary.json, report.csv and every histogram of one evaluation."""
    eval_dir = Path(eval_dir)
    problems = []
    try:
        summary = json.loads((eval_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"{eval_dir}/summary.json unreadable: {exc}"]
    for key in SUMMARY_KEYS:
        value = summary.get(key)
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            problems.append(f"summary {key}={value!r} is not in [0, 1]")
    if problems:
        return problems
    if summary["top1"] < TOP1_FLOOR:
        problems.append(f"top1 {summary['top1']} below floor {TOP1_FLOOR}")
    if summary["ood_auroc_entropy"] < OOD_AUROC_FLOOR:
        problems.append(f"ood_auroc_entropy {summary['ood_auroc_entropy']} below floor")
    if variant != "deterministic" and summary["ood_auroc_bald"] < OOD_AUROC_FLOOR:
        problems.append(f"ood_auroc_bald {summary['ood_auroc_bald']} below floor")
    problems += check_report(eval_dir / "report.csv", variant, k, m)
    hists = sorted(eval_dir.glob("hist_*.csv"))
    if not hists:
        problems.append(f"{eval_dir}: no histograms")
    for path in hists:
        problems += check_histogram(path)
    return problems


def check_report(path, variant: str, k: int, m: int) -> list[str]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"{path} unreadable: {exc}"]
    if not rows or rows[0] != REPORT_HEADER:
        return [f"{path}: bad header {rows[:1]}"]
    body = rows[1:]
    if len(body) != m:
        return [f"{path}: {len(body)} rows, expected {m}"]
    for i, row in enumerate(body):
        try:
            conf, bald = float(row[3]), float(row[6])
            ok = (
                len(row) == len(REPORT_HEADER)
                and int(row[0]) == i
                and 1.0 / k - 1e-12 <= conf <= 1.0 + 1e-12
                and bald >= -BALD_TOLERANCE
                and (variant != "deterministic" or bald == 0.0)
            )
        except (ValueError, IndexError):
            ok = False
        if not ok:
            return [f"{path}: row {i + 1} fails the report checks: {row}"]
    return []


def check_histogram(path) -> list[str]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        area = math.fsum((float(hi) - float(lo)) * float(d) for lo, hi, d in rows)
    except (OSError, ValueError) as exc:
        return [f"{path} unreadable: {exc}"]
    if abs(area - 1.0) > 1e-9:
        return [f"{path}: area {area!r} is not 1 within 1e-9"]
    return []


def check_checkpoint(path, variant: str, hidden_dims, k: int) -> list[str]:
    from bvihead import model

    try:
        head = model.load_head(path)
    except Exception as exc:  # any failure to load is a wrong output
        return [f"{path} does not load: {exc!r}"]
    cfg = head.config
    if cfg.variant != variant or list(cfg.hidden_dims) != list(hidden_dims) or cfg.num_classes != k:
        return [f"{path}: config {cfg} does not match the run"]
    return []


def check_train_report(path, epochs: int) -> list[str]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        finite = all(math.isfinite(float(r[c])) for r in rows for c in ("nll", "kl", "loss"))
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path} unreadable: {exc!r}"]
    if len(rows) != epochs or not finite:
        return [f"{path}: {len(rows)} epochs (expected {epochs}) or non-finite losses"]
    if float(rows[-1]["accuracy"]) < TOP1_FLOOR:
        return [f"{path}: final train accuracy {rows[-1]['accuracy']} below floor"]
    return []


def check_compare_csv(path) -> list[str]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"{path} unreadable: {exc}"]
    if [r["model"] for r in rows] != list(VARIANTS):
        return [f"{path}: rows {[r.get('model') for r in rows]}"]
    for r in rows:
        for key, value in r.items():
            if key != "model" and not 0.0 <= float(value) <= 1.0:
                return [f"{path}: {r['model']} {key}={value} is not in [0, 1]"]
    return []


class Tally:
    """Operations attempted and failed, with the problems of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, exit_code: int, problems: list[str]) -> bool:
        """Count one operation; True when it succeeded."""
        self.attempted += 1
        if exit_code != 0:
            problems = [f"exit code {exit_code}"] + problems
        if problems:
            self.failed += 1
            self.problems += [f"{op}: {p}" for p in problems]
        return not problems


def self_test(eval_dir, variant: str, k: int, m: int, scratch) -> list[str]:
    """Feed the checks a corrupted summary and a truncated report.

    Both must count as failed and the untouched copy must pass. Returns
    what is wrong with the harness, empty when it works.
    """
    scratch = Path(scratch)
    cases = {
        "intact": lambda d: None,
        "summary": lambda d: (d / "summary.json").write_text(
            json.dumps({**json.loads((d / "summary.json").read_text()), "top1": 1.5})
        ),
        "report": lambda d: (d / "report.csv").write_text(
            "".join((d / "report.csv").read_text().splitlines(True)[:-3])
        ),
    }
    tally = Tally()
    passed = {}
    for name, corrupt in cases.items():
        copy = scratch / f"selftest-{name}"
        shutil.copytree(eval_dir, copy)
        corrupt(copy)
        passed[name] = tally.record(name, 0, check_eval_dir(copy, variant, k, m))
        shutil.rmtree(copy)
    if passed == {"intact": True, "summary": False, "report": False} and tally.failed == 2:
        return []
    return [f"harness self-test: expected only the corrupted copies to fail, got {tally.problems}"]
