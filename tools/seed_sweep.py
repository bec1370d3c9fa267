"""Seed sweep of the headline comparison (VI against the deterministic head).

    python3 tools/seed_sweep.py --tree parent=/path/to/parent/src --tree change=src \
        --seeds 10 --out SEEDS.json

Run from the repository root. Each ``--tree NAME=SRC`` names a directory
holding the ``bvihead`` package; the trees run the same sweep side by side,
each command in its own process, at the default config:

- train seeds: ``bvihead compare --seed s`` for the default train seed 7
  and the next seeds up to N in all;
- inference seeds: ``bvihead eval --variant stochastic-vi --seed s`` on the
  checkpoints of the default compare, for the default inference seed 1234
  and the next seeds up to N in all. The deterministic head's evaluation
  does not depend on the inference seed (one noise-free pass).

Per seed it records the VI and deterministic ``pr_auc_correctness`` and
their difference (criterion 8(d) holds when it is >= 0), VI top-1 and the
VI head's BALD OOD AUROC. A metric the program leaves undefined (an empty
``compare.csv`` cell, a JSON null) is recorded as null. Per tree and seed
set it gives the count of seeds where VI wins 8(d), a two-sided sign-test
p-value and the means; a seed whose VI - det difference is undefined is
left out of all three, and ``seeds_left_out`` counts such seeds. Each mean
is over the defined values. For every tree after the first, it gives the
per-seed change of VI top-1 and BALD AUROC against the first tree. The JSON
goes to ``--out``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

DEFAULT_TRAIN_SEED = 7
DEFAULT_INFERENCE_SEED = 1234


def run_cli(src: Path, argv: list[str], cwd: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-m", "bvihead.cli", *argv], cwd=cwd, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def compare_rows(path: Path) -> dict[str, dict[str, float | None]]:
    """compare.csv's metrics by model; an empty cell, an undefined metric, is None."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {r["model"]: {k: None if v == "" else float(v) for k, v in r.items()
                             if k != "model"}
                for r in csv.DictReader(fh)}


def difference(b: float | None, a: float | None) -> float | None:
    """b - a, or None where either is undefined."""
    return None if a is None or b is None else b - a


def mean(values) -> float | None:
    """The mean of the defined values, or None where none is."""
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def seed_row(seed: int, vi: dict, det: dict) -> dict:
    return {
        "seed": seed,
        "vi_pr_auc_correctness": vi["pr_auc_correctness"],
        "det_pr_auc_correctness": det["pr_auc_correctness"],
        "vi_minus_det": difference(vi["pr_auc_correctness"], det["pr_auc_correctness"]),
        "vi_top1": vi["top1"],
        "vi_ood_auroc_bald": vi["ood_auroc_bald"],
    }


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign test of wins against losses, ties left out."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2 * tail)


def summarize(rows: list[dict]) -> dict:
    kept = [r for r in rows if r["vi_minus_det"] is not None]
    deltas = [r["vi_minus_det"] for r in kept]
    wins = sum(d >= 0 for d in deltas)  # criterion 8(d) allows a tie
    strict = sum(d > 0 for d in deltas), sum(d < 0 for d in deltas)
    return {
        "seeds": len(rows),
        "seeds_left_out": len(rows) - len(kept),
        "vi_wins_8d": wins,
        "sign_test_p": sign_test_p(*strict),
        "mean_vi_minus_det": mean(deltas),
        "mean_vi_top1": mean(r["vi_top1"] for r in kept),
        "mean_vi_ood_auroc_bald": mean(r["vi_ood_auroc_bald"] for r in kept),
    }


def sweep(src: Path, n: int, work: Path) -> dict:
    train_rows, inference_rows = [], []
    for seed in range(DEFAULT_TRAIN_SEED, DEFAULT_TRAIN_SEED + n):
        ws = work / f"train-{seed}"
        run_cli(src, ["compare", "--seed", str(seed), "--out", str(ws)], work)
        rows = compare_rows(ws / "compare.csv")
        train_rows.append(seed_row(seed, rows["stochastic-vi"], rows["deterministic"]))
    ws = work / f"train-{DEFAULT_TRAIN_SEED}"
    det = compare_rows(ws / "compare.csv")["deterministic"]
    for seed in range(DEFAULT_INFERENCE_SEED, DEFAULT_INFERENCE_SEED + n):
        run_cli(src, ["eval", "--variant", "stochastic-vi", "--seed", str(seed),
                      "--out", str(ws)], work)
        vi = json.loads((ws / "eval_stochastic-vi" / "summary.json").read_text())
        inference_rows.append(seed_row(seed, vi, det))
    return {
        "train_seeds": {"rows": train_rows, "summary": summarize(train_rows)},
        "inference_seeds": {"rows": inference_rows, "summary": summarize(inference_rows)},
    }


def paired(first: dict, other: dict) -> dict:
    """Per-seed change of VI top-1 and BALD AUROC of `other` against `first`."""
    out = {}
    for kind in ("train_seeds", "inference_seeds"):
        pairs = list(zip(first[kind]["rows"], other[kind]["rows"], strict=True))
        out[kind] = {}
        for key in ("vi_top1", "vi_ood_auroc_bald"):
            diffs = [difference(b[key], a[key]) for a, b in pairs]
            out[kind][key] = {
                "per_seed": diffs,
                "mean": mean(diffs),
                "higher": sum(d is not None and d > 0 for d in diffs),
                "lower": sum(d is not None and d < 0 for d in diffs),
            }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tree", action="append", required=True, metavar="NAME=SRC",
                    help="a name and the directory that holds its bvihead package")
    ap.add_argument("--seeds", type=int, default=10, help="seeds of each kind (default 10)")
    ap.add_argument("--out", required=True, help="JSON result file")
    args = ap.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree)
    with tempfile.TemporaryDirectory(prefix="seed-sweep-") as tmp:
        works = {name: Path(tmp) / name for name in trees}
        for work in works.values():
            work.mkdir()
        with ThreadPoolExecutor(max_workers=len(trees)) as pool:
            futures = {name: pool.submit(sweep, Path(src).resolve(), args.seeds, works[name])
                       for name, src in trees.items()}
            results = {name: f.result() for name, f in futures.items()}
    names = list(results)
    doc = {
        "what": "seed sweep of the default compare: train seeds (compare --seed s) and"
                " inference seeds (eval --seed s on the default compare's checkpoints)",
        "trees": results,
        "paired_against_" + names[0]: {n: paired(results[names[0]], results[n])
                                       for n in names[1:]},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for name, res in results.items():
        for kind in ("train_seeds", "inference_seeds"):
            print(name, kind, json.dumps(res[kind]["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
