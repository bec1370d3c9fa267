"""Outputs must not depend on the BLAS thread count or on the row worker.

Runs ``gen-data`` and ``compare`` in fresh interpreters with OpenBLAS on
one and on two threads. The hidden layer's training products (64 x 256
by 256 x 256) are large enough that OpenBLAS splits them across two
threads; products of 64 x 96 by 96 x 96 still run on one.

Runs ``eval`` of a head whose steps split (``layers.SPLIT_VALUES``) in a fresh
interpreter pinned to one CPU, where the calling thread and the row
worker take turns on it, and in one that may use every CPU.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bvihead.cli import main as cli_main
from bvihead.layers import SPLIT_VALUES

ROOT = Path(__file__).resolve().parent.parent

CONFIG = {
    "data": {"k_in": 3, "k_out": 2, "feature_dim": 32, "per_class": 60,
             "ood_displacement": 8.0},
    "head": {"hidden_dims": [256, 256]},
    "train": {"epochs": 2, "batch_size": 64},
    "inference": {"mc_samples": 4},
}

VARIANTS = ("deterministic", "mc-dropout", "stochastic-vi")


def run_compare(tmp_path: Path, threads: int) -> dict[str, bytes]:
    ws = tmp_path / f"threads{threads}"
    ws.mkdir()
    (ws / "config.json").write_text(json.dumps(CONFIG))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for command in ("gen-data", "compare"):
        subprocess.run(
            [sys.executable, "-m", "bvihead.cli", command, "--config",
             str(ws / "config.json"), "--out", str(ws)],
            env=env, check=True, capture_output=True, timeout=120,
        )
    names = ["compare.csv"]
    for v in VARIANTS:
        names += [f"checkpoint_{v}.json", f"eval_{v}/summary.json"]
    return {name: (ws / name).read_bytes() for name in names}


def test_outputs_identical_with_one_and_two_blas_threads(tmp_path):
    one = run_compare(tmp_path, 1)
    two = run_compare(tmp_path, 2)
    differing = [name for name in one if one[name] != two[name]]
    assert not differing


# 3 * 80 validation rows and 2 * 400 OOD rows: 1,040 evaluation rows
EVAL_CONFIG = {
    "data": {"k_in": 3, "k_out": 2, "feature_dim": 32, "per_class": 400},
    "head": {"hidden_dims": [256, 256]},
    "train": {"epochs": 1},
    "inference": {"mc_samples": 3},
}

# pins this interpreter, before numpy loads, to one CPU it may run on
PINNED = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))});"
          " from bvihead.cli import main; sys.exit(main())")


def run_eval(ws: Path, variant: str, pinned: bool) -> dict[str, bytes]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    program = ["-c", PINNED] if pinned else ["-m", "bvihead.cli"]
    subprocess.run(
        [sys.executable, *program, "eval", "--config", str(ws / "config.json"),
         "--out", str(ws), "--variant", variant],
        env=env, check=True, capture_output=True, timeout=120,
    )
    return {name: (ws / f"eval_{variant}" / name).read_bytes()
            for name in ("summary.json", "report.csv")}


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and two CPUs to compare")
def test_eval_outputs_identical_pinned_to_one_cpu_and_on_two(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "config.json").write_text(json.dumps(EVAL_CONFIG))
    common = ["--config", str(ws / "config.json"), "--out", str(ws)]
    assert cli_main(["gen-data", *common]) == 0
    for v in VARIANTS:
        assert cli_main(["train", *common, "--variant", v]) == 0
        one, two = run_eval(ws, v, pinned=True), run_eval(ws, v, pinned=False)
        assert (len(one["report.csv"].splitlines()) - 1) * 256 >= SPLIT_VALUES
        differing = [name for name in one if one[name] != two[name]]
        assert not differing, v

