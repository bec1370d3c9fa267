"""Outputs must not depend on the BLAS thread count.

Runs ``gen-data`` and ``compare`` in fresh interpreters with OpenBLAS on
one and on two threads. The hidden layer's training products (64 x 256
by 256 x 256) are large enough that OpenBLAS splits them across two
threads; products of 64 x 96 by 96 x 96 still run on one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
