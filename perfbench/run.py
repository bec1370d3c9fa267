"""End-to-end and per-layer benchmark for bvihead.

    python3 perfbench/run.py --workload compare-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one process

Run from the repository root. The program is imported from ``src/`` and
driven only through ``bvihead.cli.main`` and the package's public
functions; it sees the generated config and files, never the seed. BLAS
and OpenMP are pinned to one thread and ``BVI_THREADS`` is unset, so the
numbers measure the program and not the scheduler.

Workloads (``BENCHMARK.json`` gives each one's reason):

- ``compare-default``: ``bvihead compare`` at the default config.
- ``eval-large``: ``bvihead eval`` of all three variants over 6,000 rows,
  reading checkpoints trained for one epoch during set-up.
- ``vi-train-narrow``: ``bvihead train`` of the VI head with H=32/32 and
  batch 8 for 25 epochs (5,000 steps). Its output check evaluates the
  trained head, untimed.

Each run sets up ``SETUP_REPS`` fresh workspaces (set-up time is the import
time plus their median), then repeats the workload's timed commands while
another repetition fits in ``--seconds`` (at least once) and reports the
median. Every operation's output is checked; a wrong output counts as a
failed operation. ``--trace 1`` additionally repeats set-up, timed part
and checks once under the tracer of ``tracer.py`` and reports per-layer
metrics from it. Results, spans and output digests go to
``.perfbench_out/``; the digests and exact counts of a seed must repeat in
every later run of the same source tree. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
from checks import VARIANTS
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
K = 8

WORKLOADS = {
    "compare-default": {
        "config": {},
        "setup": [["gen-data"]],
        "timed": [["compare"]],
    },
    "eval-large": {
        "config": {"data": {"per_class": 625}, "train": {"epochs": 1}},
        "setup": [["gen-data"]] + [["train", "--variant", v] for v in VARIANTS],
        "timed": [["eval", "--variant", v] for v in VARIANTS],
    },
    "vi-train-narrow": {
        "config": {"head": {"hidden_dims": [32, 32]}, "train": {"batch_size": 8, "epochs": 25}},
        "setup": [["gen-data"]],
        "timed": [["train", "--variant", "stochastic-vi"]],
        "check": [["eval", "--variant", "stochastic-vi"]],
    },
}

# Printed for the reader and kept in the results file, but not on the last
# line: each is undefined or always 0 on some workload, and the last line
# carries exactly the metrics BENCHMARK.json lists.
INFO_UNITS = {
    "train_rows_per_s": "rows/s",
    "mc_rows_per_s": "row-passes/s",
    "failed_frac": "ratio",
    "mcd_ood_auroc_bald": "ratio",
}
# Layers named after bvihead's modules; self time is reported for each.
LAYERS = ("tensor", "dist", "layers", "model", "train", "uncertainty", "evaluate", "data", "fsio", "cli")


def pin_environment() -> dict:
    """Pin BLAS/OpenMP to one thread before numpy loads; return what was set."""
    seen = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BVI_THREADS")}
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("BVI_THREADS", None)
    return seen


def environment(seen: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env_before": seen,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BVI_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def make_config(seed: int, overrides: dict) -> dict:
    """Config overrides with every seed derived from the workload seed."""
    import numpy as np

    center, noise, init, train, infer = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(5)
    )
    cfg = {section: dict(values) for section, values in overrides.items()}
    cfg.setdefault("data", {}).update(center_seed=center, noise_seed=noise)
    cfg.setdefault("head", {})["init_seed"] = init
    cfg.setdefault("train", {})["seed"] = train
    cfg.setdefault("inference", {})["seed"] = infer
    return cfg


def percentile_summary(values: list[float]) -> dict:
    """p50 plus the highest percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(values)
    out = {"p50": float(np.percentile(values, 50)) if n else None, "n": n,
           "tail_q": None, "tail": None}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - q / 100) >= 10:
            out["tail_q"], out["tail"] = q, float(np.percentile(values, q))
            break
    return out


def layer_metrics(tr, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric from one traced run; None where undefined."""
    tot = tr.totals()

    def s(key):
        return tot.get(key, 0.0)

    def exact(key):
        vals = tr.per_scope.get(key)
        return int(statistics.median(vals)) if vals else None

    out = {}
    for v in VARIANTS:
        out[f"tensor.nodes_per_step.{v}"] = exact(f"tensor.nodes@train.step.{v}")
        out[f"tensor.nodes_per_pass.{v}"] = exact(f"tensor.nodes@uncertainty.pass.{v}")
        out[f"tensor.backward_s.{v}"] = s(f"tensor.backward.{v}")
    out["tensor.backward_s"] = s("tensor.backward")
    out["tensor.node_s"] = tr.seconds["tensor.node"]
    out["tensor.nodes"] = tr.counts["tensor.nodes"]

    out["dist.kl_s"] = s("dist.kl")
    for ph in ("train", "mc"):
        out[f"dist.kl_calls.{ph}"] = tr.counts[f"dist.kl_calls.{ph}"]
    out["dist.softplus_calls_per_step"] = exact("dist.softplus_calls@train.step.stochastic-vi")
    out["dist.sample_s"] = s("dist.sample")

    for ph in ("train", "mc"):
        for i in range(3):
            out[f"layers.fwd_s.{ph}.l{i}"] = sum(s(f"layers.fwd.{ph}.{v}.l{i}") for v in VARIANTS)
            for v in VARIANTS:
                out[f"layers.fwd_s.{ph}.{v}.l{i}"] = s(f"layers.fwd.{ph}.{v}.l{i}")
        out[f"layers.dropout_s.{ph}"] = s(f"layers.dropout.{ph}")
        out[f"model.forward_s.{ph}"] = sum(s(f"model.forward.{ph}.{v}") for v in VARIANTS)
        for v in VARIANTS:
            out[f"model.forward_s.{ph}.{v}"] = s(f"model.forward.{ph}.{v}")
            out[f"model.noise_s.{ph}.{v}"] = s(f"model.noise.{ph}.{v}")
    out["model.save_head_s"] = s("model.save_head")
    out["model.load_head_s"] = s("model.load_head")
    for v in VARIANTS:
        out[f"model.ckpt_bytes.{v}"] = tr.counts.get(f"model.ckpt_bytes.{v}")

    steps = tr.durations_ms("train.step")
    passes = tr.durations_ms("uncertainty.pass")
    for v in VARIANTS:
        for key, samples in ((f"train.step_ms.{v}", steps), (f"uncertainty.pass_ms.{v}", passes)):
            for stat, value in percentile_summary(samples.get(v, [])).items():
                out[f"{key}.{stat}"] = value
        out[f"train.optimizer_s.{v}"] = s(f"train.optimizer.{v}")
        out[f"uncertainty.mc_predict_s.{v}"] = s(f"uncertainty.mc_predict.{v}")
        out[f"evaluate.suite_s.{v}"] = s(f"evaluate.suite.{v}")
        out[f"cli.train_stage_s.{v}"] = s(f"cli.train_stage.{v}")
        out[f"cli.eval_stage_s.{v}"] = s(f"cli.eval_stage.{v}")
    out["train.optimizer_s"] = s("train.optimizer")
    out["train.elbo_s"] = s("train.elbo")
    out["uncertainty.mc_predict_s"] = s("uncertainty.mc_predict")
    out["uncertainty.from_samples_s"] = s("uncertainty.from_samples")
    out["uncertainty.pd_objects"] = tr.counts["uncertainty.pd_objects"]
    out["uncertainty.save_reports_s"] = s("uncertainty.save_reports")
    out["evaluate.suite_s"] = s("evaluate.suite")
    out["evaluate.write_bundle_s"] = s("evaluate.write_bundle")

    out["data.generate_s"] = s("data.generate")
    out["data.load_s"] = s("data.load")
    out["data.batches_s"] = s("data.batches")
    out["fsio.write_s"] = s("fsio.write")
    out["fsio.bytes_written"] = tr.counts["fsio.bytes_written"]
    out["fsio.files_written"] = tr.counts["fsio.files_written"]

    self_s = tr.self_seconds()
    for layer in LAYERS:
        out[f"self_s.{layer}"] = self_s.get(layer, 0.0)
    out["trace.overhead"] = traced_wall / untraced_wall
    out["trace.spans"] = len(tr.spans)
    return out


def unit_of(key: str) -> str:
    if key.endswith(".tail_q"):
        return "pct"
    if key.endswith((".p50", ".tail")):
        return "ms"
    if key.endswith("_s") or "_s." in key:
        return "s"
    return "bytes" if "bytes" in key else "count"


# Exact counts that must repeat between runs of one seed. fsio.bytes_written
# is left out: each train report carries its epochs' wall-clock seconds.
EXACT = ("tensor.nodes_per_step.", "tensor.nodes_per_pass.", "tensor.nodes", "dist.kl_calls.",
         "dist.softplus_calls_per_step", "model.ckpt_bytes.", "uncertainty.pd_objects",
         "fsio.files_written", "trace.spans")


def exact_counts(per_layer: dict) -> dict:
    out = {k: v for k, v in per_layer.items() if k.startswith(EXACT)}
    out.update({k: v for k, v in per_layer.items() if k.endswith(".n")})
    return out


class Runner:
    """One workload at one seed: set-up, timed part, checks, digests."""

    def __init__(self, cli_main, name: str, seed: int, seconds: float, import_s: float):
        self.cli_main = cli_main
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.import_s = import_s
        self.cfg = make_config(seed, self.spec["config"])
        per_class = self.cfg["data"].get("per_class", 250)
        # rows evaluated: the 20% val split of each class plus every OOD row
        self.m = K * (per_class - round(per_class * 0.8)) + K * per_class
        self.hidden = self.cfg["head"].get("hidden_dims", [256, 256])
        self.epochs = self.cfg["train"].get("epochs", 30)
        self.variants = ("stochastic-vi",) if name == "vi-train-narrow" else VARIANTS
        self.tally = checks.Tally()
        self.errors: list[str] = []
        self.work = OUT / "work" / f"{name}-{os.getpid()}"
        self.op = 0
        self.tracer = None

    # ---- operations ------------------------------------------------------

    def cli(self, ws: Path, argv: list[str]) -> int:
        """One CLI operation in workspace ws; its stdout is kept off ours."""
        self.op += 1
        full = [argv[0], "--config", str(ws / "config.json"), "--out", str(ws)] + argv[1:]
        with self.span("cli.command", argv[0], self.op), contextlib.redirect_stdout(io.StringIO()):
            return self.cli_main(full)

    @contextlib.contextmanager
    def span(self, name: str, tag: str = "", op: int = -1):
        """A traced span around harness work; op -1 marks the harness's own."""
        tr = self.tracer
        if tr is None:
            yield
            return
        tr.op = op
        tr.open(name, tag)
        try:
            yield
        finally:
            tr.close()
            tr.op = -1

    def setup(self, ws: Path) -> float:
        """Fresh workspace with config and set-up outputs; returns seconds."""
        if ws.exists():
            shutil.rmtree(ws)
        t0 = time.perf_counter()
        ws.mkdir(parents=True)
        (ws / "config.json").write_text(json.dumps(self.cfg, indent=1, sort_keys=True))
        for argv in self.spec["setup"]:
            code = self.cli(ws, argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv} exited {code}")
        return time.perf_counter() - t0

    def setup_digests(self, ws: Path) -> dict:
        names = ["train.bfv", "val.bfv", "ood.bfv"]
        if self.name == "eval-large":
            names += [f"checkpoint_{v}.json" for v in VARIANTS]
        return {n: sha256(ws / n) for n in names}

    def timed(self, ws: Path) -> float:
        """The workload's timed commands, then their checks; returns seconds."""
        with self.span("stage.timed"):
            t0 = time.perf_counter()
            codes = {" ".join(argv): self.cli(ws, argv) for argv in self.spec["timed"]}
            wall = time.perf_counter() - t0
        with self.span("stage.check"):
            problems = self.check(ws)
        for op, code in codes.items():
            self.tally.record(op, code, problems.get(op, []))
        return wall

    def check(self, ws: Path) -> dict[str, list[str]]:
        """Problems with each timed operation's outputs, by operation."""
        k, m = K, self.m
        if self.name == "compare-default":
            p = checks.check_compare_csv(ws / "compare.csv")
            for v in VARIANTS:
                p += checks.check_eval_dir(ws / f"eval_{v}", v, k, m)
                p += checks.check_checkpoint(ws / f"checkpoint_{v}.json", v, self.hidden, k)
                p += checks.check_train_report(ws / f"train_report_{v}.csv", self.epochs)
            return {"compare": p}
        if self.name == "eval-large":
            return {f"eval --variant {v}": checks.check_eval_dir(ws / f"eval_{v}", v, k, m)
                    for v in VARIANTS}
        v = "stochastic-vi"
        p = checks.check_checkpoint(ws / f"checkpoint_{v}.json", v, self.hidden, k)
        p += checks.check_train_report(ws / f"train_report_{v}.csv", self.epochs)
        # a trained head is correct when it classifies and separates OOD rows
        for argv in self.spec["check"]:
            code = self.cli(ws, argv)
            if code:
                p.append(f"check command {argv} exited {code}")
        p += checks.check_eval_dir(ws / f"eval_{v}", v, k, m)
        return {f"train --variant {v}": p}

    def digests(self, ws: Path) -> dict:
        files = [f"eval_{v}/{f}" for v in self.variants for f in ("summary.json", "report.csv")]
        if self.name != "eval-large":
            files += [f"checkpoint_{v}.json" for v in self.variants]
        if self.name == "compare-default":
            files.append("compare.csv")
        return {f: sha256(ws / f) for f in files}

    def quality(self, ws: Path) -> dict:
        summ = {v: json.loads((ws / f"eval_{v}" / "summary.json").read_text()) for v in self.variants}
        out = {
            "vi_top1": summ["stochastic-vi"]["top1"],
            "vi_ood_auroc_bald": summ["stochastic-vi"]["ood_auroc_bald"],
        }
        if "mc-dropout" in summ:
            out["mcd_ood_auroc_bald"] = summ["mc-dropout"]["ood_auroc_bald"]
        return out

    # ---- the run ---------------------------------------------------------

    def measure(self) -> dict:
        """Untraced set-up and timed repetitions; the end-to-end metrics."""
        setup_times = []
        for rep in range(SETUP_REPS):
            ws = self.work / f"setup{rep}"
            setup_times.append(self.setup(ws))
            dig = self.setup_digests(ws)
            if rep == 0:
                self.setup_dig = dig
            else:
                shutil.rmtree(ws)
                if dig != self.setup_dig:
                    self.errors.append(f"set-up outputs differ between repetitions: {dig}")
        ws = self.work / "setup0"

        # only the two stage timers: a handful of calls, no per-layer spans
        stages = Tracer()
        stages.install_stages()
        self.walls = []
        try:
            while True:
                self.walls.append(self.timed(ws))
                dig = self.digests(ws)
                if len(self.walls) == 1:
                    self.dig = dig
                elif dig != self.dig:
                    self.errors.append("timed outputs differ between repetitions")
                if sum(self.walls) + self.walls[-1] > self.seconds:
                    break
        finally:
            stages.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.errors += checks.self_test(
            ws / "eval_stochastic-vi", "stochastic-vi", K, self.m, self.work
        )
        totals = stages.totals()
        metrics = {
            "setup_s": self.import_s + statistics.median(setup_times),
            "wall_s": statistics.median(self.walls),
            "peak_rss_mb": rss_mb,
            **self.quality(ws),
        }
        if self.name != "eval-large":
            metrics["train_rows_per_s"] = stages.counts["train.rows"] / totals["train.train"]
        if self.name != "vi-train-narrow":
            metrics["mc_rows_per_s"] = (
                stages.counts["uncertainty.row_passes"] / totals["uncertainty.mc_predict"]
            )
        self.setup_times = setup_times
        shutil.rmtree(ws)
        return metrics

    def traced(self) -> dict:
        """Set-up, timed part and checks once more, under the full tracer."""
        tr = Tracer()
        tr.install_layers()
        self.tracer = tr
        ws = self.work / "traced"
        try:
            with self.span("stage.setup"):
                self.setup(ws)
            traced_wall = self.timed(ws)
        finally:
            tr.uninstall()
            self.tracer = None
        if self.digests(ws) != self.dig:
            self.errors.append("traced outputs differ from untraced outputs")
        per_layer = layer_metrics(tr, traced_wall, statistics.median(self.walls))
        tr.dump(OUT / f"{self.name}-seed{self.seed}-spans.json")
        shutil.rmtree(ws)
        return per_layer

    def repeat_check(self, record: dict) -> None:
        """Digests and exact counts must match earlier runs of this seed."""
        path = OUT / "digests" / f"{self.name}-seed{self.seed}-{source_digest()[:16]}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        known = json.loads(path.read_text()) if path.exists() else {}
        for key, value in record.items():
            if key in known and known[key] != value:
                self.errors.append(f"{key} differ from an earlier run of this seed")
            known.setdefault(key, value)
        path.write_text(json.dumps(known, indent=1, sort_keys=True))


def run_workload(cli_main, bench: dict, name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, env: dict) -> dict:
    runner = Runner(cli_main, name, seed, seconds, import_s)
    try:
        metrics = runner.measure()
        per_layer = runner.traced() if trace else {}
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    metrics["failed_frac"] = runner.tally.failed / runner.tally.attempted
    record = {"digests": runner.dig, "setup_digests": runner.setup_dig}
    if trace:
        record["counts"] = exact_counts(per_layer)
    runner.repeat_check(record)

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    source = per_layer if trace else metrics
    final = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    missing = [k for k, v in final.items() if v["value"] is None]
    if missing:
        raise RuntimeError(f"metrics undefined on {name}: {missing}")

    doc = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == name), "env": env,
        "correct": runner.tally.failed == 0 and not runner.errors,
        "attempted": runner.tally.attempted, "failed": runner.tally.failed,
        "problems": runner.tally.problems, "errors": runner.errors,
        "end_to_end": metrics, "per_layer": per_layer,
        "setup_times_s": runner.setup_times, "walls_s": runner.walls, **record,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(doc, indent=1))

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(INFO_UNITS)
    print(f"== {name} seed {seed}: {doc['attempted']} operations, {doc['failed']} failed,"
          f" correct={doc['correct']}")
    for key, value in {**metrics, **per_layer}.items():
        unit = units.get(key) or unit_of(key)
        print(f"{name:16s} {key:44s} {value!s:>24} {unit}")
    for msg in runner.tally.problems + runner.errors:
        print(f"problem: {msg}")
    return {"correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"],
            "metrics": final}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget of the timed part; it runs at least once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seen = pin_environment()
    src = ROOT / "src"
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (src / "bvihead" / "__init__.py").is_file():
            raise ImportError(f"no bvihead package under {src}")
        sys.path.insert(0, str(src))
        t0 = time.perf_counter()
        from bvihead.cli import main as cli_main  # loads numpy and every bvihead module

        import_s = time.perf_counter() - t0
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(seen)
    print("env: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(cli_main, bench, n, args.seed, args.seconds, bool(args.trace),
                               import_s, env) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for n, r in results.items():
            print(json.dumps(r))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
