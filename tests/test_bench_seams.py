"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracer.py`` wraps bvihead's functions by name and
``perfbench/run.py`` derives the per-layer metrics of ``BENCHMARK.json``
from the spans and counters it records. A renamed or re-homed seam makes
a metric come out undefined; this test catches that in the test suite
instead of in a failed benchmark run.
"""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from bvihead.cli import EXIT_OK, main
from bvihead.tensor import Tensor

ROOT = Path(__file__).resolve().parent.parent

# small enough to run in seconds, large enough that the per-call tails
# (ten samples beyond the 75th percentile) exist: 45 train steps, 40 passes
CONFIG = {
    "data": {"k_in": 3, "k_out": 3, "feature_dim": 4, "per_class": 10,
             "ood_displacement": 8.0},
    "head": {"hidden_dims": [4, 4]},
    "train": {"epochs": 15, "batch_size": 8},
    "inference": {"mc_samples": 40},
}


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("run", "checks", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run
    import tracer

    return run, tracer


def test_tracer_uninstall_restores_every_seam(bench):
    _, tracer = bench
    # by module path: the package's own ``train`` attribute is the function
    layers = importlib.import_module("bvihead.layers")
    train = importlib.import_module("bvihead.train")

    def seams():
        return (Tensor.__init__, Tensor.backward, Tensor.softplus,
                layers.kl_to_prior, layers.sample, train.forward, train.Adam.step)

    before = seams()
    tr = tracer.Tracer()
    tr.install_layers()
    assert seams() != before
    tr.uninstall()
    assert seams() == before


def test_every_per_layer_metric_is_defined(bench, tmp_path):
    run, tracer = bench
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    common = ["--config", str(cfg), "--out", str(tmp_path / "ws")]
    tr = tracer.Tracer()
    tr.install_layers()
    try:
        for argv in (["gen-data"], ["train", "--variant", "stochastic-vi"],
                     ["eval", "--variant", "stochastic-vi"]):
            assert main(argv[:1] + common + argv[1:]) == EXIT_OK
    finally:
        tr.uninstall()
    metrics = run.layer_metrics(tr, 1.0, 1.0)
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    undefined = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    assert not undefined
    # the layers' nodes compute softplus on arrays, not through Tensor.softplus
    assert metrics["dist.softplus_calls_per_step"] == 0
    # a training step runs on arrays and records no graph
    assert metrics["tensor.nodes_per_step.stochastic-vi"] == 0
    # an MC pass records no graph: only the two leaf results are tensors
    assert metrics["tensor.nodes_per_pass.stochastic-vi"] <= 2
    # the eval's MC run builds one batched distribution, not one per example
    assert metrics["uncertainty.pd_objects"] == 1


def test_traced_vi_train_runs_each_layer_once_per_step(bench, tmp_path):
    # the posterior sweep still reaches each layer through the names the
    # tracer wraps: one "layers.fwd" span per layer per training step
    _, tracer = bench
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    common = ["--config", str(cfg), "--out", str(tmp_path / "ws")]
    assert main(["gen-data"] + common) == EXIT_OK
    tr = tracer.Tracer()
    tr.install_layers()
    try:
        assert main(["train"] + common + ["--variant", "stochastic-vi"]) == EXIT_OK
    finally:
        tr.uninstall()
    steps = sum(1 for span in tr.spans if span[0] == "train.step")
    fwd = Counter(span[1] for span in tr.spans if span[0] == "layers.fwd")
    assert steps > 0
    assert fwd == {f"train.stochastic-vi.l{i}": steps for i in range(3)}
