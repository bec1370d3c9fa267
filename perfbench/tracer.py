"""In-memory spans and counters around bvihead's public functions.

The wrappers go on the name a caller looks up at call time: the modules
bind with ``from .x import y``, so ``bvihead.train.forward`` and
``bvihead.uncertainty.forward`` are wrapped separately, and methods are
wrapped on their class. A wrapper on the defining module alone would
never fire.

A span is ``[name, tag, start_s, end_s, parent, op]``. ``name`` is
``<layer>.<what>`` with the layer named after the bvihead module, ``tag``
carries the phase, variant and layer index where they apply, ``parent``
is the index of the enclosing span (-1 at the root) and ``op`` the id of
the CLI operation that caused it. Nothing is written until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from types import SimpleNamespace


def _modules() -> SimpleNamespace:
    # by module path: the package's own ``train`` attribute is the function
    names = ("cli", "data", "fsio", "layers", "model", "train", "uncertainty")
    return SimpleNamespace(**{n: importlib.import_module(f"bvihead.{n}") for n in names})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.per_scope: dict[str, list[int]] = defaultdict(list)
        self.variant = "none"
        self.phase = "none"
        self.layer_index: dict[int, int] = {}
        self._scope_marks: list[tuple[str, dict]] = []
        self._restore: list[tuple[object, str, object]] = []

    # ---- spans -----------------------------------------------------------

    def open(self, name: str, tag: str = "") -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, tag, time.perf_counter(), None, parent, self.op])

    def close(self) -> None:
        self.spans[self.stack.pop()][3] = time.perf_counter()

    def open_scope(self, name: str, tag: str) -> None:
        """A per-call span (train step, MC pass) that snapshots counters."""
        self.open(name, tag)
        self._scope_marks.append(
            (f"{name}.{tag}", {k: self.counts[k] for k in ("tensor.nodes", "dist.softplus_calls")})
        )

    def close_scope(self, name: str) -> None:
        if not self.stack or self.spans[self.stack[-1]][0] != name:
            return
        self.close()
        key, marks = self._scope_marks.pop()
        for counter, start in marks.items():
            self.per_scope[f"{counter}@{key}"].append(self.counts[counter] - start)

    # ---- wrapping --------------------------------------------------------

    def wrap(self, owner, attr, name=None, tag=None, before=None, after=None):
        """Replace owner.attr by a wrapper; ``uninstall`` puts it back.

        The hooks take the wrapped call's arguments: ``tag`` returns the
        span's phase/variant/layer, ``before`` runs first and may return a
        callable to run on exit, ``after`` also gets the result first.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            undo = before(*args, **kwargs) if before else None
            if name:
                tracer.open(name, tag(*args, **kwargs) if tag else "")
            try:
                result = func(*args, **kwargs)
            finally:
                if undo:
                    undo()
                if name:
                    tracer.close()
            if after:
                after(result, *args, **kwargs)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ---- context ---------------------------------------------------------

    def _enter(self, head, phase):
        """Make head's variant and phase the tag of nested spans until undo."""
        saved = (self.variant, self.phase, self.layer_index)
        self.variant = head.config.variant
        self.phase = phase
        self.layer_index = {id(layer): i for i, layer in enumerate(head.layers)}

        def undo():
            self.variant, self.phase, self.layer_index = saved

        return undo

    def _ph_v(self, *args, **kwargs) -> str:
        return f"{self.phase}.{self.variant}"

    def _layer_tag(self, layer, *args, **kwargs) -> str:
        return f"{self.phase}.{self.variant}.l{self.layer_index.get(id(layer), -1)}"

    def _count(self, key, n=1) -> None:
        self.counts[key] += n

    # ---- installation ----------------------------------------------------

    def install_stages(self) -> None:
        """The two stage timers every run needs for its throughput figures."""
        bv = _modules()

        def enter_train(head, data, cfg):
            self._count("train.rows", data.n * cfg.epochs)
            return self._enter(head, "train")

        def enter_mc(head, x, t, seed):
            self._count("uncertainty.row_passes", x.shape[0] * t)
            return self._enter(head, "mc")

        def variant(head, *args, **kwargs):
            return head.config.variant

        self.wrap(bv.cli, "train", "train.train", tag=variant, before=enter_train)
        self.wrap(bv.cli, "mc_predict", "uncertainty.mc_predict", tag=variant, before=enter_mc)

    def install_layers(self) -> None:
        """Every layer boundary the per-layer metrics need."""
        bv = _modules()
        from bvihead.tensor import Tensor
        from bvihead.train import Adam, Sgd
        from bvihead.uncertainty import PredictiveDistribution

        counts, seconds, clock = self.counts, self.seconds, time.perf_counter
        init = Tensor.__init__

        def tensor_init(obj, *args, **kwargs):
            t0 = clock()
            init(obj, *args, **kwargs)
            seconds["tensor.node"] += clock() - t0
            counts["tensor.nodes"] += 1

        self._restore.append((Tensor, "__init__", init))
        Tensor.__init__ = tensor_init

        def cur_variant(*args, **kwargs):
            return self.variant

        def cur_phase(*args, **kwargs):
            return self.phase

        def counter(key):
            return lambda *args, **kwargs: self._count(key)

        def step_start(*args, **kwargs):
            self.open_scope("train.step", self.variant)

        def pass_start(*args, **kwargs):
            self.open_scope("uncertainty.pass", self.variant)

        def written(path, data):
            self._count("fsio.bytes_written", len(data))
            self._count("fsio.files_written")

        def ckpt_size(result, head, path):
            self.counts[f"model.ckpt_bytes.{head.config.variant}"] = os.path.getsize(path)

        self.wrap(Tensor, "backward", "tensor.backward", tag=cur_variant)
        self.wrap(Tensor, "softplus", before=counter("dist.softplus_calls"))

        self.wrap(bv.layers, "kl_to_prior", "dist.kl", tag=cur_phase,
                  before=lambda *a, **k: self._count(f"dist.kl_calls.{self.phase}"))
        self.wrap(bv.layers, "sample", "dist.sample", tag=cur_phase)

        for fwd in ("variational_forward_flipout", "variational_forward_reparam", "dense_forward"):
            self.wrap(bv.model, fwd, "layers.fwd", tag=self._layer_tag)
        self.wrap(bv.model, "dropout_forward", "layers.dropout", tag=cur_phase)

        # a train step runs from its noise draw to the end of its optimizer
        # step, an MC pass from its noise draw to the end of its forward; the
        # pass wrappers go on last so that they enclose the model spans
        self.wrap(bv.train, "draw_noise_bundle", "model.noise", tag=self._ph_v, before=step_start)
        for noise in ("draw_noise_bundle", "zero_noise_bundle"):
            self.wrap(bv.uncertainty, noise, "model.noise", tag=self._ph_v)
            self.wrap(bv.uncertainty, noise, before=pass_start)
        for mod in (bv.train, bv.uncertainty):
            self.wrap(mod, "forward", "model.forward", tag=self._ph_v)
        self.wrap(bv.uncertainty, "forward",
                  after=lambda *a, **k: self.close_scope("uncertainty.pass"))
        for cls in (Adam, Sgd):
            self.wrap(cls, "step", "train.optimizer", tag=cur_variant,
                      after=lambda *a, **k: self.close_scope("train.step"))
        self.wrap(bv.train, "elbo_loss", "train.elbo", tag=cur_variant)

        self.wrap(bv.cli, "save_head", "model.save_head", after=ckpt_size)
        for mod in (bv.cli, bv.model):
            self.wrap(mod, "load_head", "model.load_head")

        self.wrap(PredictiveDistribution, "__init__", before=counter("uncertainty.pd_objects"))
        self.wrap(PredictiveDistribution, "from_samples", "uncertainty.from_samples")
        self.wrap(bv.cli, "save_reports", "uncertainty.save_reports")

        self.wrap(bv.cli, "evaluation_suite", "evaluate.suite", tag=cur_variant)
        self.wrap(bv.cli, "write_bundle", "evaluate.write_bundle")

        self.wrap(bv.data, "generate", "data.generate")
        self.wrap(bv.data, "load_features", "data.load")
        self.wrap(bv.train, "batches", "data.batches")
        for mod in (bv.fsio, bv.data):
            self.wrap(mod, "atomic_write_bytes", "fsio.write", before=written)

        self.wrap(bv.cli, "_train_one", "cli.train_stage", tag=lambda cfg, variant, *a, **k: variant)
        self.wrap(bv.cli, "_eval_one", "cli.eval_stage",
                  tag=lambda cfg, head, *a, **k: head.config.variant,
                  before=lambda cfg, head, *a, **k: self._enter(head, "mc"))
        self.install_stages()

    # ---- results ---------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Summed span seconds by ``name`` and by ``name.tag``."""
        out: dict[str, float] = defaultdict(float)
        for name, tag, start, end, _, _ in self.spans:
            out[name] += end - start
            if tag:
                out[f"{name}.{tag}"] += end - start
        return out

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, tag, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end, _, _) in enumerate(self.spans):
            out[name.split(".")[0]] += (end - start) - child[i]
        return out

    def durations_ms(self, name: str) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for n, tag, start, end, _, _ in self.spans:
            if n == name:
                out[tag].append((end - start) * 1e3)
        return out

    def dump(self, path) -> None:
        """Write every span as name, tag, start, end, parent, operation id."""
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = {
            "columns": ["name", "tag", "start_s", "end_s", "parent", "op"],
            "spans": [
                [n, tag, round(s - t0, 7), round(e - t0, 7), p, op]
                for n, tag, s, e, p, op in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
