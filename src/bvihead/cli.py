"""Command-line surface: gen-data, train, eval, compare, hist.

Every command is deterministic given its config; all seeds live in the
config file and can be overridden by flags (flag > file > default). Output
files are written atomically. Exit codes: 0 success, 2 config/usage,
3 I/O, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import math
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import BviError, ConfigError, NumericError, ParseError
from .evaluate import MAX_BINS, SUMMARY_KEYS, density_histogram, evaluation_suite, write_bundle
from .fsio import atomic_write_text, csv_text, json_dataclass, json_object, json_value, read_json
from .model import (
    DETERMINISTIC,
    VARIANTS,
    HeadConfig,
    build_head,
    load_head,
    save_head,
)
from .tensor import Tensor
from .train import TrainConfig, train
from .uncertainty import check_mc_size, mc_predict, save_reports

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# the dataclasses hold every default they own; only the keys no dataclass
# owns are spelled out here
DEFAULT_CONFIG = {
    "data": {**asdict(data_mod.SynthSpec()), "formats": ["bfv"]},
    "head": {
        "hidden_dims": [256, 256],
        **{f.name: f.default for f in fields(HeadConfig) if f.default is not MISSING},
        "init_seed": 100,
    },
    "train": asdict(TrainConfig()),
    "inference": {"mc_samples": 40, "seed": 1234},
    "eval": {"bins": 50},
}


# far beyond the tens of passes an MC estimate needs; T passes over M rows
# of K classes hold M * T * K float64 probabilities
MAX_MC_SAMPLES = 10**4
# the most of each count the config holds outside the dataclasses
_MOST = {"mc_samples": MAX_MC_SAMPLES, "bins": MAX_BINS}


def load_config(path: str | None, flags: dict | None = None) -> dict:
    """The config a command runs with, checked whole before it reads any of it.

    The defaults are overlaid with the JSON file if given, then with
    `flags`, the command's {(section, key): value} overrides, where None
    means the flag was not given. Unknown keys reject. Then every key of
    every section is checked, whether or not the command uses it: the JSON
    type of its default (`fsio.json_value`), the bounds SynthSpec,
    HeadConfig (`model.MAX_HIDDEN_DIM` among them) and TrainConfig own,
    and the bounds of the keys no dataclass owns: `data.formats`, the
    seeds, `inference.mc_samples` and `eval.bins`. Any failure raises
    ConfigError naming section.key. Commands read plain values from what
    this returns, and no other function writes into it.
    """
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    user = {} if path is None else json_object(read_json(path, "config"), cfg, f"{path}: config")
    for section, values in user.items():
        cfg[section].update(json_object(values, cfg[section], f"{path}: config.{section}"))
    for (section, key), value in (flags or {}).items():
        if value is not None:
            cfg[section][key] = value
    for section, values in cfg.items():
        for key, value in values.items():
            where = f"{section}.{key}"
            values[key] = value = json_value(value, DEFAULT_CONFIG[section][key], where)
            if key.endswith("seed") and value < 0:
                raise ConfigError(f"{where} must be >= 0, got {value}")
            if key in _MOST and not 1 <= value <= _MOST[key]:
                raise ConfigError(f"{where} must be in [1, {_MOST[key]}], got {value}")
            if key == "formats" and not (value and set(value) <= set(data_mod.FORMATS)):
                raise ConfigError(f"{where} must list one or more of {data_mod.FORMATS},"
                                  f" got {value!r}")
    synth_spec_from(cfg)
    head_config_from(cfg, DETERMINISTIC, 1, 2)  # the data gives a head its two counts
    train_config_from(cfg)
    return cfg


def synth_spec_from(cfg: dict) -> data_mod.SynthSpec:
    return json_dataclass(data_mod.SynthSpec, cfg["data"], "data.")


def head_config_from(cfg: dict, variant: str, feature_dim: int, k: int, where="head.") -> HeadConfig:
    """The head of cfg's head section for feature_dim features and k classes;
    `where` names what a bound failure came from."""
    return json_dataclass(HeadConfig, cfg["head"], where, input_dim=feature_dim, num_classes=k,
                          variant=variant)


def train_config_from(cfg: dict, seed_offset: int = 0) -> TrainConfig:
    return json_dataclass(TrainConfig, cfg["train"], "train.",
                          seed=cfg["train"]["seed"] + seed_offset)


def _find_dataset(out_dir: Path, name: str) -> tuple[Path, str]:
    for fmt in data_mod.FORMATS:
        path = out_dir / f"{name}.{fmt}"
        if path.exists():
            return path, fmt
    names = " or ".join(f"{name}.{fmt}" for fmt in data_mod.FORMATS)
    raise FileNotFoundError(f"no {names} under {out_dir}")


# ---- commands ------------------------------------------------------------


def _gen_data(cfg: dict, out_dir: Path, formats: list[str]) -> None:
    """Generate the train, val and ood sets of cfg into out_dir, once per format."""
    spec = synth_spec_from(cfg)
    sets = dict(zip(("train", "val", "ood"), data_mod.generate(spec)))
    out_dir.mkdir(parents=True, exist_ok=True)
    for fmt in formats:
        for name, dset in sets.items():
            data_mod.save_features(dset, out_dir / f"{name}.{fmt}", fmt)
    counts = np.bincount(sets["train"].labels, minlength=spec.k_in)
    print(
        f"generated {sum(s.n for s in sets.values())} rows"
        f" (train {sets['train'].n}, val {sets['val'].n}, ood {sets['ood'].n}),"
        f" F={spec.feature_dim}, K={spec.k_in}"
    )
    print(f"train rows per class: {counts.tolist()}")
    print(f"formats: {', '.join(formats)} -> {out_dir}")


def _classes(args) -> dict:
    """The overrides of `--classes N`: N in- and N out-of-distribution classes."""
    return {("data", "k_in"): args.classes, ("data", "k_out"): args.classes}


def cmd_gen_data(args) -> int:
    seed = args.seed
    cfg = load_config(args.config, {("data", "center_seed"): seed, **_classes(args),
                                    ("data", "noise_seed"): None if seed is None else seed + 1})
    _gen_data(cfg, Path(args.out), [args.format] if args.format else cfg["data"]["formats"])
    return EXIT_OK


def _train_data(cfg, out_dir) -> data_mod.LabeledFeatureSet:
    """The training rows in out_dir, checked against cfg's head section:
    a head of their feature and class counts that breaks a HeadConfig
    bound raises ConfigError naming the file."""
    path, fmt = _find_dataset(out_dir, "train")
    train_set = data_mod.load_features(path, fmt)
    head_config_from(cfg, DETERMINISTIC, train_set.feature_dim, train_set.num_classes(),
                     f"{path}: ")
    return train_set


def _train_one(cfg, variant, train_set, out_dir, seed_offset=0):
    """Train one variant on `_train_data`'s rows and write its checkpoint
    and report into out_dir; returns the head."""
    head_cfg = head_config_from(cfg, variant, train_set.feature_dim, train_set.num_classes())
    head = build_head(head_cfg, init_seed=cfg["head"]["init_seed"] + seed_offset)
    train_cfg = train_config_from(cfg, seed_offset)
    head, report = train(head, train_set, train_cfg)
    save_head(head, out_dir / f"checkpoint_{variant}.json")
    report.save(out_dir / f"train_report_{variant}.csv")
    final_acc = report.epochs[-1].accuracy if report.epochs else float("nan")
    print(
        f"[{variant}] trained {train_cfg.epochs} epochs"
        f" (train seed {train_cfg.seed}), final train accuracy {final_acc:.4f}"
    )
    return head


def cmd_train(args) -> int:
    cfg = load_config(args.config, {("train", "seed"): args.seed})
    out_dir = Path(args.out)
    _train_one(cfg, args.variant, _train_data(cfg, out_dir), out_dir)
    return EXIT_OK


def _eval_data(out_dir, f: int, k: int) -> data_mod.LabeledFeatureSet:
    """The evaluation rows in out_dir, val then ood when present, checked
    whole against a head of f features and k classes before anything is
    written. Each error names its file: an ood row not labelled OOD_LABEL
    raises ParseError, and a width other than f, or a class beyond k,
    raises ConfigError."""
    files = [_find_dataset(out_dir, "val")]
    try:
        files.append(_find_dataset(out_dir, "ood"))
    except FileNotFoundError:
        pass  # the suite's notice says that OOD metrics are omitted
    sets = [data_mod.load_features(*file) for file in files]
    for (path, _), rows in zip(files, sets):
        if path.stem == "ood" and not rows.is_ood.all():
            r = np.argmin(rows.is_ood)  # the first labelled row
            raise ParseError(f"{path}: row {r}: label {rows.labels[r]}; an OOD file holds"
                             f" only rows labelled {data_mod.OOD_LABEL}")
        if rows.feature_dim != f:
            raise ConfigError(f"{path}: F={rows.feature_dim} features, but the head takes F={f}")
        if rows.num_classes() > k:
            raise ConfigError(f"{path}: labels need K={rows.num_classes()} classes,"
                              f" but the head has K={k}")
    return data_mod.LabeledFeatureSet(np.concatenate([s.features for s in sets]),
                                      np.concatenate([s.labels for s in sets]))


def _eval_one(cfg, head, eval_set, eval_dir):
    """Evaluate a trained head on `_eval_data`'s rows; writes artifacts."""
    t = cfg["inference"]["mc_samples"]
    if head.config.variant == DETERMINISTIC and t > 1:
        print(
            f"warning: deterministic variant ignores stochastic passes;"
            f" using T=1 instead of requested T={t}"
        )
        t = 1
    pd = mc_predict(head, Tensor(eval_set.features), t=t, seed=cfg["inference"]["seed"])
    bundle = evaluation_suite(pd, eval_set.labels, bins=cfg["eval"]["bins"])
    eval_dir = Path(eval_dir)
    eval_dir.mkdir(parents=True, exist_ok=True)
    save_reports(eval_dir / "report.csv", bundle.reports, eval_set.labels)
    write_bundle(bundle, eval_dir)
    for notice in bundle.notices:
        print(f"notice: {notice}")
    return bundle


def cmd_eval(args) -> int:
    cfg = load_config(args.config, {("inference", "seed"): args.seed,
                                    ("inference", "mc_samples"): args.mc_samples})
    out_dir = Path(args.out)
    ckpt = args.checkpoint or str(out_dir / f"checkpoint_{args.variant}.json")
    head = load_head(ckpt)
    if head.config.variant != args.variant:
        raise ConfigError(f"{ckpt} holds a {head.config.variant} head, not --variant {args.variant}")
    eval_set = _eval_data(out_dir, head.config.input_dim, head.config.num_classes)
    bundle = _eval_one(cfg, head, eval_set, out_dir / f"eval_{args.variant}")
    print(bundle.summary_json(), end="")
    return EXIT_OK


def _format_cell(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def comparison_tables(rows: dict[str, dict]) -> tuple[str, str]:
    """(markdown, csv) for the three-variant comparison."""
    md = ["| model | " + " | ".join(SUMMARY_KEYS) + " |", "|" + "---|" * (len(SUMMARY_KEYS) + 1)]
    md += [f"| {variant} | " + " | ".join(_format_cell(rows[variant][c]) for c in SUMMARY_KEYS)
           + " |" for variant in VARIANTS]
    table = [[variant] + [rows[variant][c] for c in SUMMARY_KEYS] for variant in VARIANTS]
    return "\n".join(md) + "\n", csv_text(("model", *SUMMARY_KEYS), table)


def cmd_compare(args) -> int:
    cfg = load_config(args.config, {("train", "seed"): args.seed, **_classes(args),
                                    ("inference", "mc_samples"): args.mc_samples})
    out_dir = Path(args.out)
    if not any((out_dir / f"train.{fmt}").exists() for fmt in data_mod.FORMATS):
        _gen_data(cfg, out_dir, cfg["data"]["formats"])
    # the heads' two counts are the training set's; every input is checked,
    # and the MC heads' result, the largest, is bounded, before the first
    # head trains
    train_set = _train_data(cfg, out_dir)
    f, k = train_set.feature_dim, train_set.num_classes()
    if args.classes is not None and k != args.classes:
        raise ConfigError(f"--classes {args.classes}, but the training set in {out_dir}"
                          f" has {k} classes")
    eval_set = _eval_data(out_dir, f, k)
    check_mc_size(eval_set.n, cfg["inference"]["mc_samples"], k)

    results = {}
    for idx, variant in enumerate(VARIANTS):
        head = _train_one(cfg, variant, train_set, out_dir, seed_offset=idx)
        bundle = _eval_one(cfg, head, eval_set, out_dir / f"eval_{variant}")
        results[variant] = bundle.summary

    md, table = comparison_tables(results)
    atomic_write_text(out_dir / "compare.md", md)
    atomic_write_text(out_dir / "compare.csv", table)
    print(md, end="")
    return EXIT_OK


def cmd_hist(args) -> int:
    rows = data_mod.csv_rows(args.input)
    _, header = next(rows)
    if args.column not in header:
        raise ConfigError(f"column {args.column!r} not in {args.input} (has {header})")
    col = header.index(args.column)
    values = []
    for lineno, row in rows:
        value = data_mod.decimal(row[col])
        if value is None or math.isnan(value):  # NaN has no bin
            raise ParseError(
                f"{args.input}: line {lineno}, column {col + 1} ({args.column!r}):"
                f" {row[col]!r} is not a number"
            )
        values.append(value)
    hist = density_histogram(values, args.bins, args.lo, args.hi)
    atomic_write_text(args.out, hist.to_csv())
    print(f"wrote {args.bins}-bin histogram of {len(values)} values to {args.out}")
    return EXIT_OK


# ---- parser / dispatch ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvihead",
        description=(
            "Bayesian classification heads: synthetic feature generation,"
            " variational training, Monte Carlo uncertainty, and evaluation"
            " artifacts (curves, histograms, comparison tables)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, variant=False, mc=False, checkpoint=False, fmt=False, classes=False):
        p.add_argument("--config", help="JSON experiment config (defaults apply)")
        p.add_argument("--out", default="runs/default", help="workspace directory")
        p.add_argument("--seed", type=int, help="override the command's seed")
        if variant:
            p.add_argument(
                "--variant",
                choices=VARIANTS,
                default="stochastic-vi",
                help="head variant",
            )
        if mc:
            p.add_argument(
                "--mc-samples", type=int, help="stochastic forward passes (default 40)"
            )
        if checkpoint:
            p.add_argument("--checkpoint", help="checkpoint path (default from --out)")
        if fmt:
            p.add_argument("--format", choices=data_mod.FORMATS, help="dataset format")
        if classes:
            p.add_argument("--classes", type=int,
                           help="preset: N in- and N out-of-distribution classes")

    p_gen = sub.add_parser("gen-data", help="generate synthetic feature datasets")
    common(p_gen, fmt=True, classes=True)
    p_gen.set_defaults(func=cmd_gen_data)

    p_train = sub.add_parser("train", help="train one head variant")
    common(p_train, variant=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="Monte Carlo evaluation of a checkpoint")
    common(p_eval, variant=True, mc=True, checkpoint=True)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="train and evaluate all three variants")
    common(p_cmp, mc=True, classes=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_hist = sub.add_parser("hist", help="density histogram from a report CSV column")
    p_hist.add_argument("--input", required=True, help="CSV file with a header row")
    p_hist.add_argument("--column", required=True, help="column to histogram")
    p_hist.add_argument("--bins", type=int, default=50)
    p_hist.add_argument("--lo", type=float, default=0.0)
    p_hist.add_argument("--hi", type=float, default=1.0)
    p_hist.add_argument("--out", default="hist.csv", help="output CSV path")
    p_hist.set_defaults(func=cmd_hist)
    return parser


def exit_code(exc: Exception) -> int:
    """The exit code `main` reports a package or OS error with."""
    if isinstance(exc, NumericError):
        return EXIT_NUMERIC
    return EXIT_IO if isinstance(exc, (ParseError, OSError)) else EXIT_CONFIG


def main(argv=None) -> int:
    """Run one command; an error prints one `error: ...` line. Every
    non-finite value raises NumericError, so numpy's floating-point
    warnings, which would print before it, are silenced."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (BviError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
