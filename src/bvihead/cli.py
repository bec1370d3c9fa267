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
from .fsio import atomic_write_text, csv_text, json_object, json_value, read_json
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


# the widest hidden layer a config may ask for, far beyond the default 256:
# a 4096 x 4096 float64 weight array is 134 MB, and VI training keeps
# about ten arrays of that size
MAX_HIDDEN_DIM = 4096
# far beyond the tens of passes an MC estimate needs; T passes over M rows
# of K classes hold M * T * K float64 probabilities
MAX_MC_SAMPLES = 10**4


def load_config(path: str | None) -> dict:
    """Defaults, overlaid with the JSON file if given. Unknown keys reject;
    values are checked when they are read (`_get`)."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return cfg
    user = json_object(read_json(path, "config"), cfg, f"{path}: config")
    for section, values in user.items():
        cfg[section].update(json_object(values, cfg[section], f"{path}: config.{section}"))
    return cfg


def _get(cfg: dict, section: str, key: str):
    """cfg[section][key], of its default's JSON type (`fsio.json_value`).

    hidden_dims holds exactly two integers, each at most MAX_HIDDEN_DIM;
    formats holds one or more dataset formats; a seed is >= 0. Anything
    else raises ConfigError naming section.key.
    """
    where = f"{section}.{key}"
    value = json_value(cfg[section][key], DEFAULT_CONFIG[section][key], where)
    # before build_head allocates
    if key == "hidden_dims" and (len(value) != 2 or max(value) > MAX_HIDDEN_DIM):
        raise ConfigError(f"{where} must be two integers, each at most {MAX_HIDDEN_DIM},"
                          f" got {value!r}")
    if key == "formats" and not (value and set(value) <= set(data_mod.FORMATS)):
        raise ConfigError(f"{where} must list one or more of {data_mod.FORMATS}, got {value!r}")
    if key.endswith("seed") and value < 0:
        raise ConfigError(f"{where} must be >= 0, got {value}")
    return value


def _count(cfg: dict, section: str, key: str, most: int) -> int:
    """cfg[section][key], an integer checked to lie in [1, most]."""
    n = _get(cfg, section, key)
    if not 1 <= n <= most:
        raise ConfigError(f"{section}.{key} must be in [1, {most}], got {n}")
    return n


def _eval_keys(cfg: dict) -> tuple[int, int, int]:
    """(mc_samples, inference seed, bins), each checked before any pass runs."""
    return (_count(cfg, "inference", "mc_samples", MAX_MC_SAMPLES),
            _get(cfg, "inference", "seed"), _count(cfg, "eval", "bins", MAX_BINS))


def _build(cls, cfg: dict, section: str, **given):
    """cls from the fields not `given`, each read from cfg[section] by _get."""
    read = {f.name: _get(cfg, section, f.name) for f in fields(cls) if f.name not in given}
    return cls(**read, **given)


def synth_spec_from(cfg: dict) -> data_mod.SynthSpec:
    return _build(data_mod.SynthSpec, cfg, "data")


def head_config_from(cfg: dict, variant: str, feature_dim: int, k: int) -> HeadConfig:
    return _build(HeadConfig, cfg, "head", input_dim=feature_dim, num_classes=k, variant=variant)


def train_config_from(cfg: dict, seed_offset: int = 0) -> TrainConfig:
    return _build(TrainConfig, cfg, "train", seed=_get(cfg, "train", "seed") + seed_offset)


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


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["data"]["center_seed"] = args.seed
        cfg["data"]["noise_seed"] = args.seed + 1
    if args.classes is not None:
        cfg["data"]["k_in"] = cfg["data"]["k_out"] = args.classes
    _gen_data(cfg, Path(args.out), [args.format] if args.format else _get(cfg, "data", "formats"))
    return EXIT_OK


def _train_one(cfg, variant, train_set, out_dir, seed_offset=0):
    """Train one variant on train_set and write its checkpoint and report
    into out_dir; returns the head."""
    k = train_set.num_classes()
    head_cfg = head_config_from(cfg, variant, train_set.feature_dim, k)
    head = build_head(head_cfg, init_seed=_get(cfg, "head", "init_seed") + seed_offset)
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
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed
    out_dir = Path(args.out)
    train_set = data_mod.load_features(*_find_dataset(out_dir, "train"))
    _train_one(cfg, args.variant, train_set, out_dir)
    return EXIT_OK


def _eval_data(out_dir) -> data_mod.LabeledFeatureSet:
    """The evaluation rows in out_dir: val, then ood when present. An ood
    row not labelled OOD_LABEL raises ParseError."""
    val_set = data_mod.load_features(*_find_dataset(out_dir, "val"))
    try:
        ood_path, ood_fmt = _find_dataset(out_dir, "ood")
    except FileNotFoundError:
        print("notice: no OOD file found; OOD metrics will be omitted")
        return val_set
    ood_set = data_mod.load_features(ood_path, ood_fmt)
    labelled = np.flatnonzero(~ood_set.is_ood)
    if labelled.size:
        r = labelled[0]
        raise ParseError(f"{ood_path}: row {r}: label {ood_set.labels[r]}; an OOD file holds"
                         f" only rows labelled {data_mod.OOD_LABEL}")
    return data_mod.LabeledFeatureSet(np.concatenate([val_set.features, ood_set.features]),
                                      np.concatenate([val_set.labels, ood_set.labels]))


def _eval_one(cfg, head, eval_set, eval_dir):
    """Evaluate a trained head on `_eval_data`'s rows; writes artifacts."""
    if head.config.input_dim != eval_set.feature_dim:
        raise ConfigError(
            f"checkpoint expects F={head.config.input_dim} features but the"
            f" dataset has F={eval_set.feature_dim}"
        )
    k_data = eval_set.num_classes()
    if k_data > head.config.num_classes:
        raise ConfigError(
            f"checkpoint has K={head.config.num_classes} classes but the"
            f" dataset needs K={k_data}"
        )
    t, seed, bins = _eval_keys(cfg)
    if head.config.variant == DETERMINISTIC and t > 1:
        print(
            f"warning: deterministic variant ignores stochastic passes;"
            f" using T=1 instead of requested T={t}"
        )
        t = 1
    pd = mc_predict(head, Tensor(eval_set.features), t=t, seed=seed)
    bundle = evaluation_suite(pd, eval_set.labels, bins=bins)
    eval_dir = Path(eval_dir)
    eval_dir.mkdir(parents=True, exist_ok=True)
    save_reports(eval_dir / "report.csv", bundle.reports, eval_set.labels)
    write_bundle(bundle, eval_dir)
    for notice in bundle.notices:
        print(f"notice: {notice}")
    return bundle


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["inference"]["seed"] = args.seed
    if args.mc_samples is not None:
        cfg["inference"]["mc_samples"] = args.mc_samples
    _eval_keys(cfg)  # before the checkpoint and the data load
    out_dir = Path(args.out)
    ckpt = args.checkpoint or str(out_dir / f"checkpoint_{args.variant}.json")
    head = load_head(ckpt)
    if head.config.variant != args.variant:
        raise ConfigError(f"{ckpt} holds a {head.config.variant} head, not --variant {args.variant}")
    bundle = _eval_one(cfg, head, _eval_data(out_dir), out_dir / f"eval_{args.variant}")
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
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed
    if args.mc_samples is not None:
        cfg["inference"]["mc_samples"] = args.mc_samples
    out_dir = Path(args.out)
    generate = not any((out_dir / f"train.{fmt}").exists() for fmt in data_mod.FORMATS)
    if generate and args.classes is not None:
        cfg["data"]["k_in"] = cfg["data"]["k_out"] = args.classes
    # every key the stages read, before the first file is written; the
    # head's input count comes from the data when it loads, and so does its
    # class count, unless the data is generated here
    t = _eval_keys(cfg)[0]
    head_config_from(cfg, DETERMINISTIC, 1, synth_spec_from(cfg).k_in if generate else 2)
    _get(cfg, "head", "init_seed")
    train_config_from(cfg)
    if generate:
        _gen_data(cfg, out_dir, _get(cfg, "data", "formats"))
    eval_set = _eval_data(out_dir)
    # the heads' class count is the training set's; the MC heads' result
    # is the largest, and is bounded before the first head trains
    train_set = data_mod.load_features(*_find_dataset(out_dir, "train"))
    if args.classes is not None and train_set.num_classes() != args.classes:
        raise ConfigError(f"--classes {args.classes}, but the training set in {out_dir}"
                          f" has {train_set.num_classes()} classes")
    check_mc_size(eval_set.n, t, train_set.num_classes())

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

    def common(p, variant=False, mc=False, checkpoint=False, fmt=False):
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

    p_gen = sub.add_parser("gen-data", help="generate synthetic feature datasets")
    common(p_gen, fmt=True)
    p_gen.add_argument(
        "--classes", type=int, help="preset: N in- and N out-of-distribution classes"
    )
    p_gen.set_defaults(func=cmd_gen_data)

    p_train = sub.add_parser("train", help="train one head variant")
    common(p_train, variant=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="Monte Carlo evaluation of a checkpoint")
    common(p_eval, variant=True, mc=True, checkpoint=True)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="train and evaluate all three variants")
    common(p_cmp, mc=True)
    p_cmp.add_argument(
        "--classes", type=int, help="preset: N in- and N out-of-distribution classes"
    )
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
