import ast
import collections
import contextlib
import importlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import typing
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from bvihead.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, load_config, main
from bvihead.data import LabeledFeatureSet, SynthSpec, load_features, save_features
from bvihead.errors import ConfigError
from bvihead.evaluate import SUMMARY_KEYS
from bvihead.model import HeadConfig, build_head, head_to_dict, load_head
from bvihead.train import TrainConfig
from bvihead.cli import head_config_from, synth_spec_from, train_config_from


TINY = {
    "data": {
        "k_in": 3,
        "k_out": 2,
        "feature_dim": 6,
        "per_class": 20,
        "center_scale": 1.2,
        "within_std": 1.0,
        "center_seed": 21,
        "noise_seed": 22,
        "ood_displacement": 8.0,
        "formats": ["bfv"],
    },
    "head": {"hidden_dims": [16, 16], "init_seed": 5},
    "train": {"epochs": 3, "batch_size": 16, "seed": 3},
    "inference": {"mc_samples": 5, "seed": 77},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run(argv):
    return main(argv)


def fresh_interpreter(probe: str) -> str:
    """What `probe` prints in a new Python process that imports from src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout


def test_importing_the_cli_leaves_the_row_worker_unloaded():
    # perfbench times this import; the row worker loads concurrent.futures on first use
    probe = "import sys, bvihead.cli; print('concurrent.futures' in sys.modules)"
    assert fresh_interpreter(probe) == "False\n"


def test_the_package_is_its_modules():
    # `import bvihead` loads no submodule, and no package name hides one
    probe = ("import sys, types, bvihead\n"
             "print([m for m in sys.modules if m.startswith('bvihead.')])\n"
             "import bvihead.train\n"
             "print(isinstance(bvihead.train, types.ModuleType))")
    assert fresh_interpreter(probe) == "[]\nTrue\n"


def test_config_defaults_without_file():
    cfg = load_config(None)
    assert cfg["inference"]["mc_samples"] == 40
    assert cfg["data"]["k_in"] == 8


def test_config_defaults_equal_the_former_literal():
    assert load_config(None) == {
        "data": {
            "k_in": 8,
            "k_out": 8,
            "feature_dim": 64,
            "per_class": 250,
            "center_scale": 1.3,
            "within_std": 1.5,
            "center_seed": 11,
            "noise_seed": 12,
            "ood_displacement": 12.0,
            "formats": ["bfv"],
        },
        "head": {
            "hidden_dims": [256, 256],
            "dropout_rate": 0.2,
            "estimator": "flipout",
            "init_seed": 100,
        },
        "train": {
            "epochs": 30,
            "batch_size": 64,
            "learning_rate": 1e-3,
            "optimizer": "adam",
            "momentum": 0.9,
            "beta1": 0.9,
            "beta2": 0.999,
            "adam_eps": 1e-8,
            "kl_weight_mode": "one-over-n",
            "kl_weight_const": 1.0,
            "seed": 7,
            "shuffle": True,
        },
        "inference": {"mc_samples": 40, "seed": 1234},
        "eval": {"bins": 50},
    }


@pytest.mark.parametrize("cls", [SynthSpec, HeadConfig, TrainConfig])
def test_config_dataclass_defaults_have_their_annotated_type(cls):
    # the config reader expects each value to have its default's type, so a
    # float field defaulting to an int literal would reject 0.5
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.default is not MISSING:
            assert type(f.default) is hints[f.name], f.name


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"data": {"bogus_key": 1}}))
    with pytest.raises(ConfigError, match="bogus_key"):
        load_config(str(path))
    path.write_text(json.dumps({"wrong_section": {}}))
    with pytest.raises(ConfigError, match="wrong_section"):
        load_config(str(path))


def config_with(tmp_path, section, key, value):
    """load_config of a file that sets section.key to value."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {key: value}}))
    return load_config(str(path))


@pytest.mark.parametrize("value", ["abc", 2.9, 2.0, True, None])
def test_config_integer_field_must_be_json_integer(tmp_path, value):
    with pytest.raises(ConfigError, match=r"train\.epochs must be int, got"):
        config_with(tmp_path, "train", "epochs", value)
    with pytest.raises(ConfigError, match=r"data\.per_class must be int, got"):
        config_with(tmp_path, "data", "per_class", value)


@pytest.mark.parametrize("value", ["0.1", True, None, [0.1], float("nan"), float("inf"), 10**400])
def test_config_float_field_must_be_finite_number(tmp_path, value):
    with pytest.raises(ConfigError, match=r"train\.learning_rate must be"):
        config_with(tmp_path, "train", "learning_rate", value)
    with pytest.raises(ConfigError, match=r"data\.within_std must be"):
        config_with(tmp_path, "data", "within_std", value)


def test_config_float_field_accepts_integer(tmp_path):
    cfg = config_with(tmp_path, "train", "learning_rate", 1)
    assert train_config_from(cfg).learning_rate == 1.0
    assert synth_spec_from(config_with(tmp_path, "data", "within_std", 2)).within_std == 2.0


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_config_shuffle_must_be_bool(tmp_path, value):
    with pytest.raises(ConfigError, match=r"train\.shuffle must be true or false"):
        config_with(tmp_path, "train", "shuffle", value)
    assert train_config_from(config_with(tmp_path, "train", "shuffle", False)).shuffle is False


@pytest.mark.parametrize("value", [None, [16], [16, 16, 16], [16, 16.0], [16, True], "16,16"])
def test_config_hidden_dims_must_be_two_integers(tmp_path, value):
    # another JSON type fails the type rule, another length HeadConfig's count
    counted = value in ([16], [16, 16, 16])
    text = r": expected two hidden dims, got \(" if counted else " must be a list of integers, got"
    with pytest.raises(ConfigError, match=rf"^head\.hidden_dims{text}"):
        config_with(tmp_path, "head", "hidden_dims", value)


def test_mistyped_config_value_exits_2_naming_the_key(tiny_config, tmp_path, capsys):
    out = tmp_path / "ws"
    assert run(["gen-data", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    cfg = json.loads(json.dumps(TINY))
    cfg["train"]["epochs"] = "abc"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = run(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "train.epochs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, key, value, message",
    [
        ("gen-data", "data", "center_scale", -1.0, "data.center_scale must be in (0, 1e300]"),
        ("gen-data", "data", "formats", None, "data.formats must be a list of strings"),
        ("gen-data", "data", "center_seed", -1, "data.center_seed must be >= 0, got -1"),
        ("gen-data", "data", "noise_seed", -1, "data.noise_seed must be >= 0, got -1"),
        ("train", "head", "init_seed", -1, "head.init_seed must be >= 0, got -1"),
        ("train", "train", "seed", -1, "train.seed must be >= 0, got -1"),
        ("eval", "inference", "seed", -1, "inference.seed must be >= 0, got -1"),
    ],
)
def test_config_range_errors_exit_2_naming_the_key(
    tiny_config, tmp_path, capsys, command, section, key, value, message
):
    out = tmp_path / "ws"
    assert run(["gen-data", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    assert run(["train", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    cfg = json.loads(json.dumps(TINY))
    cfg[section][key] = value
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {message}")


# one (section, key, value) per bound a config value can fail: SynthSpec's,
# HeadConfig's and TrainConfig's, then those of the keys no dataclass owns
BOUNDS = [
    ("data", "k_in", 0),
    ("data", "k_out", 0),
    ("data", "feature_dim", 0),
    ("data", "per_class", 0),
    ("data", "k_in", 1),
    ("data", "per_class", 10**12),
    ("data", "per_class", 2),
    ("data", "within_std", -1.0),
    ("data", "ood_displacement", -5.0),
    ("data", "center_scale", -1.0),
    ("data", "center_scale", 1e301),
    ("head", "estimator", "bogus"),
    ("head", "hidden_dims", [16]),
    ("head", "hidden_dims", [-3, 4]),
    ("head", "dropout_rate", 1.5),
    ("train", "epochs", -1),
    ("train", "batch_size", 0),
    ("train", "learning_rate", 0.0),
    ("train", "optimizer", "bogus"),
    ("train", "kl_weight_mode", "bogus"),
    ("train", "momentum", 5.0),
    ("train", "beta1", 1.0),
    ("train", "beta2", 1.0),
    ("train", "adam_eps", 0.0),
    ("train", "kl_weight_const", -1.0),
    ("data", "formats", []),
    ("data", "formats", ["hdf5"]),
    ("data", "center_seed", -1),
    ("data", "noise_seed", -1),
    ("head", "init_seed", -1),
    ("head", "hidden_dims", [4, 4097]),
    ("head", "hidden_dims", [262144, 64]),
    ("train", "seed", -1),
    ("inference", "seed", -1),
    ("inference", "mc_samples", 0),
    ("inference", "mc_samples", 10**4 + 1),
    ("eval", "bins", 0),
    ("eval", "bins", 10**6 + 1),
]


def snapshot(root):
    """Every file under root, with its bytes."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def trained_ws(tmp_path_factory):
    """A workspace with TINY's data and a deterministic head trained on it."""
    root = tmp_path_factory.mktemp("bounds")
    path = root / "config.json"
    path.write_text(json.dumps(TINY))
    out = root / "ws"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["gen-data", "--config", str(path), "--out", str(out)]) == EXIT_OK
        argv = ["train", "--config", str(path), "--out", str(out), "--variant", "deterministic"]
        assert run(argv) == EXIT_OK
    return out


@pytest.mark.parametrize("section, key, value", BOUNDS,
                         ids=[f"{s}.{k}={v!r}" for s, k, v in BOUNDS])
def test_every_config_bound_exits_2_from_every_command_naming_its_key(
    trained_ws, tmp_path, capsys, section, key, value
):
    # the whole config is checked as it loads, also the sections a command
    # does not use, such as gen-data's train section
    cfg = json.loads(json.dumps(TINY))
    cfg.setdefault(section, {})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    before = snapshot(trained_ws)
    capsys.readouterr()
    for command in ("gen-data", "train", "eval", "compare"):
        variant = ["--variant", "deterministic"] if command in ("train", "eval") else []
        code = run([command, "--config", str(path), "--out", str(trained_ws), *variant])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, (command, err)
        assert err.startswith(f"error: {section}.{key}"), (command, err)
        assert snapshot(trained_ws) == before, command


def test_a_checkpoint_bound_names_its_config_field(trained_ws, tmp_path, capsys):
    doc = json.loads((trained_ws / "checkpoint_deterministic.json").read_text())
    doc["config"]["dropout_rate"] = 1.5
    ckpt = tmp_path / "head.json"
    ckpt.write_text(json.dumps(doc))
    before = snapshot(trained_ws)
    capsys.readouterr()
    code = run(["eval", "--out", str(trained_ws), "--variant", "deterministic",
                "--checkpoint", str(ckpt)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {ckpt}: config.dropout_rate must be in [0, 1), got 1.5\n")
    assert snapshot(trained_ws) == before


@pytest.mark.parametrize("command", ["train", "compare"])
def test_a_one_class_training_file_exits_2_naming_the_file(tiny_config, tmp_path, capsys,
                                                            command):
    # the class count comes from the data, so the error names the file, not a key
    out = tmp_path / "ws"
    assert run(["gen-data", "--config", tiny_config, "--out", str(out), "--format", "csv"]) == EXIT_OK
    path = out / "train.csv"
    rows = load_features(path, "csv")
    one = rows.labels == 0
    save_features(LabeledFeatureSet(rows.features[one], rows.labels[one]), path, "csv")
    before = snapshot(out)
    capsys.readouterr()
    variant = ["--variant", "deterministic"] if command == "train" else []
    assert run([command, "--config", tiny_config, "--out", str(out), *variant]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {path}: num_classes: need at least 2 classes, got 1\n")
    assert snapshot(out) == before


def config_writers(source: str) -> set[str]:
    """The top-level functions of source that store into, delete from or
    call a mutating method on an expression rooted at the name `cfg`."""
    mutators = {"update", "setdefault", "pop", "popitem", "clear", "append", "extend", "insert"}

    def rooted_at_cfg(node):
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "cfg"

    writers = set()
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            stored = (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                      and rooted_at_cfg(node.value))
            called = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in mutators and rooted_at_cfg(node.func.value))
            if stored or called:
                writers.add(fn.name)
    return writers


def test_only_load_config_writes_into_the_config():
    # a flag or a command that wrote into the config after it loaded would
    # skip the checks load_config makes
    source = Path(importlib.import_module("bvihead.cli").__file__).read_text()
    assert config_writers(source) == {"load_config"}
    # the scan sees a write a command would add
    late = "def cmd_x(args):\n    cfg = load_config(None)\n    cfg['train']['seed'] = 1\n"
    assert config_writers(source + late) == {"load_config", "cmd_x"}


def test_config_file_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "latin1.json"
    cfg_path.write_bytes('{"data": {"formats": ["bfv"]}, "\u00e9": 1}'.encode("latin-1"))
    assert run(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: line 1: not UTF-8 text") and "utf-8" in err


def test_gen_data_writes_expected_rows(tiny_config, tmp_path, capsys):
    out = tmp_path / "ws"
    assert run(["gen-data", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "train 48" in captured  # 3 classes * 16
    assert (out / "train.bfv").exists()
    assert (out / "val.bfv").exists()
    assert (out / "ood.bfv").exists()


def test_gen_data_rerun_is_byte_identical(tiny_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(["gen-data", "--config", tiny_config, "--out", str(out_a)])
    run(["gen-data", "--config", tiny_config, "--out", str(out_b)])
    for name in ("train.bfv", "val.bfv", "ood.bfv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_gen_data_invalid_spec_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"data": {"per_class": 0}}))
    code = run(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


def write_data_config(tmp_path, **data):
    cfg = json.loads(json.dumps(TINY))
    cfg["data"].update(data, formats=["csv", "bfv"])
    path = tmp_path / "data.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gen_data_refuses_features_that_overflow(tmp_path, capsys):
    # 1e308 * a normal draw overflows to inf, which train would reject
    cfg = write_data_config(tmp_path, within_std=1e308)
    assert run(["gen-data", "--config", cfg, "--out", str(tmp_path / "ws")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: data.center_scale=1.2 and data.within_std=1e+308")
    assert "up to inf, beyond float32's range" in err
    assert not (tmp_path / "ws").exists()


def test_gen_data_refuses_features_beyond_float32(tmp_path, capsys):
    # finite in float64, but inf once save_bfv casts it to float32
    cfg = write_data_config(tmp_path, center_scale=1e39)
    assert run(["gen-data", "--config", cfg, "--out", str(tmp_path / "ws")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: data.center_scale=1e+39 and data.within_std=1.0")
    assert "beyond float32's range" in err
    assert not (tmp_path / "ws").exists()


def test_train_writes_checkpoint_and_report(tiny_config, tmp_path, capsys):
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    code = run(
        ["train", "--config", tiny_config, "--out", str(out), "--variant", "stochastic-vi"]
    )
    assert code == EXIT_OK
    assert (out / "checkpoint_stochastic-vi.json").exists()
    assert (out / "train_report_stochastic-vi.csv").exists()
    assert "final train accuracy" in capsys.readouterr().out


def test_train_zero_epochs_checkpoint_equals_init(tmp_path):
    cfg = json.loads(json.dumps(TINY))
    cfg["train"]["epochs"] = 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "ws"
    run(["gen-data", "--config", str(cfg_path), "--out", str(out)])
    run(["train", "--config", str(cfg_path), "--out", str(out), "--variant", "deterministic"])
    saved = json.loads((out / "checkpoint_deterministic.json").read_text())
    head_cfg = head_config_from(load_config(str(cfg_path)), "deterministic", 6, 3)
    fresh = head_to_dict(build_head(head_cfg, init_seed=5))
    assert saved == fresh


def test_train_missing_data_exits_3(tiny_config, tmp_path):
    code = run(
        ["train", "--config", tiny_config, "--out", str(tmp_path / "nowhere")]
    )
    assert code == EXIT_IO


def test_train_on_csv_with_mismatched_is_ood_exits_3(tiny_config, tmp_path, capsys):
    cfg = json.loads(open(tiny_config).read())
    cfg["data"]["formats"] = ["csv"]
    cfg_path = tmp_path / "csv.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "ws"
    assert run(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    lines = (out / "train.csv").read_text().splitlines()
    lines[1] = lines[1][: -len(",0")] + ",1"  # an in-distribution label marked OOD
    (out / "train.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run(["train", "--config", str(cfg_path), "--out", str(out), "--variant", "deterministic"])
    assert code == EXIT_IO
    assert "line 2" in capsys.readouterr().err


def test_train_unknown_variant_usage_error(tiny_config, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run(["train", "--config", tiny_config, "--out", str(tmp_path), "--variant", "bogus"])
    assert excinfo.value.code == 2


def test_eval_deterministic_forces_t1_with_warning(tiny_config, tmp_path, capsys):
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    run(["train", "--config", tiny_config, "--out", str(out), "--variant", "deterministic"])
    code = run(
        [
            "eval", "--config", tiny_config, "--out", str(out),
            "--variant", "deterministic", "--mc-samples", "40",
        ]
    )
    assert code == EXIT_OK
    assert "using T=1" in capsys.readouterr().out
    report = (out / "eval_deterministic" / "report.csv").read_text()
    assert report.count("\n") == 12 + 40 + 1  # val rows + ood rows + header


def test_eval_summary_has_all_keys_with_ood(tiny_config, tmp_path):
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    run(["train", "--config", tiny_config, "--out", str(out), "--variant", "stochastic-vi"])
    run(["eval", "--config", tiny_config, "--out", str(out), "--variant", "stochastic-vi"])
    summary = json.loads((out / "eval_stochastic-vi" / "summary.json").read_text())
    assert sorted(summary) == sorted(
        [
            "top1", "top5", "roc_auc_micro", "pr_auc_micro",
            "roc_auc_correctness", "pr_auc_correctness",
            "ood_auroc_entropy", "ood_auroc_bald",
        ]
    )
    assert summary["ood_auroc_entropy"] is not None


def test_eval_without_ood_file_exits_0_with_notice(tiny_config, tmp_path, capsys):
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    (out / "ood.bfv").unlink()
    run(["train", "--config", tiny_config, "--out", str(out), "--variant", "stochastic-vi"])
    code = run(["eval", "--config", tiny_config, "--out", str(out), "--variant", "stochastic-vi"])
    assert code == EXIT_OK
    assert "OOD" in capsys.readouterr().out
    summary = json.loads((out / "eval_stochastic-vi" / "summary.json").read_text())
    assert summary["ood_auroc_entropy"] is None


def test_eval_feature_dim_mismatch_exits_2(tiny_config, tmp_path, capsys):
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    run(["train", "--config", tiny_config, "--out", str(out), "--variant", "deterministic"])
    other = tmp_path / "other"
    cfg = json.loads(json.dumps(TINY))
    cfg["data"]["feature_dim"] = 7
    cfg_path = tmp_path / "cfg7.json"
    cfg_path.write_text(json.dumps(cfg))
    run(["gen-data", "--config", str(cfg_path), "--out", str(other)])
    code = run(
        [
            "eval", "--config", tiny_config, "--out", str(other),
            "--variant", "deterministic",
            "--checkpoint", str(out / "checkpoint_deterministic.json"),
        ]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "F=6" in err and "F=7" in err


def _widened(path):
    """Rewrite the BFV at path with a seventh feature column."""
    rows = load_features(path, "bfv")
    save_features(LabeledFeatureSet(np.hstack([rows.features, np.ones((rows.n, 1))]),
                                    rows.labels), path, "bfv")


def _relabelled(path, label):
    """Rewrite the BFV at path with its first row labelled `label`."""
    rows = load_features(path, "bfv")
    rows.labels[0] = label
    save_features(rows, path, "bfv")


# (how a workspace breaks, the file its error names, the exit code)
BROKEN_WORKSPACES = {
    "ood-wider-than-val": (lambda ws: _widened(ws / "ood.bfv"), "ood.bfv", EXIT_CONFIG),
    "wider-than-the-head": (lambda ws: [_widened(ws / f"{n}.bfv") for n in ("val", "ood")],
                            "val.bfv", EXIT_CONFIG),
    "val-class-beyond-the-head": (lambda ws: _relabelled(ws / "val.bfv", 3), "val.bfv",
                                  EXIT_CONFIG),
    "ood-row-labelled-0": (lambda ws: _relabelled(ws / "ood.bfv", 0), "ood.bfv", EXIT_IO),
}


@pytest.mark.parametrize("command", ["eval", "compare"])
@pytest.mark.parametrize("case", BROKEN_WORKSPACES)
def test_a_broken_workspace_exits_naming_the_file_before_any_write(
    tiny_config, tmp_path, capsys, command, case
):
    # the evaluation files are checked against the head, and against each
    # other, once: compare once trained and wrote a head before it found a
    # wider file, and an ood file wider than val ended in a traceback
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    if command == "eval":
        run(["train", "--config", tiny_config, "--out", str(out), "--variant", "deterministic"])
    breaks, name, code = BROKEN_WORKSPACES[case]
    breaks(out)
    before = snapshot(out)
    capsys.readouterr()
    variant = ["--variant", "deterministic"] if command == "eval" else []
    assert run([command, "--config", tiny_config, "--out", str(out), *variant]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / name}: ") and err.count("\n") == 1, err
    assert snapshot(out) == before


@pytest.mark.parametrize("command", ["train", "compare"])
def test_a_training_file_too_wide_for_a_layer_exits_2_naming_the_file(tmp_path, capsys, command):
    # 65,537 x 256 weights are just over 4096 x 4096; a file 3 * 10**6 wide
    # once ended in a raw allocation error
    out = tmp_path / "ws"
    out.mkdir()
    path = out / "train.bfv"
    save_features(LabeledFeatureSet(np.zeros((2, 65537)), [0, 1]), path, "bfv")
    before = snapshot(out)
    variant = ["--variant", "deterministic"] if command == "train" else []
    assert run([command, "--out", str(out), *variant]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {path}: input_dim: layer 0 holds 65537 x 256 weights,"
        " more than 16777216 (4096 x 4096)\n")
    assert snapshot(out) == before


def test_eval_of_a_checkpoint_of_another_variant_exits_2_before_writing(tiny_config, tmp_path,
                                                                        capsys):
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    run(["train", "--config", tiny_config, "--out", str(out), "--variant", "deterministic"])
    before = sorted(p.name for p in out.iterdir())
    code = run(["eval", "--config", tiny_config, "--out", str(out),
                "--checkpoint", str(out / "checkpoint_deterministic.json")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "deterministic" in err and "stochastic-vi" in err
    assert sorted(p.name for p in out.iterdir()) == before


def test_compare_classes_must_match_an_existing_training_set(tiny_config, tmp_path, capsys):
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    before = sorted(p.name for p in out.iterdir())
    code = run(["compare", "--config", tiny_config, "--out", str(out), "--classes", "5"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--classes 5" in err and "3 classes" in err
    assert sorted(p.name for p in out.iterdir()) == before
    assert run(["compare", "--config", tiny_config, "--out", str(out), "--classes", "3"]) == EXIT_OK


@pytest.mark.parametrize("how", ["--classes", "config"])
def test_compare_rejects_one_class_before_it_generates_data(tiny_config, tmp_path, capsys, how):
    out = tmp_path / "ws"
    out.mkdir()
    if how == "--classes":
        argv = ["--config", tiny_config, "--classes", "1"]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "data": {**TINY["data"], "k_in": 1}}))
        argv = ["--config", str(path)]
    assert run(["compare", *argv, "--out", str(out)]) == EXIT_CONFIG
    assert "need at least 2 classes, got 1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("how", ["--classes", "config"])
def test_gen_data_rejects_one_class_before_it_writes_data(tiny_config, tmp_path, capsys, how):
    # such train, val and ood files once came out, and no head trained on them
    out = tmp_path / "ws"
    if how == "--classes":
        argv = ["--config", tiny_config, "--classes", "1"]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "data": {**TINY["data"], "k_in": 1}}))
        argv = ["--config", str(path)]
    assert run(["gen-data", *argv, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: data.k_in: need at least 2 classes, got 1\n"
    assert not out.exists()


def test_gen_data_rejects_a_negative_ood_displacement_before_it_writes_data(
    tmp_path, capsys
):
    # -5 was once accepted and placed the OOD centers at no minimum distance
    out = tmp_path / "ws"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "data": {**TINY["data"], "ood_displacement": -5}}))
    assert run(["gen-data", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: data.ood_displacement must be >= 0, got -5.0\n"
    assert not out.exists()


def test_training_on_a_bfv_without_features_exits_3_naming_the_file(tmp_path, capsys):
    # such a file once loaded as a 2 x 0 set, and train exited 2 with a
    # config error about layer dims that named no file
    out = tmp_path / "ws"
    out.mkdir()
    bfv = out / "train.bfv"
    bfv.write_bytes(b"BFV1" + struct.pack("<II", 2, 0) + struct.pack("<2i", 0, 1))
    assert run(["train", "--out", str(out), "--variant", "deterministic"]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"error: {bfv}: byte 8: F = 0")


@pytest.mark.parametrize("which", ["config", "checkpoint"])
@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
def test_config_and_checkpoint_in_another_encoding_exit_2_naming_the_file(
    tiny_config, tmp_path, capsys, which, encoding
):
    # one reader for both: a checkpoint with a byte-order mark, or in
    # UTF-16, once loaded, where a config file of the same bytes exited 2
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    run(["train", "--config", tiny_config, "--out", str(out), "--variant", "deterministic"])
    if which == "config":
        path = tmp_path / "other.json"
        argv = ["train", "--config", str(path), "--out", str(out), "--variant", "deterministic"]
        text = json.dumps(TINY)
    else:
        path = out / "checkpoint_deterministic.json"
        argv = ["eval", "--config", tiny_config, "--out", str(out), "--variant", "deterministic",
                "--checkpoint", str(path)]
        text = path.read_text()
    path.write_bytes(text.encode(encoding))
    capsys.readouterr()
    assert run(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (out / "eval_deterministic").exists()


def test_a_mistyped_head_field_fails_alike_in_config_and_checkpoint(tmp_path):
    # both readers apply one type rule, so only the location differs
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**TINY, "head": {**TINY["head"], "dropout_rate": True}}))
    with pytest.raises(ConfigError) as from_config:
        head_config_from(load_config(str(cfg_path)), "deterministic", 6, 3)
    doc = head_to_dict(build_head(HeadConfig(6, (4, 4), 3, "deterministic"), init_seed=1))
    doc["config"]["dropout_rate"] = True
    path = tmp_path / "head.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as from_checkpoint:
        load_head(path)
    rule = "dropout_rate must be a finite number, got True"
    assert str(from_config.value) == f"head.{rule}"
    assert str(from_checkpoint.value) == f"{path}: config.{rule}"


def test_compare_emits_three_row_table(tiny_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run(["compare", "--config", tiny_config, "--out", str(out)])
    assert code == EXIT_OK
    table = (out / "compare.md").read_text()
    body_rows = [l for l in table.strip().split("\n")[2:]]
    assert len(body_rows) == 3
    assert body_rows[0].startswith("| deterministic |")
    assert body_rows[1].startswith("| mc-dropout |")
    assert body_rows[2].startswith("| stochastic-vi |")
    assert table.split("\n")[0] == "| model | " + " | ".join(SUMMARY_KEYS) + " |"
    assert (out / "compare.csv").read_text().split("\n")[0] == ",".join(("model", *SUMMARY_KEYS))


def test_compare_bounds_the_mc_result_before_training(tmp_path, capsys):
    # 1,536 evaluation rows (256 validation, 1,280 OOD) * 10**4 passes * 8
    # classes are more than 10**8 probabilities; the deterministic head's
    # single pass would fit, so the bound must not wait for the MC heads
    path = tmp_path / "config.json"
    data = {**TINY["data"], "k_in": 8, "k_out": 8, "per_class": 160}
    path.write_text(json.dumps({**TINY, "data": data}))
    out = tmp_path / "ws"
    code = run(["compare", "--config", str(path), "--out", str(out), "--mc-samples", "10000"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: inference.mc_samples: 10000 passes over 1536 rows"), err
    assert err.count("\n") == 1
    written = [p.name for p in out.iterdir()]
    assert [n for n in written if n.startswith(("checkpoint_", "train_report_", "eval_"))] == []


def test_compare_loads_each_dataset_once(tiny_config, tmp_path, monkeypatch):
    data_mod = importlib.import_module("bvihead.data")
    real_load = data_mod.load_features
    loads = collections.Counter()

    def counting(path, fmt):
        loads[Path(path).name] += 1
        return real_load(path, fmt)

    monkeypatch.setattr(data_mod, "load_features", counting)
    assert run(["compare", "--config", tiny_config, "--out", str(tmp_path / "ws")]) == EXIT_OK
    assert loads == {"train.bfv": 1, "val.bfv": 1, "ood.bfv": 1}


def test_compare_rerun_identical_outputs(tiny_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(["compare", "--config", tiny_config, "--out", str(out_a)])
    run(["compare", "--config", tiny_config, "--out", str(out_b)])
    for rel in (
        "compare.csv",
        "train.bfv",
        "eval_stochastic-vi/summary.json",
        "eval_mc-dropout/summary.json",
        "eval_deterministic/summary.json",
    ):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_hist_subcommand(tiny_config, tmp_path):
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    run(["train", "--config", tiny_config, "--out", str(out), "--variant", "stochastic-vi"])
    run(["eval", "--config", tiny_config, "--out", str(out), "--variant", "stochastic-vi"])
    hist_path = tmp_path / "h.csv"
    code = run(
        [
            "hist", "--input", str(out / "eval_stochastic-vi" / "report.csv"),
            "--column", "confidence", "--bins", "10", "--out", str(hist_path),
        ]
    )
    assert code == EXIT_OK
    lines = hist_path.read_text().strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,density"
    assert len(lines) == 11
    densities = np.array([float(l.split(",")[2]) for l in lines[1:]])
    widths = np.array(
        [float(l.split(",")[1]) - float(l.split(",")[0]) for l in lines[1:]]
    )
    assert abs((densities * widths).sum() - 1.0) < 1e-9


def test_hist_unknown_column_exits_2(tiny_config, tmp_path):
    csv = tmp_path / "x.csv"
    csv.write_text("a,b\n1,2\n")
    code = run(["hist", "--input", str(csv), "--column", "zzz", "--out", str(tmp_path / "h.csv")])
    assert code == EXIT_CONFIG


BAD_RANGE = "need finite lo < hi, wide enough for 50 bins, got "


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lo=-inf"], BAD_RANGE + "[-inf, 1.0]"),
        (["--hi", "inf"], BAD_RANGE + "[0.0, inf]"),
        (["--lo", "nan"], BAD_RANGE + "[nan, 1.0]"),
        (["--lo", "1", "--hi", "1"], BAD_RANGE + "[1.0, 1.0]"),
        (["--lo=-1e308", "--hi", "1e308"], BAD_RANGE + "[-1e+308, 1e+308]"),
        (["--lo", "1", "--hi", "1.0000000000000004"], BAD_RANGE + "[1.0, 1.0000000000000004]"),
        (["--hi", "1e-320"], BAD_RANGE + "[0.0, 1e-320]"),
        (["--bins", "100000000000"], "bins must be in [1, 1000000], got 100000000000"),
        (["--bins", "0"], "bins must be in [1, 1000000], got 0"),
    ],
)
def test_hist_bad_range_or_bins_exits_2(tmp_path, capsys, flags, message):
    csv = tmp_path / "x.csv"
    csv.write_text("a,b\n1,0.5\n2,0.25\n")
    out = tmp_path / "h.csv"
    code = run(["hist", "--input", str(csv), "--column", "b", "--out", str(out), *flags])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_eval_bins_beyond_the_maximum_exits_2(tiny_config, tmp_path, capsys):
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    run(["train", "--config", tiny_config, "--out", str(out), "--variant", "deterministic"])
    cfg = json.loads(json.dumps(TINY))
    cfg["eval"] = {"bins": 10**6 + 1}
    cfg_path = tmp_path / "bins.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = run(["eval", "--config", str(cfg_path), "--out", str(out), "--variant", "deterministic"])
    assert code == EXIT_CONFIG
    assert "bins must be in [1, 1000000], got 1000001" in capsys.readouterr().err


def test_gen_data_classes_preset(tiny_config, tmp_path, capsys):
    out = tmp_path / "ws"
    code = run(["gen-data", "--config", tiny_config, "--out", str(out), "--classes", "5"])
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "K=5" in captured
    assert "ood 100" in captured  # 5 classes * 20 per class


def test_eval_malformed_checkpoint_exits_2(tiny_config, tmp_path, capsys):
    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    ckpt = tmp_path / "broken.json"
    argv = ["eval", "--config", tiny_config, "--out", str(out), "--checkpoint", str(ckpt)]
    head_cfg = head_config_from(load_config(tiny_config), "deterministic", 6, 3)
    huge = head_to_dict(build_head(head_cfg, init_seed=5))
    huge["config"].update(input_dim=10**7, hidden_dims=[10**7, 10**7])
    for text, key in (
        ("[1, 2", "not valid JSON"),
        ('{"format_version": 1}', "format_version 1"),
        ('{"format_version": 2}', "'config'"),
        (json.dumps(huge), "config.hidden_dims: each must be at most 4096"),
    ):
        ckpt.write_text(text)
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "broken.json" in err and key in err


def test_hist_non_numeric_cell_exits_3_with_position(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    csv.write_text("a,b\n1,0.5\n2,oops\n")
    code = run(["hist", "--input", str(csv), "--column", "b", "--out", str(tmp_path / "h.csv")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert "line 3" in err and "column 2" in err and "'oops'" in err
    csv.write_text("a,b\n1,0.5\n2\n")
    code = run(["hist", "--input", str(csv), "--column", "b", "--out", str(tmp_path / "h.csv")])
    assert code == EXIT_IO
    assert "line 3" in capsys.readouterr().err
    # a quoted cell spanning two lines: the bad row starts on line 4
    csv.write_text('a,b\n"1\n",0.5\n2,oops\n')
    code = run(["hist", "--input", str(csv), "--column", "b", "--out", str(tmp_path / "h.csv")])
    assert code == EXIT_IO
    assert "line 4, column 2 ('b'): 'oops' is not a number" in capsys.readouterr().err
    # float() alone would bin 0_5 as 5.0 and 1_0 as 10.0
    csv.write_text("a,b\n1,0_5\n2,1_0\n")
    code = run(["hist", "--input", str(csv), "--column", "b", "--out", str(tmp_path / "h.csv")])
    assert code == EXIT_IO
    assert "line 2, column 2 ('b'): '0_5' is not a number" in capsys.readouterr().err
    csv.write_bytes(b"a,b\n1,0.5\n2,0.\xff5\n")
    code = run(["hist", "--input", str(csv), "--column", "b", "--out", str(tmp_path / "h.csv")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv}: line 3: not UTF-8 text") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, where", [("", ": empty file"), ("a,b\n0.1,0.2,0.3\n", ": line 2: expected 2 fields, got 3")]
)
def test_hist_of_an_empty_file_or_a_too_wide_row_exits_3(tmp_path, capsys, text, where):
    # an empty file once exited 2 naming column 'b', and a too-wide row was read
    csv = tmp_path / "x.csv"
    csv.write_text(text)
    out = tmp_path / "h.csv"
    assert run(["hist", "--input", str(csv), "--column", "b", "--out", str(out)]) == EXIT_IO
    assert capsys.readouterr().err == f"error: {csv}{where}\n"
    assert not out.exists()


def test_train_on_csv_with_underscore_digits_exits_3(tiny_config, tmp_path, capsys):
    cfg = json.loads(open(tiny_config).read())
    cfg["data"]["formats"] = ["csv"]
    cfg_path = tmp_path / "csv.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "ws"
    assert run(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    lines = (out / "train.csv").read_text().splitlines()
    lines[1] = "1_5" + lines[1][lines[1].index(",") :]
    (out / "train.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run(["train", "--config", str(cfg_path), "--out", str(out), "--variant", "deterministic"])
    assert code == EXIT_IO
    assert "line 2, column 1 ('f0')" in capsys.readouterr().err


@pytest.mark.parametrize("formats", [["bfv", "xyz"], []])
@pytest.mark.parametrize("command", ["gen-data", "compare"])
def test_bad_formats_exit_2_before_any_data_file(tmp_path, capsys, command, formats):
    # an unknown format once failed after the first one's files, and none
    # at all wrote nothing and exited 0
    cfg = json.loads(json.dumps(TINY))
    cfg["data"]["formats"] = formats
    path = tmp_path / "formats.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "ws"
    assert run([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: data.formats must list one or more of ('bfv', 'csv'), got {formats!r}\n"
    assert not out.exists()


def overflow_config(tmp_path, batch_size):
    """3 classes at F=4 under SGD at learning rate 1.7e308, whose first
    step takes some parameter of the deterministic head to -inf."""
    cfg = {
        "data": {"k_in": 3, "k_out": 2, "feature_dim": 4, "per_class": 20, "center_seed": 21,
                 "noise_seed": 22},
        "head": {"hidden_dims": [16, 16]},
        "train": {"epochs": 1, "batch_size": batch_size, "optimizer": "sgd", "momentum": 0.0,
                  "learning_rate": 1.7e308},
        "inference": {"mc_samples": 5},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "ws"
    assert run(["gen-data", "--config", str(path), "--out", str(out)]) == EXIT_OK
    return str(path), out


@pytest.mark.parametrize("command", ["train", "compare"])
def test_an_overflowed_theta_exits_4_before_its_checkpoint_is_written(tmp_path, capsys, command):
    # one batch of all 48 rows: the epoch's only step overflows theta after
    # a finite loss, and no later forward sees it
    path, out = overflow_config(tmp_path, batch_size=64)
    capsys.readouterr()
    variant = ["--variant", "deterministic"] if command == "train" else []
    assert run([command, "--config", path, "--out", str(out), *variant]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: checkpoint\.theta\[\d+\] is not finite: -?inf\n", err), err
    assert sorted(p.name for p in out.iterdir()) == ["ood.bfv", "train.bfv", "val.bfv"]


def test_a_diverging_train_prints_one_error_line_and_no_warning(tmp_path, capsys):
    # the second of three steps overflows layer 0's output
    path, out = overflow_config(tmp_path, batch_size=16)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["train", "--config", path, "--out", str(out), "--variant", "deterministic"])
    assert code == EXIT_NUMERIC
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss at epoch 0, batch 1: ") and err.count("\n") == 1


@pytest.mark.parametrize("per_class", [1, 2])
@pytest.mark.parametrize("command", ["gen-data", "compare"])
def test_a_per_class_with_no_validation_row_exits_2_before_any_data_file(
    tmp_path, capsys, command, per_class
):
    # the 80/20 split of 1 or 2 rows leaves no validation row, and
    # generation once crashed on the empty set with a raw traceback
    cfg = write_data_config(tmp_path, per_class=per_class)
    out = tmp_path / "ws"
    assert run([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: data.per_class must be >= 3, so that the 80/20 split leaves a validation"
        f" row, got {per_class}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("fmt, where", [("bfv", "byte 64: row 1"), ("csv", "line 3, column 7")])
def test_eval_of_a_label_below_minus_1_exits_3_naming_its_position(
    tiny_config, tmp_path, capsys, fmt, where
):
    # label -7 once counted as an in-distribution class, which the micro
    # one-hot wrapped round to class 1 (K=3 here)
    from bvihead.data import LabeledFeatureSet, save_features

    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    run(["train", "--config", tiny_config, "--out", str(out), "--variant", "deterministic"])
    (out / "val.bfv").unlink()
    val = LabeledFeatureSet(np.ones((2, 6)), [0, -7])
    save_features(val, out / f"val.{fmt}", fmt)
    capsys.readouterr()
    code = run(["eval", "--config", tiny_config, "--out", str(out), "--variant", "deterministic"])
    assert code == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: {out / f'val.{fmt}'}: {where}"
        + ("" if fmt == "bfv" else " ('label')")
        + ": label -7 is negative, and only OOD rows carry one, -1\n"
    )
    assert not (out / "eval_deterministic").exists()


@pytest.mark.parametrize("fmt", ["bfv", "csv"])
def test_eval_of_an_ood_file_with_labelled_rows_exits_3_before_any_pass(
    tiny_config, tmp_path, capsys, fmt
):
    # such rows once joined the validation rows: eval exited 0 with the
    # notice "no OOD examples"
    from bvihead.data import LabeledFeatureSet, save_features

    out = tmp_path / "ws"
    run(["gen-data", "--config", tiny_config, "--out", str(out)])
    run(["train", "--config", tiny_config, "--out", str(out), "--variant", "deterministic"])
    (out / "ood.bfv").unlink()
    save_features(LabeledFeatureSet(np.ones((4, 6)), [2] * 4), out / f"ood.{fmt}", fmt)
    capsys.readouterr()
    code = run(["eval", "--config", tiny_config, "--out", str(out), "--variant", "deterministic"])
    assert code == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: {out / f'ood.{fmt}'}: row 0: label 2; an OOD file holds only rows labelled -1\n"
    )
    assert not (out / "eval_deterministic").exists()


def test_a_failed_write_names_the_target_not_a_temp_file(tiny_config, tmp_path, capsys):
    # the temp file's random name once stood in the message
    report = tmp_path / "r.csv"
    report.write_text("confidence\n0.5\n")
    target = tmp_path / "missing" / "h.csv"
    errors = []
    for _ in range(2):
        assert run(["hist", "--input", str(report), "--column", "confidence",
                    "--out", str(target)]) == EXIT_IO
        errors.append(capsys.readouterr().err)
    assert errors[0] == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert errors[1] == errors[0]
    assert ".tmp" not in errors[0]
