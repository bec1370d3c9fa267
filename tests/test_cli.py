import collections
import importlib
import json
import re
import typing
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from bvihead.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, load_config, main
from bvihead.data import SynthSpec
from bvihead.errors import ConfigError
from bvihead.evaluate import SUMMARY_KEYS
from bvihead.model import HeadConfig, build_head, head_to_dict
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


def config_with(section, key, value):
    cfg = load_config(None)
    cfg[section][key] = value
    return cfg


@pytest.mark.parametrize("value", ["abc", 2.9, 2.0, True, None])
def test_config_integer_field_must_be_json_integer(value):
    with pytest.raises(ConfigError, match=r"train\.epochs must be int, got"):
        train_config_from(config_with("train", "epochs", value))
    with pytest.raises(ConfigError, match=r"data\.per_class must be int, got"):
        synth_spec_from(config_with("data", "per_class", value))


@pytest.mark.parametrize("value", ["0.1", True, None, [0.1], float("nan"), float("inf"), 10**400])
def test_config_float_field_must_be_finite_number(value):
    with pytest.raises(ConfigError, match=r"train\.learning_rate must be"):
        train_config_from(config_with("train", "learning_rate", value))
    with pytest.raises(ConfigError, match=r"data\.within_std must be"):
        synth_spec_from(config_with("data", "within_std", value))


def test_config_float_field_accepts_integer():
    assert train_config_from(config_with("train", "learning_rate", 1)).learning_rate == 1.0
    assert synth_spec_from(config_with("data", "within_std", 2)).within_std == 2.0


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_config_shuffle_must_be_bool(value):
    with pytest.raises(ConfigError, match=r"train\.shuffle must be true or false"):
        train_config_from(config_with("train", "shuffle", value))
    assert train_config_from(config_with("train", "shuffle", False)).shuffle is False


@pytest.mark.parametrize("value", [None, [16], [16, 16, 16], [16, 16.0], [16, True], "16,16"])
def test_config_hidden_dims_must_be_two_integers(value):
    with pytest.raises(ConfigError, match=r"head\.hidden_dims must be a list of two integers"):
        head_config_from(config_with("head", "hidden_dims", value), "deterministic", 6, 3)


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


def test_config_file_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "latin1.json"
    cfg_path.write_bytes('{"data": {"formats": ["bfv"]}, "\u00e9": 1}'.encode("latin-1"))
    assert run(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: invalid JSON:") and "utf-8" in err


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
        (json.dumps(huge), "checkpoint.theta holds"),
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
