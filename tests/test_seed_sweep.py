import importlib.util
import json
from pathlib import Path

import pytest

from bvihead.cli import comparison_tables
from bvihead.evaluate import SUMMARY_KEYS
from bvihead.model import VARIANTS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("seed_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(tool, seed, vi_pr, det_pr):
    return tool.seed_row(seed, {"pr_auc_correctness": vi_pr, "top1": 0.9, "ood_auroc_bald": 0.8},
                         {"pr_auc_correctness": det_pr})


def test_sign_test_p_is_two_sided_and_one_without_decided_seeds():
    tool = load_tool()
    assert tool.sign_test_p(8, 2) == 0.109375
    assert tool.sign_test_p(10, 0) == 0.001953125
    assert tool.sign_test_p(0, 0) == 1.0


def test_a_tie_wins_8d_but_is_left_out_of_the_sign_test():
    tool = load_tool()
    summary = tool.summarize([row(tool, 1, 0.5, 0.5), row(tool, 2, 0.6, 0.5)])
    assert summary["vi_wins_8d"] == 2
    assert summary["sign_test_p"] == tool.sign_test_p(1, 0) == 1.0
    assert summary["seeds_left_out"] == 0


def test_an_undefined_metric_is_null_and_its_seed_left_out(tmp_path):
    # a deterministic head with no wrong validation prediction has no
    # correctness curve: compare.csv holds an empty cell, which once
    # aborted the whole sweep
    tool = load_tool()
    rows = {v: dict.fromkeys(SUMMARY_KEYS, 0.75) for v in VARIANTS}
    rows["deterministic"]["pr_auc_correctness"] = None
    path = tmp_path / "compare.csv"
    path.write_text(comparison_tables(rows)[1])
    parsed = tool.compare_rows(path)
    assert parsed["deterministic"]["pr_auc_correctness"] is None
    assert parsed["stochastic-vi"]["pr_auc_correctness"] == 0.75
    undefined = tool.seed_row(7, parsed["stochastic-vi"], parsed["deterministic"])
    assert undefined["vi_minus_det"] is None
    summary = tool.summarize([undefined, row(tool, 8, 0.4, 0.5)])
    assert summary.pop("mean_vi_minus_det") == pytest.approx(-0.1)
    assert summary == {"seeds": 2, "seeds_left_out": 1, "vi_wins_8d": 0, "sign_test_p": 1.0,
                       "mean_vi_top1": 0.9, "mean_vi_ood_auroc_bald": 0.8}
    assert json.loads(json.dumps(undefined))["vi_minus_det"] is None
    assert tool.summarize([undefined])["mean_vi_minus_det"] is None


def test_paired_changes_skip_an_undefined_value():
    tool = load_tool()
    first = {kind: {"rows": [{"vi_top1": 0.5, "vi_ood_auroc_bald": None}]}
             for kind in ("train_seeds", "inference_seeds")}
    other = {kind: {"rows": [{"vi_top1": 0.75, "vi_ood_auroc_bald": 0.5}]}
             for kind in ("train_seeds", "inference_seeds")}
    change = tool.paired(first, other)["train_seeds"]
    assert change["vi_top1"] == {"per_seed": [0.25], "mean": 0.25, "higher": 1, "lower": 0}
    assert change["vi_ood_auroc_bald"] == {"per_seed": [None], "mean": None, "higher": 0,
                                           "lower": 0}
