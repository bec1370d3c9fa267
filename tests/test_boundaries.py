"""Every input boundary either loads or fails with a typed error.

Hypothesis feeds generated inputs to the five readers: the config file, a
CSV or BFV feature file, a checkpoint, and the report CSV that `hist`
reads. Each input must load, or raise a BviError that `main` reports with
exit code 2 or 3; any other exception is a raw traceback and fails the
test. The `@example`s include every input found to end in a raw
traceback before its reader was fixed.

Generated integers stay small wherever they size an allocation, so no
example builds more than a few kilobytes.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvihead.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    exit_code,
    main,
)
from bvihead.data import load_features
from bvihead.errors import BviError
from bvihead.model import (
    STOCHASTIC_VI,
    VARIANTS,
    HeadConfig,
    build_head,
    head_to_dict,
    load_head,
    save_head,
)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)

SMALL_INTS = st.integers(-3, 8)
SCALARS = st.none() | st.booleans() | SMALL_INTS | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=5,
)
NOT_UTF8 = b"\xff\xfe\x80"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundaries")


def assert_loads_or_fails_cleanly(read):
    try:
        read()
    except BviError as exc:
        assert exit_code(exc) in (EXIT_CONFIG, EXIT_IO), repr(exc)


def run_cli(argv):
    """(exit code, stderr) of one command; a raw exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err, allowed):
    assert code in allowed, err
    if code != EXIT_OK:
        assert err.startswith("error: ") and err.count("error: ") == 1, err
        assert "Traceback" not in err


# ---- config file -------------------------------------------------------------

TINY = {
    "data": {"k_in": 3, "k_out": 2, "feature_dim": 4, "per_class": 10, "formats": ["bfv"]},
    "head": {"hidden_dims": [4, 4]},
    "train": {"epochs": 2, "batch_size": 8},
    "inference": {"mc_samples": 3},
}
KEYS = [(section, key) for section in DEFAULT_CONFIG for key in DEFAULT_CONFIG[section]]
WORDS = ["adam", "sgd", "flipout", "reparam", "one-over-n", "one-over-batches", "constant", "csv"]
PLAUSIBLE = {
    bool: st.booleans(),
    int: SMALL_INTS,
    float: st.floats(-1.0, 2.0) | st.sampled_from([0.0, 1.0, 1e-300, 1e308]),
    str: st.sampled_from(WORDS),
    list: st.lists(SMALL_INTS, min_size=2, max_size=2) | st.lists(st.sampled_from(WORDS)),
}


@st.composite
def config_edits(draw):
    """(section, key, value) edits of the tiny config, mostly well typed;
    counts stay small."""
    section, key = draw(st.sampled_from(KEYS + [("data", "bogus"), ("nowhere", "x")]))
    default = DEFAULT_CONFIG.get(section, {}).get(key)
    values = PLAUSIBLE.get(type(default), st.nothing()) | JSON_VALUES
    if key.endswith("seed") or isinstance(default, float):
        values = values | st.integers(-(2**70), 2**70) | st.just(10**400)
    return section, key, draw(values)


def negative_seed(section, key):
    return example(edits=[(section, key, -1)], raw=None, variant=STOCHASTIC_VI)


@FUZZ
@given(
    edits=st.lists(config_edits(), max_size=3),
    raw=st.sampled_from([None] * 4) | st.binary(max_size=64),
    variant=st.sampled_from(VARIANTS),
)
@example(edits=[], raw=b'{"data": ' + NOT_UTF8 + b"}", variant=STOCHASTIC_VI)
@example(edits=[], raw=b"[" * 100_000, variant=STOCHASTIC_VI)
@example(edits=[], raw=b'{"train": {"epochs": ' + b"1" * 5000 + b"}}", variant=STOCHASTIC_VI)
@example(edits=[("data", "center_scale", -1.0)], raw=None, variant=STOCHASTIC_VI)
@example(edits=[("data", "center_scale", 1e308)], raw=None, variant=STOCHASTIC_VI)
@example(edits=[("data", "formats", None)], raw=None, variant=STOCHASTIC_VI)
@example(edits=[("data", "per_class", 10**12)], raw=None, variant=STOCHASTIC_VI)
@example(edits=[("head", "hidden_dims", [4, 10**12])], raw=None, variant=STOCHASTIC_VI)
@example(edits=[("inference", "mc_samples", 10**12)], raw=None, variant=STOCHASTIC_VI)
@negative_seed("data", "center_seed")
@negative_seed("data", "noise_seed")
@negative_seed("head", "init_seed")
@negative_seed("train", "seed")
@negative_seed("inference", "seed")
def test_config_file_runs_or_fails_cleanly(workdir, edits, raw, variant):
    cfg = json.loads(json.dumps(TINY))
    for section, key, value in edits:
        cfg.setdefault(section, {})[key] = value
    path = workdir / "config.json"
    path.write_bytes(json.dumps(cfg).encode() if raw is None else raw)
    common = ["--config", str(path), "--out", str(workdir / "ws")]
    code, err = run_cli(["gen-data", *common])
    assert_clean_exit(code, err, (EXIT_OK, EXIT_CONFIG, EXIT_IO))
    for argv in (["train", "--variant", variant], ["eval", "--variant", variant]):
        if code != EXIT_OK:
            break
        code, err = run_cli([*argv, *common])
        # a valid config may still train to overflow: the documented exit 4
        assert_clean_exit(code, err, (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC))


@pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
def test_negative_seed_flag_exits_2_naming_the_key(workdir, command):
    out = workdir / f"seed-{command}"
    path = workdir / f"seed-{command}.json"
    path.write_text(json.dumps(TINY))
    common = ["--config", str(path), "--out", str(out)]
    assert run_cli(["gen-data", *common])[0] == EXIT_OK
    if command == "eval":
        assert run_cli(["train", *common])[0] == EXIT_OK
    code, err = run_cli([command, *common, "--seed", "-1"])
    assert code == EXIT_CONFIG
    key = {"gen-data": "data.center_seed", "train": "train.seed", "eval": "inference.seed"}
    assert err == f"error: {key[command]} must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "command, argv, key",
    [
        ("gen-data", [], "data.per_class"),
        ("train", [], "head.hidden_dims"),
        ("eval", ["--mc-samples", str(10**12)], "inference.mc_samples"),
        ("compare", ["--mc-samples", str(10**12)], "inference.mc_samples"),
    ],
)
def test_oversized_count_exits_2_naming_the_key(workdir, command, argv, key):
    # each bound is checked before the count sizes an allocation
    out = workdir / f"huge-{command}"
    path = workdir / f"huge-{command}.json"
    cfg = json.loads(json.dumps(TINY))
    common = ["--config", str(path), "--out", str(out)]
    path.write_text(json.dumps(cfg))
    assert run_cli(["gen-data", *common])[0] == EXIT_OK
    if command == "eval":
        assert run_cli(["train", *common])[0] == EXIT_OK
    section, name = key.split(".")
    if command in ("gen-data", "train"):
        cfg[section][name] = [4, 10**12] if name == "hidden_dims" else 10**12
        path.write_text(json.dumps(cfg))
    code, err = run_cli([command, *common, *argv])
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {key}") and err.count("\n") == 1, err


def test_eval_bounds_the_mc_result_before_writing_anything(workdir):
    # 1,536 rows (256 validation, 1,280 OOD) * 10**4 passes * 8 classes
    # are more than 10**8 probabilities
    out = workdir / "huge-result"
    path = workdir / "huge-result.json"
    data = {"k_in": 8, "k_out": 8, "feature_dim": 4, "per_class": 160, "formats": ["bfv"]}
    path.write_text(json.dumps({**TINY, "data": data, "train": {"epochs": 1}}))
    common = ["--config", str(path), "--out", str(out)]
    for command in ("gen-data", "train"):
        assert run_cli([command, *common])[0] == EXIT_OK
    code, err = run_cli(["eval", *common, "--mc-samples", "10000"])
    assert code == EXIT_CONFIG
    assert err.startswith("error: inference.mc_samples: 10000 passes over 1536 rows"), err
    assert err.count("\n") == 1
    assert list(out.glob("eval_*")) == []


@pytest.mark.parametrize(
    "argv, edit, words",
    [
        (["--seed", "-3"], None, "train.seed must be >= 0"),
        ([], ("eval", "bins", 0), "eval.bins must be in [1,"),
        (["--mc-samples", "0"], None, "inference.mc_samples must be in [1,"),
        ([], ("inference", "seed", -1), "inference.seed must be >= 0"),
        ([], ("head", "init_seed", -1), "head.init_seed must be >= 0"),
        ([], ("head", "dropout_rate", 1.5), "head.dropout_rate must be in [0, 1)"),
        ([], ("head", "estimator", "bogus"), "unknown estimator"),
        ([], ("train", "epochs", -1), "epochs must be >= 0"),
        ([], ("train", "optimizer", 3), "train.optimizer must be str"),
        ([], ("data", "per_class", 0), "data.per_class must be positive"),
    ],
)
def test_compare_rejects_a_bad_key_before_writing_anything(workdir, argv, edit, words):
    out = workdir / f"reject-{len(list(workdir.iterdir()))}"
    out.mkdir()
    cfg = json.loads(json.dumps(TINY))
    if edit is not None:
        cfg.setdefault(edit[0], {})[edit[1]] = edit[2]
    path = workdir / f"{out.name}.json"
    path.write_text(json.dumps(cfg))
    code, err = run_cli(["compare", "--config", str(path), "--out", str(out), *argv])
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1 and words in err, err
    assert list(out.iterdir()) == []


# ---- feature files -------------------------------------------------------------

CELLS = (
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.sampled_from(["1_5", "0x10", "nan", "-inf", " 2 ", "", "1e400", "+-1", "١"])
    | st.text(max_size=5)
)
LABELS = SMALL_INTS.map(str) | st.sampled_from(["-1", "2147483648", "-2147483648", "1_0", "x"])


@st.composite
def csv_texts(draw):
    f_dim = draw(st.integers(1, 3))
    lines = [",".join([f"f{i}" for i in range(f_dim)] + ["label", "is_ood"])]
    for _ in range(draw(st.integers(0, 4))):
        cells = draw(st.lists(CELLS, min_size=f_dim, max_size=f_dim))
        label = draw(LABELS)
        flag = draw(st.sampled_from(["1" if label == "-1" else "0", "0", "1", "2"]))
        lines.append(",".join(cells + [label, flag]))
    return "\n".join(lines) + "\n"


@FUZZ
@given(text=csv_texts(), garbage=st.binary(max_size=8), at=st.integers(0, 200))
@example(text="f0,label,is_ood\n1.0,0,0\n", garbage=NOT_UTF8, at=20)
@example(text="f0,label,is_ood\n1.0,99999999999999999999,0\n", garbage=b"", at=0)
@example(text="f0,label,is_ood\n1.0," + "9" * 5000 + ",0\n", garbage=b"", at=0)
@example(text="f0,label,is_ood\n" + "1" * 131_073 + ",0,0\n", garbage=b"", at=0)
def test_csv_features_load_or_fail_cleanly(workdir, text, garbage, at):
    raw = text.encode()
    raw = raw[:at] + garbage + raw[at:]
    path = workdir / "features.csv"
    path.write_bytes(raw)
    assert_loads_or_fails_cleanly(lambda: load_features(path, "csv"))


@FUZZ
@given(
    n=st.integers(0, 4),
    f=st.integers(0, 4),
    payload=st.binary(max_size=120),
    header=st.sampled_from([b"BFV1", b"BFV2", b""]),
)
@example(n=2, f=3, payload=b"\x00" * 32, header=b"BFV1")
@example(n=1, f=1, payload=b"\x00\x00\xc0\x7f\x00\x00\x00\x00", header=b"BFV1")
@example(n=2**31, f=2**31, payload=b"", header=b"BFV1")
def test_bfv_features_load_or_fail_cleanly(workdir, n, f, payload, header):
    path = workdir / "features.bfv"
    path.write_bytes(header + n.to_bytes(4, "little") + f.to_bytes(4, "little") + payload)
    assert_loads_or_fails_cleanly(lambda: load_features(path, "bfv"))


# ---- checkpoint ----------------------------------------------------------------

CHECKPOINTS = {
    v: head_to_dict(build_head(HeadConfig(3, (2, 2), 2, v), init_seed=1)) for v in VARIANTS
}
PATHS = [("format_version",), ("config",), ("theta",)] + [
    ("config", key) for key in CHECKPOINTS[STOCHASTIC_VI]["config"]
]
# the layout of format_version 1: one list of decimal strings per array
V1_CHECKPOINT = {
    "format_version": 1,
    "config": CHECKPOINTS[VARIANTS[0]]["config"],
    "layers": [
        {"kind": "deterministic", "weight": ["0.5", "-0.25"] * 3, "bias": ["0.0", "0.0"]},
        {"kind": "deterministic", "weight": ["0.5", "-0.25"] * 2, "bias": ["0.0", "0.0"]},
        {"kind": "deterministic", "weight": ["0.5", "-0.25"] * 2, "bias": ["0.0", "0.0"]},
    ],
}
DELETE = object()


def apply_edit(doc, path, value):
    """Set doc at path to value (remove it for DELETE) if the path still leads there."""
    *steps, key = path
    target = doc
    try:
        for step in steps:
            target = target[step]
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
    except (KeyError, IndexError, TypeError):
        pass  # an earlier edit replaced part of the path


HUGE_HEADER = [(("config", "input_dim"), 10**7), (("config", "hidden_dims"), [10**7, 10**7])]


@FUZZ
@given(
    variant=st.sampled_from(VARIANTS),
    edits=st.lists(
        st.tuples(st.sampled_from(PATHS), JSON_VALUES | st.sampled_from([10**400, 2**63, DELETE])),
        max_size=3,
    ),
    raw=st.none() | st.binary(max_size=64),
)
@example(variant=STOCHASTIC_VI, edits=HUGE_HEADER, raw=None)
@example(variant=VARIANTS[0], edits=HUGE_HEADER, raw=None)
@example(variant=STOCHASTIC_VI, edits=[(("config", "dropout_rate"), 10**400)], raw=None)
@example(variant=STOCHASTIC_VI, edits=[], raw=b"[" * 100_000)
@example(variant=STOCHASTIC_VI, edits=[], raw=b'{"format_version": ' + b"1" * 5000 + b"}")
@example(variant=VARIANTS[0], edits=[], raw=json.dumps(V1_CHECKPOINT).encode())
@example(variant=STOCHASTIC_VI, edits=[(("config", "init_seed"), 1)], raw=None)
@example(variant=STOCHASTIC_VI, edits=[(("theta",), "=" * 4)], raw=None)
def test_checkpoint_loads_or_fails_cleanly(workdir, variant, edits, raw):
    doc = json.loads(json.dumps(CHECKPOINTS[variant]))
    for path, value in edits:
        apply_edit(doc, path, value)
    ckpt = workdir / "head.json"
    ckpt.write_bytes(json.dumps(doc).encode() if raw is None else raw)
    assert_loads_or_fails_cleanly(lambda: load_head(ckpt))


FINFO = np.finfo(np.float64)


@FUZZ
@given(
    variant=st.sampled_from(VARIANTS),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
)
@example(variant=STOCHASTIC_VI, values=[-0.0, FINFO.smallest_subnormal, FINFO.max, -FINFO.max])
def test_checkpoint_round_trips_every_finite_value_bit_exactly(workdir, variant, values):
    head = build_head(HeadConfig(3, (2, 2), 2, variant), init_seed=1)
    head.parameters()[0].data.reshape(-1)[: len(values)] = values
    ckpt = workdir / "round-trip.json"
    save_head(head, ckpt)
    for a, b in zip(head.parameters(), load_head(ckpt).parameters()):
        assert a.data.tobytes() == b.data.tobytes()


# ---- hist input ----------------------------------------------------------------


# --bins is small, or over the cap, where it must fail before any allocation
HIST_FLAGS = st.lists(
    st.tuples(st.sampled_from(["--lo", "--hi"]), st.floats().map(repr))
    | st.tuples(st.just("--bins"), (st.integers(-2, 100) | st.just(10**6 + 1)).map(str)),
    max_size=2,
).map(lambda pairs: [f"{flag}={value}" for flag, value in pairs])


@FUZZ
@given(
    cells=st.lists(CELLS, max_size=5),
    garbage=st.binary(max_size=8),
    at=st.integers(0, 60),
    flags=HIST_FLAGS,
)
@example(cells=["0_5", "1_0"], garbage=b"", at=0, flags=[])
@example(cells=["nan"], garbage=b"", at=0, flags=[])
@example(cells=["0.5"], garbage=NOT_UTF8, at=12, flags=[])
@example(cells=["0.5"], garbage=b"", at=0, flags=["--lo=-inf"])
@example(cells=["0.5"], garbage=b"", at=0, flags=["--bins=100000000000"])
@example(cells=["0.5"], garbage=b"", at=0, flags=["--lo=-1e308", "--hi=1e308"])
@example(cells=["0.5"], garbage=b"", at=0, flags=["--lo=1.0", "--hi=1.0000000000000004"])
@example(cells=["0.5"], garbage=b"", at=0, flags=["--hi=1e-320"])
def test_hist_input_runs_or_fails_cleanly(workdir, cells, garbage, at, flags):
    raw = ("a,c\n" + "".join(f"{i},{cell}\n" for i, cell in enumerate(cells))).encode()
    raw = raw[:at] + garbage + raw[at:]
    path = workdir / "report.csv"
    path.write_bytes(raw)
    out = workdir / "hist.csv"
    argv = ["hist", "--input", str(path), "--column", "c", "--out", str(out), *flags]
    code, err = run_cli(argv)
    assert_clean_exit(code, err, (EXIT_OK, EXIT_CONFIG, EXIT_IO))
