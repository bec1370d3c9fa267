import dataclasses

import numpy as np
import pytest

from bvihead.data import (
    LabeledFeatureSet,
    SynthSpec,
    batches,
    generate,
    load_features,
    save_features,
)
from bvihead.errors import ConfigError, DataError, GenerationError, ParseError

from helpers import min_center_gap


def tiny_spec(**overrides):
    base = dict(
        k_in=3,
        k_out=2,
        feature_dim=6,
        per_class=20,
        center_scale=5.0,
        within_std=1.0,
        center_seed=1,
        noise_seed=2,
        ood_displacement=8.0,
    )
    base.update(overrides)
    return SynthSpec(**base)


def test_generate_shapes_and_split():
    train, val, ood = generate(tiny_spec())
    assert train.n == 3 * 16
    assert val.n == 3 * 4
    assert ood.n == 2 * 20
    assert train.feature_dim == 6
    assert set(np.unique(train.labels)) == {0, 1, 2}
    assert (ood.labels == -1).all()
    assert ood.is_ood.all()
    assert not train.is_ood.any()
    assert not val.is_ood.any()


def test_generate_is_deterministic():
    a = generate(tiny_spec())
    b = generate(tiny_spec())
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.features, y.features)
        np.testing.assert_array_equal(x.labels, y.labels)


def test_generate_zero_noise_limit_recovers_centers():
    train, val, _ = generate(tiny_spec(within_std=1e-12))
    for k in range(3):
        rows = train.features[train.labels == k]
        assert np.allclose(rows, rows[0], atol=1e-9)


def test_ood_centers_respect_displacement():
    spec = tiny_spec()
    assert min_center_gap(spec) >= spec.ood_displacement - 1e-9


def test_default_spec_displacement_holds():
    spec = SynthSpec()
    assert min_center_gap(spec) >= spec.ood_displacement - 1e-9


def test_infeasible_displacement_raises():
    # 1-D with in-centers pinned to both box edges: any candidate displaced
    # to distance 9 from its nearest center lands within 9 of the other.
    from bvihead.data import _ood_centers

    spec = tiny_spec(feature_dim=1, k_in=2, k_out=1, ood_displacement=9.0)
    pinned = np.array([[-5.0], [5.0]])
    with pytest.raises(GenerationError, match="ood_displacement"):
        _ood_centers(np.random.default_rng(0), spec, pinned)


def test_stratified_split_counts_per_class():
    train, val, _ = generate(tiny_spec())
    for k in range(3):
        assert (train.labels == k).sum() == 16
        assert (val.labels == k).sum() == 4


# ---- batching ---------------------------------------------------------------


def test_single_batch_when_size_exceeds_n():
    train, _, _ = generate(tiny_spec())
    out = batches(train, batch_size=10_000, seed=0, shuffle=True)
    assert len(out) == 1
    assert out[0].n == train.n


def test_no_shuffle_preserves_order():
    train, _, _ = generate(tiny_spec())
    out = batches(train, batch_size=7, seed=0, shuffle=False)
    rebuilt = np.concatenate([b.features for b in out])
    np.testing.assert_array_equal(rebuilt, train.features)


def test_batches_partition_label_multiset():
    train, _, _ = generate(tiny_spec())
    out = batches(train, batch_size=7, seed=3, shuffle=True)
    all_labels = np.concatenate([b.labels for b in out])
    assert sorted(all_labels.tolist()) == sorted(train.labels.tolist())
    assert sum(b.n for b in out) == train.n


def test_batches_deterministic_in_seed():
    train, _, _ = generate(tiny_spec())
    a = batches(train, 7, seed=9, shuffle=True)
    b = batches(train, 7, seed=9, shuffle=True)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.features, y.features)


# ---- file formats -----------------------------------------------------------


def test_csv_round_trip(tmp_path):
    train, _, _ = generate(tiny_spec())
    path = tmp_path / "train.csv"
    save_features(train, path, "csv")
    loaded = load_features(path, "csv")
    np.testing.assert_array_equal(loaded.features, train.features)
    np.testing.assert_array_equal(loaded.labels, train.labels)


def test_bfv_round_trip_lossless_after_load(tmp_path):
    train, _, _ = generate(tiny_spec())
    first = tmp_path / "a.bfv"
    second = tmp_path / "b.bfv"
    save_features(train, first, "bfv")
    loaded = load_features(first, "bfv")
    save_features(loaded, second, "bfv")
    assert first.read_bytes() == second.read_bytes()
    again = load_features(second, "bfv")
    np.testing.assert_array_equal(loaded.features, again.features)
    np.testing.assert_array_equal(loaded.labels, again.labels)


def test_bfv_preserves_float32_exactly(tmp_path):
    feats = np.array([[0.5, -1.25], [3.75, 2.0]])
    data = LabeledFeatureSet(feats, [0, 1])
    path = tmp_path / "x.bfv"
    save_features(data, path, "bfv")
    loaded = load_features(path, "bfv")
    np.testing.assert_array_equal(loaded.features, feats)


def test_hand_built_csv_fixture(tmp_path):
    path = tmp_path / "hand.csv"
    path.write_text("f0,f1,label,is_ood\n1.5,-2.0,0,0\n0.25,4.0,-1,1\n")
    loaded = load_features(path, "csv")
    np.testing.assert_array_equal(loaded.features, [[1.5, -2.0], [0.25, 4.0]])
    np.testing.assert_array_equal(loaded.labels, [0, -1])
    np.testing.assert_array_equal(loaded.is_ood, [False, True])


def test_empty_file_is_parse_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_features(empty, "csv")
    empty_bfv = tmp_path / "empty.bfv"
    empty_bfv.write_bytes(b"")
    with pytest.raises(ParseError, match="byte"):
        load_features(empty_bfv, "bfv")


def test_csv_row_length_mismatch_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label,is_ood\n1.0,2.0,0,0\n1.0,0,0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_features(path, "csv")


@pytest.mark.parametrize(
    "rows, where",
    [
        ('"1.0\n",0,0\n2.0,x,0\n', r"line 4, column 2 \('label'\): non-integer label 'x'"),
        ('"1.0\n\n",0,0\n\n2.0,0\n', r"line 6: expected 3 fields, got 2"),
    ],
)
def test_csv_rows_are_numbered_by_the_line_they_start_on(tmp_path, rows, where):
    # the decimal grammar allows the line break a quoted cell spans
    path = tmp_path / "bad.csv"
    path.write_text("f0,label,is_ood\n" + rows)
    with pytest.raises(ParseError, match=where):
        load_features(path, "csv")


def test_csv_non_integer_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label,is_ood\n1.0,zero,0\n")
    with pytest.raises(ParseError, match="non-integer label"):
        load_features(path, "csv")


def test_bfv_bad_magic_names_position(tmp_path):
    path = tmp_path / "bad.bfv"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ParseError, match="byte 0"):
        load_features(path, "bfv")


def test_bfv_truncation_detected(tmp_path):
    train, _, _ = generate(tiny_spec())
    path = tmp_path / "t.bfv"
    save_features(train, path, "bfv")
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ParseError, match="expected"):
        load_features(path, "bfv")


def test_unknown_format_rejected(tmp_path):
    train, _, _ = generate(tiny_spec())
    with pytest.raises(ConfigError):
        save_features(train, tmp_path / "x.dat", "hdf5")
    with pytest.raises(ConfigError):
        load_features(tmp_path / "x.dat", "hdf5")


def test_labeled_set_invariant_checks():
    with pytest.raises(DataError, match=r"^inconsistent lengths: 2 features, labels of shape \(1,\)$"):
        LabeledFeatureSet(np.zeros((2, 3)), [0])
    with pytest.raises(DataError, match="features must be 2-D"):
        LabeledFeatureSet(np.zeros(3), [0, 1, 2])


def test_is_ood_is_the_minus_1_label():
    data = LabeledFeatureSet(np.zeros((4, 2)), [0, -1, 3, -1])
    assert [f.name for f in dataclasses.fields(data)] == ["features", "labels"]
    np.testing.assert_array_equal(data.is_ood, data.labels == -1)
    np.testing.assert_array_equal(data.subset([1, 2]).is_ood, [True, False])
    assert data.num_classes() == 4
    with pytest.raises(AttributeError):
        data.is_ood = np.zeros(4, dtype=bool)


def test_spec_validation():
    with pytest.raises(ConfigError):
        tiny_spec(per_class=0)
    with pytest.raises(ConfigError):
        tiny_spec(within_std=0.0)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1.0,5,1", "disagrees with label 5"),
        ("1.0,-1,0", "disagrees with label -1"),
        ("1.0,0,2", "must be 0 or 1"),
        ("1.0,0,yes", "must be 0 or 1"),
    ],
)
def test_csv_is_ood_must_be_binary_and_match_label(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,label,is_ood\n2.0,0,0\n{row}\n")
    with pytest.raises(ParseError, match=f"line 3: .*{message}"):
        load_features(path, "csv")


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_csv_non_finite_feature_names_line_and_column(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,label,is_ood\n1.0,2.0,0,0\n\n3.0,{value},1,0\n")
    with pytest.raises(ParseError, match=r"line 4, column 2 \('f1'\): non-finite"):
        load_features(path, "csv")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_bfv_non_finite_feature_names_row_and_index(tmp_path, value):
    train, _, _ = generate(tiny_spec())
    path = tmp_path / "t.bfv"
    save_features(train, path, "bfv")
    raw = bytearray(path.read_bytes())
    f = train.feature_dim
    offset = 12 + (3 * f + 2) * 4
    raw[offset : offset + 4] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match=f"byte {offset}: row 3, feature 2: non-finite"):
        load_features(path, "bfv")


@pytest.mark.parametrize(
    "row, where",
    [
        ("1_5,1_0,0", r"line 3, column 1 \('f0'\): '1_5' is not a decimal number"),
        ("1.5,1_0,0", r"line 3, column 2 \('label'\): non-integer label '1_0'"),
        ("0x1p3,1,0", r"line 3, column 1 \('f0'\)"),
        ("١٥,1,0", r"line 3, column 1 \('f0'\)"),
        ("1.5,١,0", r"line 3, column 2 \('label'\)"),
        ("1.\udcff5,0,0", r"line 3: not UTF-8 text"),  # written as the byte 0xff
        ("1.5,99999999999999999999,0", r"line 3, column 2 \('label'\): .* outside the int32"),
        ("1.5,-2147483649,0", r"line 3, column 2 \('label'\): .* outside the int32"),
        ("1" * 131_073 + ",0,0", r"line 3: field larger than field limit"),
    ],
)
def test_csv_rejects_cells_outside_the_decimal_grammar(tmp_path, row, where):
    # float() and int() would read '1_5' as 15 and Arabic-Indic digits as digits
    path = tmp_path / "bad.csv"
    path.write_bytes(f"f0,label,is_ood\n2.0,0,0\n{row}\n".encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError, match=where):
        load_features(path, "csv")


def test_csv_accepts_every_decimal_spelling(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text(
        "f0,f1,label,is_ood\n1.E-3, .5 ,+2,0\n5.,-7e2,-0001,1\n-0,0,+0002147483647,0\n",
        encoding="utf-8",
    )
    loaded = load_features(path, "csv")
    np.testing.assert_array_equal(loaded.features, [[1e-3, 0.5], [5.0, -700.0], [0.0, 0.0]])
    np.testing.assert_array_equal(loaded.labels, [2, -1, 2**31 - 1])


@pytest.mark.parametrize("label", [-7, -(2**31)])
def test_csv_rejects_a_label_below_the_ood_label_naming_line_and_column(tmp_path, label):
    # is_ood 0 once let such a label load as an in-distribution class
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,label,is_ood\n2.0,0,0\n1.0,{label},0\n")
    with pytest.raises(ParseError, match=(
        rf"line 3, column 2 \('label'\): label {label} is negative, and only OOD rows carry"
        " one, -1$"
    )):
        load_features(path, "csv")


@pytest.mark.parametrize("label", [-7, -(2**31)])
def test_bfv_rejects_a_label_below_the_ood_label_naming_byte_and_row(tmp_path, label):
    path = tmp_path / "bad.bfv"
    save_features(LabeledFeatureSet(np.ones((3, 2)), [0, -1, label]),
                  path, "bfv")
    with pytest.raises(ParseError, match=(
        rf"byte 44: row 2: label {label} is negative, and only OOD rows carry one, -1$"
    )):
        load_features(path, "bfv")


@pytest.mark.parametrize("features, labels, csv_at, bfv_at, text", [
    (np.ones((0, 2)), [], None, None, "no data rows"),
    ([[1.0, 2.0], [3.0, np.inf]], [0, 1], "line 3, column 2 ('f1')", "byte 24: row 1, feature 1",
     "non-finite feature inf"),
    ([[1.0, 2.0], [3.0, 4.0]], [0, -7], "line 3, column 3 ('label')", "byte 32: row 1",
     "label -7 is negative, and only OOD rows carry one, -1"),
], ids=["no-rows", "inf-feature", "label-minus-7"])
def test_csv_and_bfv_fail_one_content_check_with_one_text(
    tmp_path, features, labels, csv_at, bfv_at, text
):
    # the two loaders once worded these apart, and an empty BFV loaded
    for fmt, at in (("csv", csv_at), ("bfv", bfv_at)):
        path = tmp_path / f"bad.{fmt}"
        save_features(LabeledFeatureSet(features, labels), path, fmt)
        with pytest.raises(ParseError) as info:
            load_features(path, fmt)
        assert str(info.value) == (f"{path}: {text}" if at is None else f"{path}: {at}: {text}")


def test_spec_needs_a_validation_row_per_class():
    for per_class in (1, 2):
        with pytest.raises(ConfigError, match=f"^per_class must be >= 3, .* got {per_class}$"):
            tiny_spec(per_class=per_class)
    train, val, _ = generate(tiny_spec(per_class=3))
    assert (train.n, val.n) == (3 * 2, 3 * 1)
