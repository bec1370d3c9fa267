import ast
import errno
import os
from pathlib import Path

import pytest

from bvihead.fsio import atomic_write_bytes, atomic_write_text, csv_text


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(target, "new")
    assert target.read_text() == "new"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.bin"
    atomic_write_bytes(target, b"\x00\x01")
    assert sorted(os.listdir(tmp_path)) == ["out.bin"]


def test_failed_write_keeps_previous_content(tmp_path):
    target = tmp_path / "dir_in_the_way"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_text(target, "x")
    assert target.is_dir()
    leftovers = [p for p in os.listdir(tmp_path) if p != "dir_in_the_way"]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_written_files_honour_the_umask(tmp_path, umask, mode):
    target = tmp_path / "out.txt"
    previous = os.umask(umask)
    try:
        atomic_write_text(target, "x")
        atomic_write_text(target, "y")  # replacing keeps the umask mode too
    finally:
        os.umask(previous)
    assert target.stat().st_mode & 0o777 == mode


@pytest.mark.parametrize("name, code", [("missing/out.csv", errno.ENOENT), ("a_dir", errno.EISDIR)])
def test_failed_write_names_the_target_with_its_errno(tmp_path, name, code):
    # the message once named the temp file, whose name is random
    (tmp_path / "a_dir").mkdir()
    target = tmp_path / name
    with pytest.raises(OSError) as first:
        atomic_write_text(target, "x")
    with pytest.raises(OSError) as second:
        atomic_write_text(target, "x")
    assert (first.value.errno, first.value.filename, first.value.filename2) == (code, str(target), None)
    assert str(first.value) == str(second.value)
    assert ".tmp" not in str(first.value)
    assert sorted(os.listdir(tmp_path)) == ["a_dir"]


def test_csv_text_spells_each_cell_by_its_type():
    rows = [["a", 1, 0.1, None, float("inf"), -0.0, True], ["", -7, 1e-300, 2.5, None, 3, False]]
    assert csv_text(("s", "i", "f", "n", "g", "z", "b"), rows) == (
        "s,i,f,n,g,z,b\na,1,0.1,,inf,-0.0,True\n,-7,1e-300,2.5,,3,False\n"
    )
    assert csv_text(["only"], []) == "only\n"


def test_only_fsio_opens_files_or_parses_json():
    # one reader for every file: the decode, the object check and the type
    # rule live in fsio, so no other module may read around them
    package = Path(__file__).resolve().parents[1] / "src" / "bvihead"
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "open") or (
                isinstance(f, ast.Attribute) and f.attr in ("load", "loads")
                and isinstance(f.value, ast.Name) and f.value.id == "json"
            ):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls and all(c.startswith("fsio.py:") for c in calls), calls
