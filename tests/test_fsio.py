import os

import pytest

from bvihead.fsio import atomic_write_bytes, atomic_write_text


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
