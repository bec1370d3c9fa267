"""Atomic file writes: temp file in the target directory, then rename.

Files get mode 0o666 masked by the process umask, as ``open`` would give
them, not the 0o600 that the temp file is created with.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def _umask() -> int:
    """The process umask; reading it means setting it and restoring it."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
