"""Atomic file writes: temp file in the target directory, then rename.

Files get mode 0o666 masked by the process umask, as ``open`` would give
them, not the 0o600 that the temp file is created with. ``csv_text`` is
the one way the package spells a CSV file.
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
    """Write data to path; a failure raises an OSError that names path, not the temp file."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def csv_text(header, rows) -> str:
    """The header's names, then one line per row, each joined by commas.

    A str cell is written as itself, None as an empty cell and any other
    value as its repr, so that a float reads back exactly. Pass Python
    values (`tolist()`): a numpy scalar's repr is not its number.
    """
    lines = [",".join(header)]
    lines += (",".join(c if isinstance(c, str) else "" if c is None else repr(c) for c in row)
              for row in rows)
    return "\n".join(lines) + "\n"
