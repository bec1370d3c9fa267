"""The package's file boundary: every text read and every atomic write.

Read side: ``read_text`` decodes a file as strict UTF-8, and ``read_json``
parses a config or a checkpoint from it; ``json_object`` and
``json_value`` are the one object check and the one type rule that both
apply to what it returns, and ``json_dataclass`` builds a dataclass of the
values, naming where a value that fails its bounds came from. No other
module opens a file or parses JSON.

Write side: a temp file in the target directory, then a rename. Files get
mode 0o666 masked by the process umask, as ``open`` would give them, not
the 0o600 that the temp file is created with. ``csv_text`` is the one way
the package spells a CSV file.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, ParseError


def read_text(path, error: type = ParseError) -> str:
    """The file decoded as UTF-8; other bytes raise `error` naming the file and line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 text ({exc})") from None


def read_json(path, what: str):
    """The JSON document in the file, read by `read_text`. A byte that is
    not UTF-8, or text that is not JSON (a leading byte-order mark
    included), raises ConfigError naming the file and `what` it holds."""
    text = read_text(path, ConfigError)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, or nested too deep
        raise ConfigError(f"{path}: {what} is not valid JSON: {exc}") from None


def json_object(obj, keys, where: str, complete: bool = False) -> dict:
    """obj, a JSON object whose keys are among `keys`, and are all of them
    if `complete`; else ConfigError naming `where`."""
    if type(obj) is not dict:
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(obj.keys() - set(keys))
    if unknown:
        raise ConfigError(f"{where} has unknown key {unknown[0]!r};"
                          f" expected one of {sorted(keys)}")
    missing = [key for key in keys if key not in obj] if complete else []
    if missing:
        raise ConfigError(f"{where} lacks key {missing[0]!r}")
    return obj


def json_value(value, like, where: str):
    """value, if it has the JSON type of `like`; else ConfigError naming `where`.

    An int takes a JSON integer (never a bool), a float a finite JSON
    number, returned as a float, a bool only true or false, a str a string,
    and a list a list of items of the type of like[0].
    """
    kind = type(like)
    if kind is list:
        item = type(like[0])
        if type(value) is not list or any(type(v) is not item for v in value):
            expected = "integers" if item is int else "strings"
            raise ConfigError(f"{where} must be a list of {expected}, got {value!r}")
        return value
    if kind is float and type(value) is int:  # beyond the float range is inf
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        expected = {bool: "true or false", float: "a finite number"}.get(kind, kind.__name__)
        raise ConfigError(f"{where} must be {expected}, got {value!r}")
    return value


def json_dataclass(cls, values: dict, where: str, **given):
    """cls from the values of its fields not `given`. A bound that cls
    rejects raises ConfigError, whose message starts with the field's name;
    it is raised again starting with `where`, the section or file the
    value came from."""
    read = {f.name: values[f.name] for f in fields(cls) if f.name not in given}
    try:
        return cls(**read, **given)
    except ConfigError as exc:
        raise ConfigError(f"{where}{exc}") from None


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
    # str.join makes a list of a generator first, so the lists are built
    # directly
    lines += [",".join([c if isinstance(c, str) else "" if c is None else repr(c) for c in row])
              for row in rows]
    return "\n".join(lines) + "\n"
