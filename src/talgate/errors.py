"""Shared error types, the config value type rule, the JSON reader and the atomic writer.

ConfigError and FormatError mark problems with user-supplied inputs
(configs, corpora, checkpoints); the CLI maps them to exit code 2.
Anything else escaping a command is treated as an internal error (exit 3).
"""

import json
import os
import sys
from pathlib import Path


class ConfigError(ValueError):
    """A configuration value violates a documented invariant."""


class FormatError(ValueError):
    """An on-disk artifact (blob, manifest, checkpoint, log) is malformed."""


def read_json(path, what: str = "JSON file"):
    """Parse a JSON file; non-UTF-8 or non-JSON text is a FormatError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from exc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:  # JSON admits NaN and Infinity
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def check_type(where: str, key: str, value, default) -> None:
    """A config value must have the JSON type of the key's default; a null
    default (``hidden``: use the feature dim) also admits an integer."""
    if default is None:
        ok, want = value is None or _is_int(value), "an integer or null"
    elif isinstance(default, int):
        ok, want = _is_int(value), "an integer"
    elif isinstance(default, float):
        ok, want = _is_finite(value), "a finite number"
    elif isinstance(default, list):
        ok, want = isinstance(value, list) and all(map(_is_finite, value)), "a list of finite numbers"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{where}: key {key!r} must be {want}, got {json.dumps(value)}")


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to a temp file beside ``path``, then
    rename it over ``path``: a reader sees the old file or the whole new one,
    and a failed write leaves no temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
