"""Shared error types, the config value type rule, the JSON reader and the atomic writer.

ConfigError and FormatError mark problems with user-supplied inputs
(configs, corpora, checkpoints); the CLI maps them to exit code 2.
Anything else escaping a command is treated as an internal error (exit 3).
"""

import json
import os
import sys
from dataclasses import fields
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


# a config field's annotation: the test of its JSON value and how a message names that type
JSON_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_finite, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "tuple[float, ...]": (lambda v: isinstance(v, list) and all(map(_is_finite, v)),
                          "a list of finite numbers"),
}


def check_types(where: str, block, *classes, **annotations: str) -> None:
    """Each key of the JSON object ``block`` that names a field of one of the
    config dataclasses ``classes``, or a keyword of ``annotations``, must
    hold a value of the JSON type of its annotation (``JSON_TYPES``); other
    keys are the caller's to check.  A wrong type is a ConfigError naming
    ``where`` and the key."""
    types = {f.name: f.type for cls in classes for f in fields(cls)} | annotations
    for key, annotation in types.items():
        if key in block:
            ok, want = JSON_TYPES[annotation]
            if not ok(block[key]):
                raise ConfigError(f"{where}: key {key!r} must be {want}, got {json.dumps(block[key])}")


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
