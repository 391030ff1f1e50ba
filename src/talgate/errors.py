"""Shared error types, the config value type rule, the stored-config reader,
the JSON reader, which rejects a repeated object key, and the atomic writer.

ConfigError and FormatError mark problems with user-supplied inputs
(configs, corpora, checkpoints); the CLI maps them to exit code 2.
Anything else escaping a command is treated as an internal error (exit 3).
A run config file may leave any key at its default; a config block that a
writer stored beside its data (the manifest's, the checkpoint sidecar's)
holds every field and no other key, so a reader takes none from a default
and a former key is an error (``read_config_block``).
"""

import json
import os
from collections import Counter
import sys
from dataclasses import fields
from pathlib import Path


class ConfigError(ValueError):
    """A configuration value violates a documented invariant."""


class FormatError(ValueError):
    """An on-disk artifact (blob, manifest, checkpoint, log) is malformed."""


def _object(pairs: list) -> dict:
    """The dict of a JSON object's pairs; a repeated key is a ValueError."""
    keys = Counter(k for k, _ in pairs)
    if len(keys) < len(pairs):
        raise ValueError(f"repeated key {keys.most_common(1)[0][0]!r}")
    return dict(pairs)


def parse_json(text: str | bytes):
    """``json.loads`` of ``text``, where a repeated object key is a ValueError."""
    return json.loads(text, object_pairs_hook=_object)


def read_json(path, what: str = "JSON file"):
    """Parse a JSON file (``parse_json``); non-UTF-8 or non-JSON text, or an
    object that repeats a key, is a FormatError naming it."""
    try:
        return parse_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, a repeated key
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
    "tuple[float, ...]": (lambda v: isinstance(v, list) and all(map(_is_finite, v)),
                          "a list of finite numbers"),
}


def check_types(where: str, block, *classes) -> None:
    """Each key of the JSON object ``block`` that names a field of one of the
    config dataclasses ``classes`` must hold a value of the JSON type of its
    annotation (``JSON_TYPES``); other keys are the caller's to check.  A
    wrong type is a ConfigError naming ``where`` and the key."""
    for f in (f for cls in classes for f in fields(cls)):
        if f.name in block:
            ok, want = JSON_TYPES[f.type]
            if not ok(block[f.name]):
                raise ConfigError(f"{where}: key {f.name!r} must be {want}, got {json.dumps(block[f.name])}")


def read_config_block(cls, block, where: str):
    """The validated ``cls`` that the stored config block ``block`` holds:
    a JSON object with every field of ``cls`` and no other key, each value
    of its JSON type (``check_types``) and in range.  Anything else is a
    FormatError naming ``where`` and the key."""
    try:
        if not isinstance(block, dict):
            raise ConfigError(f"config block must be a JSON object, got {json.dumps(block)}")
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in block]
        if missing:
            raise ConfigError(f"config block lacks key(s) {', '.join(map(repr, missing))}")
        unknown = [key for key in block if key not in names]
        if unknown:
            raise ConfigError(f"config block has unknown key(s) {', '.join(map(repr, unknown))}")
        check_types("config block", block, cls)
        return cls(**block).validate()
    except ConfigError as exc:
        raise FormatError(f"{where}: {exc}") from exc


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
