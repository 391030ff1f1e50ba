"""Shared error types, and the JSON reader and atomic writer of artifacts.

ConfigError and FormatError mark problems with user-supplied inputs
(configs, corpora, checkpoints); the CLI maps them to exit code 2.
Anything else escaping a command is treated as an internal error (exit 3).
"""

import json
import os
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
