"""Shared error types.

ConfigError and FormatError mark problems with user-supplied inputs
(configs, corpora, checkpoints); the CLI maps them to exit code 2.
Anything else escaping a command is treated as an internal error (exit 3).
"""

import json
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
