"""Versioned little-endian binary container for float64 matrices.

Single-matrix blob layout:

    bytes 0-3    magic b"AVLM"
    bytes 4-7    u32 version (currently 1)
    bytes 8-11   u32 rows
    bytes 12-15  u32 cols
    bytes 16-    rows * cols IEEE-754 float64, row-major

The named-matrix container (checkpoints) shares the header and follows it
with a u32 entry count, then per entry: u32 name length, UTF-8 name,
u32 rows, u32 cols, payload.  All integers little-endian.  Reads are
byte-exact inverses of writes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, write_atomic

MAGIC = b"AVLM"
VERSION = 1

_HEADER = struct.Struct("<4sI")
_U32 = struct.Struct("<I")
_DIMS = struct.Struct("<II")


def _matrix_bytes(m: np.ndarray) -> bytes:
    return np.ascontiguousarray(m, dtype="<f8").tobytes()


def _take(buf: bytes, offset: int, n: int, what: str, path: Path) -> tuple[bytes, int]:
    if offset + n > len(buf):
        raise FormatError(f"truncated blob {path}: needed {n} bytes for {what} at offset {offset}, file has {len(buf)}")
    return buf[offset:offset + n], offset + n


def _read_payload(buf: bytes, offset: int, path: Path, what: str) -> tuple[np.ndarray, int]:
    """Dimensions, then a finite row-major float64 payload."""
    raw, offset = _take(buf, offset, _DIMS.size, f"dimensions of {what}", path)
    rows, cols = _DIMS.unpack(raw)
    payload, end = _take(buf, offset, rows * cols * 8, f"{rows}x{cols} payload of {what}", path)
    m = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    if not np.all(np.isfinite(m)):
        raise FormatError(f"non-finite entries in {what} at offset {offset} in {path}")
    return m, end


def _read_header(buf: bytes, path: Path) -> int:
    raw, offset = _take(buf, 0, _HEADER.size, "header", path)
    magic, version = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0 in {path}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported blob version {version} at offset 4 in {path}")
    return offset


def write_matrix(path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise FormatError(f"blob payload must be 2-D, got shape {m.shape}")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION))
        f.write(_DIMS.pack(m.shape[0], m.shape[1]))
        f.write(_matrix_bytes(m))


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    buf = path.read_bytes()
    m, offset = _read_payload(buf, _read_header(buf, path), path, "the matrix")
    if offset != len(buf):
        raise FormatError(f"trailing garbage at offset {offset} in {path}")
    return m


def write_named_matrices(path, items: list[tuple[str, np.ndarray]]) -> None:
    """Write the container atomically (``errors.write_atomic``)."""
    parts = [_HEADER.pack(MAGIC, VERSION), _U32.pack(len(items))]
    for name, m in items:
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2:
            raise FormatError(f"entry {name!r} must be 2-D, got shape {m.shape}")
        encoded = name.encode("utf-8")
        parts += [_U32.pack(len(encoded)), encoded, _DIMS.pack(m.shape[0], m.shape[1]), _matrix_bytes(m)]
    write_atomic(path, b"".join(parts))


def read_named_matrices(path) -> list[tuple[str, np.ndarray]]:
    path = Path(path)
    buf = path.read_bytes()
    offset = _read_header(buf, path)
    raw, offset = _take(buf, offset, _U32.size, "entry count", path)
    (count,) = _U32.unpack(raw)
    items: list[tuple[str, np.ndarray]] = []
    for i in range(count):
        raw, offset = _take(buf, offset, _U32.size, f"name length of entry {i}", path)
        (name_len,) = _U32.unpack(raw)
        raw, offset = _take(buf, offset, name_len, f"name of entry {i}", path)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-UTF-8 name of entry {i} at offset {offset - name_len} in {path}") from exc
        m, offset = _read_payload(buf, offset, path, repr(name))
        items.append((name, m))
    if offset != len(buf):
        raise FormatError(f"trailing garbage at offset {offset} in {path}")
    return items
