"""Versioned little-endian binary container for float64 matrices.

Single-matrix blob layout:

    bytes 0-3    magic b"AVLM"
    bytes 4-7    u32 version (currently 1)
    bytes 8-11   u32 rows
    bytes 12-15  u32 cols
    bytes 16-    rows * cols IEEE-754 float64, row-major

The named-matrix container (checkpoints) shares the header and follows it
with a u32 entry count, then per entry: u32 name length, UTF-8 name,
u32 rows, u32 cols, payload; a reader rejects a repeated name.  All
integers little-endian.  Reads are byte-exact inverses of writes.
"""

from __future__ import annotations

import os
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


def _read_file(path: Path) -> bytearray:
    """The file's bytes, read once into a writable buffer that the payload
    arrays view: no payload is copied after the read."""
    with open(path, "rb") as f:  # buffered: readinto stops short only at the end of the file
        buf = bytearray(os.fstat(f.fileno()).st_size)
        del buf[f.readinto(buf):]
    return buf


def _end(buf: bytearray, offset: int, n: int, what: str, path: Path) -> int:
    """The offset past ``n`` bytes of ``what`` at ``offset``, which must lie in ``buf``."""
    if offset + n > len(buf):
        raise FormatError(f"truncated blob {path}: needed {n} bytes for {what} at offset {offset}, file has {len(buf)}")
    return offset + n


def _u32(buf: bytearray, offset: int, what: str, path: Path) -> tuple[int, int]:
    end = _end(buf, offset, _U32.size, what, path)
    return _U32.unpack_from(buf, offset)[0], end


def _read_payload(buf: bytearray, offset: int, path: Path, what: str) -> tuple[np.ndarray, int]:
    """Dimensions, then a finite row-major float64 payload, a view of ``buf``."""
    start = _end(buf, offset, _DIMS.size, f"dimensions of {what}", path)
    rows, cols = _DIMS.unpack_from(buf, offset)
    end = _end(buf, start, rows * cols * 8, f"{rows}x{cols} payload of {what}", path)
    m = np.frombuffer(buf, dtype="<f8", count=rows * cols, offset=start).reshape(rows, cols)
    if not np.all(np.isfinite(m)):
        raise FormatError(f"non-finite entries in {what} at offset {start} in {path}")
    return m, end


def _read_header(buf: bytearray, path: Path) -> int:
    offset = _end(buf, 0, _HEADER.size, "header", path)
    magic, version = _HEADER.unpack_from(buf)
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
    buf = _read_file(path)
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
    buf = _read_file(path)
    offset = _read_header(buf, path)
    count, offset = _u32(buf, offset, "entry count", path)
    items: list[tuple[str, np.ndarray]] = []
    for i in range(count):
        name_len, start = _u32(buf, offset, f"name length of entry {i}", path)
        offset = _end(buf, start, name_len, f"name of entry {i}", path)
        try:
            name = buf[start:offset].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-UTF-8 name of entry {i} at offset {start} in {path}") from exc
        if any(name == seen for seen, _ in items):
            raise FormatError(f"repeated name {name!r} of entry {i} at offset {start} in {path}")
        m, offset = _read_payload(buf, offset, path, repr(name))
        items.append((name, m))
    if offset != len(buf):
        raise FormatError(f"trailing garbage at offset {offset} in {path}")
    return items
