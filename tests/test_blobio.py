"""Binary container round-trips and corruption diagnostics."""

import struct

import numpy as np
import pytest

from talgate.blobio import (MAGIC, VERSION, read_matrix, read_named_matrices,
                            write_matrix, write_named_matrices)
from talgate.errors import FormatError
from talgate.nn import Rng


def test_matrix_round_trip(tmp_path):
    m = Rng(1).normal_matrix(13, 7)
    p = tmp_path / "m.bin"
    write_matrix(p, m)
    back = read_matrix(p)
    assert back.dtype == np.float64 and back.flags.writeable
    assert np.array_equal(back, m)


def test_write_is_byte_stable(tmp_path):
    m = Rng(2).normal_matrix(5, 5)
    write_matrix(tmp_path / "a.bin", m)
    write_matrix(tmp_path / "b.bin", m)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_header_layout(tmp_path):
    write_matrix(tmp_path / "m.bin", np.zeros((3, 2)))
    raw = (tmp_path / "m.bin").read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack("<I", raw[4:8])[0] == VERSION
    assert struct.unpack("<II", raw[8:16]) == (3, 2)
    assert len(raw) == 16 + 3 * 2 * 8


def test_empty_matrix_round_trip(tmp_path):
    p = tmp_path / "e.bin"
    write_matrix(p, np.zeros((0, 4)))
    assert read_matrix(p).shape == (0, 4)


def test_non_2d_rejected(tmp_path):
    with pytest.raises(FormatError):
        write_matrix(tmp_path / "x.bin", np.zeros(3))


def test_bad_magic_reports_offset(tmp_path):
    p = tmp_path / "m.bin"
    write_matrix(p, np.ones((2, 2)))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad magic.*offset 0"):
        read_matrix(p)


def test_unsupported_version(tmp_path):
    p = tmp_path / "m.bin"
    write_matrix(p, np.ones((2, 2)))
    raw = bytearray(p.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version 9"):
        read_matrix(p)


def test_truncated_payload_reports_offset(tmp_path):
    p = tmp_path / "m.bin"
    write_matrix(p, np.ones((4, 4)))
    p.write_bytes(p.read_bytes()[:40])
    with pytest.raises(FormatError, match="truncated.*offset 16"):
        read_matrix(p)


def test_truncated_header(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"AVL")
    with pytest.raises(FormatError, match="truncated"):
        read_matrix(p)


def test_non_finite_payload_rejected(tmp_path):
    p = tmp_path / "m.bin"
    m = np.ones((2, 2))
    m[1, 1] = np.inf
    write_matrix(p, m)
    with pytest.raises(FormatError, match="non-finite"):
        read_matrix(p)


def test_named_round_trip_preserves_order(tmp_path):
    rng = Rng(3)
    items = [("first.w", rng.normal_matrix(3, 4)),
             ("first.b", rng.normal_matrix(1, 4)),
             ("second", rng.normal_matrix(2, 2))]
    p = tmp_path / "c.bin"
    write_named_matrices(p, items)
    back = read_named_matrices(p)
    assert [name for name, _ in back] == [name for name, _ in items]
    for (_, got), (_, want) in zip(back, items):
        assert np.array_equal(got, want) and got.flags.writeable


def test_named_trailing_garbage_rejected(tmp_path):
    p = tmp_path / "c.bin"
    write_named_matrices(p, [("a", np.zeros((1, 1)))])
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing garbage"):
        read_named_matrices(p)


def test_named_repeated_name_rejected(tmp_path):
    p = tmp_path / "c.bin"
    write_named_matrices(p, [("a", np.zeros((1, 1)))])
    raw = bytearray(p.read_bytes())
    struct.pack_into("<I", raw, 8, 2)  # a second entry, a copy of the first
    p.write_bytes(bytes(raw + raw[12:]))
    with pytest.raises(FormatError, match="repeated name 'a' of entry 1 at offset 37"):
        read_named_matrices(p)


def test_named_truncated_entry_names_entry(tmp_path):
    p = tmp_path / "c.bin"
    write_named_matrices(p, [("weights", np.ones((2, 3)))])
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(FormatError, match="'weights'"):
        read_named_matrices(p)


def test_named_bad_magic(tmp_path):
    p = tmp_path / "c.bin"
    write_named_matrices(p, [("a", np.zeros((1, 1)))])
    raw = bytearray(p.read_bytes())
    raw[0] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad magic"):
        read_named_matrices(p)
