"""Hypothesis fuzzing of the file readers: truncated, garbled and oversized
inputs either parse or fail with FormatError, and nothing else, without
allocating much more than the file itself; a frame-range read of a feature
file allocates nothing beyond the caller's array."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from axvector import backend as B
from axvector import data as D
from axvector.serialize import FormatError, json_object, read_records, write_records

# a reader may hold the file, a decoded copy and its arrays: a few times the
# file, never the sizes a garbled header claims
ALLOCATION_SLACK = 1 << 20
# a frame-range read fills the caller's array: a header's bytes and an
# error message, never an array
FRAME_READ_SLACK = 1 << 12
_FRAMES_OUT = np.empty((2, 3), np.float32)


def _valid_records(path) -> bytes:
    rng = np.random.default_rng(0)
    write_records(str(path), {"kind": "model", "config": {"input_dim": 3}},
                  [("a.weight", rng.normal(size=(2, 3))), ("a.bias", rng.normal(size=3)),
                   ("scalar", np.array(1.5))])
    return path.read_bytes()


def _valid_features(path) -> bytes:
    D.write_feature_file(str(path), np.arange(12, dtype=float).reshape(4, 3))
    return path.read_bytes()


def _read_frames(path):
    """Frames 1 and 2 of a feature file into a preallocated array."""
    return D.read_feature_file(path, _FRAMES_OUT, 1)


def _valid_trials(path) -> bytes:
    D.write_trials(str(path), [D.Trial("a", "b", True), D.Trial("a", "c", False)])
    return path.read_bytes()


def _valid_scores(path) -> bytes:
    B.write_scores(str(path), {("a", "b"): 1.25, ("a", "c"): -3.5})
    return path.read_bytes()


def _valid_key_values(path) -> bytes:
    path.write_text("a spk1\nb spk2\n")
    return path.read_bytes()


def _read_json(path):
    with open(path, "rb") as handle:
        return json_object(handle.read(), path)


def _valid_json(path) -> bytes:
    path.write_text('{"spec": {"feature_dim": 3, "conditions": ["clean"]}, "seed": 1.5}')
    return path.read_bytes()


READERS = {
    "records": (read_records, _valid_records),
    "features": (D.read_feature_file, _valid_features),
    "feature frames": (_read_frames, _valid_features),
    "trials": (D.read_trials, _valid_trials),
    "scores": (B.read_scores, _valid_scores),
    "key values": (D.read_key_value_file, _valid_key_values),
    "json object": (_read_json, _valid_json),
}


def _read_or_format_error(reader, path, data: bytes) -> bool:
    """True when the reader accepted the bytes; any exception other than
    FormatError, or a large allocation, fails the test."""
    path.write_bytes(data)
    tracemalloc.start()
    try:
        reader(str(path))
        return True
    except FormatError:
        return False
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        budget = FRAME_READ_SLACK if reader is _read_frames else 4 * len(data) + ALLOCATION_SLACK
        assert peak <= budget, f"peak allocation {peak} bytes"


@pytest.fixture(params=sorted(READERS), scope="module")
def reader_case(request, tmp_path_factory):
    reader, make = READERS[request.param]
    directory = tmp_path_factory.mktemp(request.param)
    return reader, make(directory / "valid"), directory / "fuzzed"


@given(cut=st.integers(min_value=0, max_value=10_000))
def test_truncated_input(reader_case, cut):
    reader, valid, path = reader_case
    cut = cut % len(valid)
    accepted = _read_or_format_error(reader, path, valid[:cut])
    # the binary formats have no valid proper prefix
    if reader in (read_records, D.read_feature_file, _read_frames):
        assert not accepted


@given(edits=st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                                st.integers(min_value=0, max_value=255)),
                      min_size=1, max_size=8))
def test_garbled_bytes(reader_case, edits):
    reader, valid, path = reader_case
    data = bytearray(valid)
    for position, value in edits:
        data[position % len(data)] = value
    _read_or_format_error(reader, path, bytes(data))


@given(blob=st.binary(max_size=200))
def test_arbitrary_bytes(reader_case, blob):
    reader, _, path = reader_case
    _read_or_format_error(reader, path, blob)


# byte offsets of the length fields in _valid_records' layout
_HEADER_LEN_AT = 8


def _records_fields(valid: bytes) -> dict:
    header_len = struct.unpack_from("<I", valid, _HEADER_LEN_AT)[0]
    count_at = 12 + header_len
    name_len_at = count_at + 4
    name_len = struct.unpack_from("<H", valid, name_len_at)[0]
    ndim_at = name_len_at + 2 + name_len
    return {"header_len": (_HEADER_LEN_AT, "<I"), "record_count": (count_at, "<I"),
            "name_len": (name_len_at, "<H"), "ndim": (ndim_at, "<B"),
            "dim0": (ndim_at + 1, "<I"), "dim1": (ndim_at + 5, "<I")}


@given(field=st.sampled_from(["header_len", "record_count", "name_len", "ndim", "dim0", "dim1"]),
       value=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_records_oversized_fields(tmp_path_factory, field, value):
    directory = tmp_path_factory.mktemp("records")
    valid = _valid_records(directory / "valid")
    offset, fmt = _records_fields(valid)[field]
    value %= 1 << (8 * struct.calcsize(fmt))
    data = bytearray(valid)
    struct.pack_into(fmt, data, offset, value)
    _read_or_format_error(read_records, directory / "fuzzed", bytes(data))


@given(frames=st.integers(min_value=0, max_value=2 ** 32 - 1),
       dim=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_features_oversized_header(tmp_path_factory, frames, dim):
    directory = tmp_path_factory.mktemp("features")
    valid = _valid_features(directory / "valid")
    data = bytearray(valid)
    struct.pack_into("<II", data, 8, frames, dim)
    accepted = _read_or_format_error(D.read_feature_file, directory / "fuzzed", bytes(data))
    assert accepted == (frames * dim == 12 and frames >= 1)
    # the frame-range read also needs the caller's width and frames 1 and 2
    accepted = _read_or_format_error(_read_frames, directory / "fuzzed", bytes(data))
    assert accepted == (frames * dim == 12 and dim == 3)


@pytest.mark.parametrize("header", [b"[1, 2]", b"3", b"\"text\"", b"null"])
def test_records_header_must_be_an_object(tmp_path, header):
    path = tmp_path / "r.axvr"
    path.write_bytes(b"AXVR" + struct.pack("<II", 1, len(header)) + header + struct.pack("<I", 0))
    with pytest.raises(FormatError, match="header"):
        read_records(str(path))


def test_records_deeply_nested_header(tmp_path):
    header = b"[" * 100_000
    path = tmp_path / "r.axvr"
    path.write_bytes(b"AXVR" + struct.pack("<II", 1, len(header)) + header + struct.pack("<I", 0))
    with pytest.raises(FormatError, match="header"):
        read_records(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.0x"])
def test_scores_reject_unreadable_or_non_finite(tmp_path, value):
    path = tmp_path / "scores"
    path.write_text(f"a b 1.0\na c {value}\n")
    with pytest.raises(FormatError, match=r"scores:2:"):
        B.read_scores(str(path))


def _one_record(name: bytes, dims: tuple) -> bytes:
    header = b"{}"
    return (b"AXVR" + struct.pack("<II", 1, len(header)) + header + struct.pack("<I", 1)
            + struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + b"\x00" * 8)


def test_records_name_not_utf8(tmp_path):
    path = tmp_path / "r.axvr"
    path.write_bytes(_one_record(b"\xff\xfe", (1,)))
    with pytest.raises(FormatError, match="record 0 name"):
        read_records(str(path))


def test_records_dims_whose_product_overflows_int64(tmp_path):
    # 2**64 elements: zero in wrapped int64 arithmetic
    path = tmp_path / "r.axvr"
    path.write_bytes(_one_record(b"x", (2 ** 16,) * 4))
    with pytest.raises(FormatError, match="truncated"):
        read_records(str(path))
