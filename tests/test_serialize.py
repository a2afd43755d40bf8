import numpy as np
import pytest

from axvector.serialize import FormatError, read_records, write_records

from looped_reference import encode_records


def test_round_trip_bit_exact(tmp_path, rng):
    path = str(tmp_path / "records.axvr")
    records = [
        ("alpha", rng.normal(size=(3, 4))),
        ("beta", rng.normal(size=7)),
        ("scalarish", np.array(2.5)),
    ]
    header = {"kind": "test", "note": "round trip"}
    write_records(path, header, records)
    loaded_header, loaded = read_records(path)
    assert loaded_header == header
    assert [name for name, _ in loaded] == [name for name, _ in records]
    for (_, original), (_, copy) in zip(records, loaded):
        assert original.shape == copy.shape
        assert np.array_equal(original, copy)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.axvr"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        read_records(str(path))


def test_other_version_refused(tmp_path):
    path = tmp_path / "v2.axvr"
    data = encode_records({}, [("x", np.ones(2))])
    path.write_bytes(data[:4] + (2).to_bytes(4, "little") + data[8:])
    with pytest.raises(FormatError, match=r"v2\.axvr: unsupported version 2"):
        read_records(str(path))


def test_truncated_payload(tmp_path, rng):
    path = str(tmp_path / "records.axvr")
    write_records(path, {}, [("x", rng.normal(size=16))])
    data = open(path, "rb").read()
    trimmed = tmp_path / "trimmed.axvr"
    trimmed.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="truncated|trailing"):
        read_records(str(trimmed))


def test_trailing_garbage(tmp_path, rng):
    path = str(tmp_path / "records.axvr")
    write_records(path, {}, [("x", rng.normal(size=4))])
    extended = tmp_path / "extended.axvr"
    extended.write_bytes(open(path, "rb").read() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        read_records(str(extended))


def test_atomic_write_leaves_no_temp_files(tmp_path, rng):
    path = str(tmp_path / "records.axvr")
    write_records(path, {}, [("x", rng.normal(size=4))])
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != "records.axvr"]
    assert leftovers == []


@pytest.mark.parametrize("records", [
    [],
    [("scalar", np.array(-0.0))],
    [("empty", np.zeros((0, 3)))],
    [("a", np.arange(12.0).reshape(3, 4)), ("b", np.array(2.5)), ("c", np.zeros(0)),
     ("strided", np.arange(24.0).reshape(4, 6)[::2, 1::2]), ("ints", np.arange(5)),
     ("fortran", np.asfortranarray(np.arange(6.0).reshape(2, 3))),
     ("float32", np.linspace(0, 1, 7, dtype=np.float32)), ("üñí", np.ones((2, 1, 2)))],
], ids=["no-records", "0-d", "empty", "multi"])
def test_streamed_file_matches_whole_buffer_encoder(tmp_path, records):
    path = tmp_path / "records.axvr"
    header = {"kind": "test", "n": len(records)}
    write_records(str(path), header, records)
    assert path.read_bytes() == encode_records(header, records)
    loaded_header, loaded = read_records(str(path))
    assert loaded_header == header
    for (name, original), (loaded_name, copy) in zip(records, loaded):
        assert loaded_name == name and copy.shape == np.shape(original)
        assert copy.dtype == np.float64 and copy.flags.writeable and copy.flags.c_contiguous
        assert np.array_equal(copy, original)


def test_long_name_leaves_no_file(tmp_path):
    path = tmp_path / "records.axvr"
    with pytest.raises(ValueError, match="too long"):
        write_records(str(path), {}, [("ok", np.ones(2)), ("x" * 0x10000, np.ones(2))])
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "records.axvr"
    write_records(str(path), {"v": 1}, [("x", np.ones(3))])
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_records(str(path), {"v": 2}, [("x", np.ones(3)), ("bad", np.array(["text"]))])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["records.axvr"]


@pytest.mark.parametrize("records, message", [
    ([("x", np.ones(2)), ("y", np.ones(1)), ("x", np.ones(2))], "record 'x' is repeated"),
    ([("x", np.ones(2)), ("y", np.array([0.0, np.inf]))],
     "record 'y' holds a NaN or infinite value"),
    ([("x", np.full((2, 2), np.nan))], "record 'x' holds a NaN or infinite value"),
], ids=["repeated", "infinite", "nan"])
def test_every_record_file_names_each_record_once_with_finite_values(tmp_path, records,
                                                                      message):
    path = str(tmp_path / "records.axvr")
    write_records(path, {}, records)
    with pytest.raises(FormatError, match=rf"records\.axvr: {message}"):
        read_records(path)
