"""The rules that every file of one kind shares: the binary record
container used for checkpoints, embeddings and backend models, the JSON
object reader, the typed reader of a settings object, the keyed text-table
reader, and atomic file writing.

Layout (all integers little-endian):

    magic "AXVR" | u32 version | u32 header_len | header JSON (utf-8)
    u32 record_count
    per record: u16 name_len | name utf-8 | u8 ndim | u32 dims[ndim]
                | float64 little-endian values, C order

The float payload is written byte-exact, so a save/load round trip preserves
every value bit for bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
import tempfile

import numpy as np

MAGIC = b"AXVR"
VERSION = 1


class FormatError(ValueError):
    """Raised when an on-disk artifact does not parse cleanly."""


@contextlib.contextmanager
def _atomic_file(path: str):
    """A binary file handle on a temp file in the same directory as ``path``,
    renamed into place when the block ends; on any error the temp file is
    removed and ``path`` is left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    with _atomic_file(path) as handle:
        handle.write(data)


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def json_object(data: bytes, where: str) -> dict:
    """The JSON object that ``data`` holds.  Text that is not UTF-8, JSON
    that is malformed or nested too deep, and a value other than an object
    each raise one FormatError naming ``where``."""
    try:
        value = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # UnicodeDecodeError is a ValueError
        raise FormatError(f"{where}: not valid JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value


# the JSON value that each declared type of a settings field takes; a bool is
# no number, and a list becomes a tuple whose elements follow the same rules
SETTING_VALUES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                  "str": (str, "a string"), "int | None": ((int, type(None)), "an integer or null"),
                  **{f"tuple[{item}, ...]": (list, "a list") for item in ("int", "float", "str")}}


def _setting(value, declared: str, where: str):
    types, what = SETTING_VALUES[declared]
    if isinstance(value, bool) or not isinstance(value, types):
        raise FormatError(f"{where} must be {what}, got {value!r:.40}")
    if isinstance(value, list):
        item = declared.removeprefix("tuple[").removesuffix(", ...]")
        return tuple(_setting(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    return value


def settings(cls, data, where: str):
    """The settings dataclass ``cls`` made from ``data``, a JSON object.  A
    key that ``cls`` has no field for and a value or list element of another
    JSON type than its field declares each raise one FormatError naming the
    section ``where`` and the key; a value that ``cls`` refuses raises one
    naming the section."""
    if not isinstance(data, dict):
        raise FormatError(f"section {where!r} must be a mapping")
    known = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise FormatError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    values = {key: _setting(value, known[key], f"{where}.{key}") for key, value in data.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise FormatError(f"invalid {where} section: {exc}") from exc


def table_rows(path: str, columns: str, key_width: int):
    """(line number, fields) for each nonblank line of a UTF-8 text table
    whose lines hold the space-separated ``columns``.  The first
    ``key_width`` fields of a line are its key, which no other line repeats.
    A file that is not UTF-8, a line of another width and a repeated key
    each raise one FormatError naming the file and the line."""
    width, first_line = len(columns.split()), {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                fields = line.split()
                if not fields:
                    continue
                if len(fields) != width:
                    raise FormatError(f"{path}:{line_no}: expected {columns!r}, "
                                      f"got {line.strip()!r}")
                key = " ".join(fields[:key_width])
                if key in first_line:
                    raise FormatError(f"{path}:{line_no}: duplicate key {key!r} "
                                      f"(first on line {first_line[key]})")
                first_line[key] = line_no
                yield line_no, fields
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def write_records(path: str, header: dict, records: list[tuple[str, np.ndarray]]) -> None:
    """Stream the container into an atomic temp file: each record's prefix,
    then its float64 buffer, with no copy of the whole file in memory."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with _atomic_file(path) as handle:
        handle.write(MAGIC + struct.pack("<II", VERSION, len(header_bytes)) + header_bytes
                     + struct.pack("<I", len(records)))
        for name, array in records:
            name_bytes = name.encode("utf-8")
            if len(name_bytes) > 0xFFFF:
                raise ValueError(f"record name too long: {name[:40]}...")
            # order="C" copies only a non-contiguous or non-float64 array and,
            # unlike ascontiguousarray, keeps a 0-d array 0-d
            arr = np.asarray(array, dtype="<f8", order="C")
            handle.write(struct.pack("<H", len(name_bytes)) + name_bytes
                         + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            handle.write(memoryview(arr))


def read_records(path: str) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    """Parse a record file straight from its handle; each record's values
    are read into their own writable float64 array.  Every length is checked
    against the bytes left in the file before anything of that size is
    allocated, and a repeated record name or a NaN or infinite value fails
    naming the record."""
    with open(path, "rb") as handle:
        left = os.fstat(handle.fileno()).st_size

        def reserve(n: int) -> None:
            nonlocal left
            if n > left:
                raise FormatError(f"{path}: truncated file")
            left -= n

        def take(n: int) -> bytes:
            reserve(n)
            chunk = handle.read(n)
            if len(chunk) != n:
                raise FormatError(f"{path}: truncated file")
            return chunk

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        if take(4) != MAGIC:
            raise FormatError(f"{path}: bad magic, not a record file")
        (version,) = unpack("<I")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        (header_len,) = unpack("<I")
        header = json_object(take(header_len), f"{path} header")
        records, names = [], set()
        for index in range(unpack("<I")[0]):
            try:
                name = take(unpack("<H")[0]).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: record {index} name is not UTF-8") from exc
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}I")
            reserve(math.prod(shape) * 8)
            array = np.empty(shape, dtype="<f8")
            if handle.readinto(array) != array.nbytes:
                raise FormatError(f"{path}: truncated file")
            if name in names:
                raise FormatError(f"{path}: record {name!r} is repeated")
            if not np.isfinite(array).all():
                raise FormatError(f"{path}: record {name!r} holds a NaN or infinite value")
            names.add(name)
            records.append((name, array))
        if left:
            raise FormatError(f"{path}: {left} trailing bytes")
    return header, records
