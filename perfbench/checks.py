"""Output gates, in plain Python so they do not trust the package's own
readers: record containers parse and hold finite values, score files cover
the trial list with finite scores, reports parse."""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
from array import array

RECORD_MAGIC = b"AXVR"


class CheckError(Exception):
    pass


def read_lines(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        return [line.split() for line in handle if line.strip()]


def record_shapes(path: str, check_finite: bool) -> tuple[dict, list[tuple[str, tuple]]]:
    """Parse an AXVR record container; return (header, [(name, shape)])."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != RECORD_MAGIC:
        raise CheckError(f"{path}: bad magic")
    _, header_len = struct.unpack_from("<II", data, 4)
    pos = 12 + header_len
    header = json.loads(data[12:pos])
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    records = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2:pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        ndim = data[pos]
        shape = struct.unpack_from(f"<{ndim}I", data, pos + 1)
        pos += 1 + 4 * ndim
        size = 8 * math.prod(shape)
        if pos + size > len(data):
            raise CheckError(f"{path}: truncated record {name!r}")
        if check_finite:
            values = array("d")
            values.frombytes(data[pos:pos + size])
            if sys.byteorder != "little":
                values.byteswap()
            if not all(map(math.isfinite, values)):
                raise CheckError(f"{path}: non-finite values in record {name!r}")
        pos += size
        records.append((name, shape))
    if pos != len(data):
        raise CheckError(f"{path}: {len(data) - pos} trailing bytes")
    return header, records


def check_checkpoint(path: str) -> None:
    header, records = record_shapes(path, check_finite=False)
    if header.get("kind") != "model" or not records:
        raise CheckError(f"{path}: not a model checkpoint")


def check_embeddings(path: str, utterances: int) -> None:
    header, records = record_shapes(path, check_finite=True)
    if header.get("kind") != "embeddings" or len(records) != utterances:
        raise CheckError(f"{path}: expected {utterances} embeddings, found {len(records)}")


def check_scores(path: str, trials: list[list[str]]) -> None:
    rows = read_lines(path)
    if len(rows) != len(trials):
        raise CheckError(f"{path}: {len(rows)} scores for {len(trials)} trials")
    for row, trial in zip(rows, trials):
        if len(row) != 3 or row[:2] != trial[:2] or not math.isfinite(float(row[2])):
            raise CheckError(f"{path}: bad score line {' '.join(row)!r}")


def check_report(prefix: str, trials: int) -> float:
    """Parse <prefix>.json and <prefix>.txt; return the overall EER."""
    with open(prefix + ".json", encoding="utf-8") as handle:
        overall = json.load(handle)["overall"]
    with open(prefix + ".txt", encoding="utf-8") as handle:
        if "EER%" not in handle.read():
            raise CheckError(f"{prefix}.txt: no EER row")
    eer = float(overall["eer"])
    if not 0.0 <= eer <= 1.0 or overall["n_target"] + overall["n_nontarget"] != trials:
        raise CheckError(f"{prefix}.json: bad overall summary")
    return eer


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def check_identical(first: str, second: str) -> None:
    if digest(first) != digest(second):
        raise CheckError(f"{second} differs from {first}")

