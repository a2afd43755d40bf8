"""Edits that break a feature file in place, for tests that alter a corpus
after it has been loaded."""

import struct

import numpy as np


def _header_frames(data: bytearray) -> bytearray:
    frames = struct.unpack_from("<I", data, 8)[0]
    struct.pack_into("<I", data, 8, frames - 1)
    return data


def _truncated_payload(data: bytearray) -> bytearray:
    return data[:16 + (len(data) - 16) // 2]


def _nan_frame(data: bytearray) -> bytearray:
    dim = struct.unpack_from("<I", data, 12)[0]
    data[16 + 4 * dim:16 + 8 * dim] = np.full(dim, np.nan, "<f4").tobytes()   # frame 1
    return data


ALTERATIONS = {"header frames": _header_frames, "truncated payload": _truncated_payload,
               "nan frame": _nan_frame}


def alter(path, how: str) -> None:
    """Rewrite the feature file at ``path`` with one ALTERATIONS edit."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    with open(path, "wb") as handle:
        handle.write(ALTERATIONS[how](data))
