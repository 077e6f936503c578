"""Minimal binary tensor container.

Layout (all integers little-endian u32):

    magic "SMRD" | version | dtype tag | rank | dims[rank] | payload

Payload is row-major little-endian. Dtype tags: 1 = complex128 (f64 pairs),
2 = u8, the only dtypes the program writes; rank 0 holds a 0-d array. Round
trips are bit-exact, shape included; loading validates magic, version, dtype
and payload length. Every fault raises one `TensorFileError` whose message
names the file and the fault, e.g. "run/truth.smrd: truncated header".
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"SMRD"
VERSION = 1

_TAG_TO_DTYPE = {1: np.dtype("<c16"), 2: np.dtype("u1")}
_KIND_TO_TAG = {(dtype.kind, dtype.itemsize): tag for tag, dtype in _TAG_TO_DTYPE.items()}


class TensorFileError(OSError):
    """A tensor file that cannot be read or written; the message starts with its path."""


def atomic_write(path, *parts: str | bytes | np.ndarray) -> None:
    """Write `parts` in order (text is UTF-8 encoded; anything else is a
    bytes-like object, e.g. a contiguous array) to a temp file, then rename
    it over `path`, so a reader never sees a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        for part in parts:
            fh.write(part.encode("utf-8") if isinstance(part, str) else part)
    os.replace(tmp, path)


def save_tensor(path, data: np.ndarray) -> None:
    """Write `data` atomically (temp file + rename) in the container format."""
    data = np.asarray(data)
    tag = _KIND_TO_TAG.get((data.dtype.kind, data.dtype.itemsize))
    if tag is None:
        raise TensorFileError(f"{path}: unsupported dtype {data.dtype}")
    header = MAGIC + struct.pack(f"<III{data.ndim}I", VERSION, tag, data.ndim, *data.shape)
    atomic_write(path, header, np.ascontiguousarray(data.astype(_TAG_TO_DTYPE[tag], copy=False)))


def load_tensor(path) -> np.ndarray:
    """Read a tensor written by :func:`save_tensor`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise TensorFileError(f"{path}: file shorter than the magic bytes")
    if blob[:4] != MAGIC:
        raise TensorFileError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 16:
        raise TensorFileError(f"{path}: truncated header")
    version, tag, rank = struct.unpack("<III", blob[4:16])
    if version != VERSION:
        raise TensorFileError(f"{path}: unsupported version {version}")
    if tag not in _TAG_TO_DTYPE:
        raise TensorFileError(f"{path}: unknown dtype tag {tag}")
    dims_end = 16 + 4 * rank
    if len(blob) < dims_end:
        raise TensorFileError(f"{path}: truncated dims")
    dims = struct.unpack(f"<{rank}I", blob[16:dims_end])
    dtype = _TAG_TO_DTYPE[tag]
    expected = math.prod(dims) * dtype.itemsize  # Python ints: no wraparound
    payload = memoryview(blob)[dims_end:]
    if len(payload) < expected:
        raise TensorFileError(
            f"{path}: truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    if len(payload) > expected:
        raise TensorFileError(f"{path}: trailing bytes: expected {expected}, got {len(payload)}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
