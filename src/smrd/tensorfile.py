"""Minimal binary tensor container.

Layout (all integers little-endian u32):

    magic "SMRD" | version | dtype tag | rank | dims[rank] | payload

Payload is row-major little-endian. Dtype tags: 0 = complex64 (f32 pairs),
1 = complex128 (f64 pairs), 2 = u8. Round trips are bit-exact; loading
validates magic, version, dtype and payload length with distinct errors.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"SMRD"
VERSION = 1

_TAG_TO_DTYPE = {0: np.dtype("<c8"), 1: np.dtype("<c16"), 2: np.dtype("u1")}
_KIND_TO_TAG = {("c", 8): 0, ("c", 16): 1, ("u", 1): 2}


class TensorFileError(Exception):
    """Base error for tensor container problems."""


class BadMagicError(TensorFileError):
    pass


class TruncatedPayloadError(TensorFileError):
    pass


class UnknownDtypeError(TensorFileError):
    pass


def atomic_write(path, data: str | bytes) -> None:
    """Write `data` (text is UTF-8 encoded) to a temp file, then rename it
    over `path`, so a reader never sees a partial file."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_tensor(path, data: np.ndarray) -> None:
    """Write `data` atomically (temp file + rename) in the container format."""
    data = np.asarray(data)
    tag = _KIND_TO_TAG.get((data.dtype.kind, data.dtype.itemsize))
    if tag is None:
        raise UnknownDtypeError(f"unsupported dtype {data.dtype}")
    dims = data.shape if data.ndim else (1,)
    header = MAGIC + struct.pack("<III", VERSION, tag, len(dims))
    header += struct.pack(f"<{len(dims)}I", *dims)
    payload = np.ascontiguousarray(data.astype(_TAG_TO_DTYPE[tag], copy=False)).tobytes()
    atomic_write(path, header + payload)


def load_tensor(path) -> np.ndarray:
    """Read a tensor written by :func:`save_tensor`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise TruncatedPayloadError("file shorter than the magic bytes")
    if blob[:4] != MAGIC:
        raise BadMagicError(f"bad magic {blob[:4]!r}")
    if len(blob) < 16:
        raise TruncatedPayloadError("truncated header")
    version, tag, rank = struct.unpack("<III", blob[4:16])
    if version != VERSION:
        raise TensorFileError(f"unsupported version {version}")
    if tag not in _TAG_TO_DTYPE:
        raise UnknownDtypeError(f"unknown dtype tag {tag}")
    dims_end = 16 + 4 * rank
    if len(blob) < dims_end:
        raise TruncatedPayloadError("truncated dims")
    dims = struct.unpack(f"<{rank}I", blob[16:dims_end])
    dtype = _TAG_TO_DTYPE[tag]
    expected = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize
    payload = blob[dims_end:]
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    if len(payload) > expected:
        raise TensorFileError(f"trailing bytes: expected {expected}, got {len(payload)}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
