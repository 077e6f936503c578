import struct
import tracemalloc

import numpy as np
import pytest

from smrd.tensorfile import MAGIC, TensorFileError, load_tensor, save_tensor


def raises_naming(path, fault, call, *args):
    """`call(*args)` raises a TensorFileError reading exactly "<path>: <fault>"."""
    with pytest.raises(TensorFileError) as info:
        call(*args)
    assert str(info.value) == f"{path}: {fault}"


def test_round_trip_complex128(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "t.smrd"
    for data in (rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5)),
                 np.array(1 + 2j)):
        save_tensor(path, data)
        back = load_tensor(path)
        assert back.dtype == np.complex128
        assert back.shape == data.shape
        assert np.array_equal(back, data)


def test_round_trip_u8_mask(tmp_path):
    data = (np.arange(64).reshape(8, 8) % 3 == 0).astype(np.uint8)
    path = tmp_path / "m.smrd"
    save_tensor(path, data)
    assert np.array_equal(load_tensor(path), data)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.smrd"
    path.write_bytes(b"XXXX" + bytes(32))
    raises_naming(path, "bad magic b'XXXX'", load_tensor, path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.smrd"
    save_tensor(path, np.zeros((4, 4), dtype=np.complex128))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    raises_naming(path, "truncated payload: expected 256 bytes, got 248", load_tensor, path)


def test_overflowing_dims_are_a_truncated_payload(tmp_path):
    # 65536**4 elements wrap to 0 in int64; the size must not wrap
    path = tmp_path / "t.smrd"
    path.write_bytes(MAGIC + struct.pack("<7I", 1, 1, 4, *(65536,) * 4))
    fault = f"truncated payload: expected {16 * 65536**4} bytes, got 0"
    raises_naming(path, fault, load_tensor, path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.smrd"
    save_tensor(path, np.zeros((2, 2), dtype=np.uint8))
    path.write_bytes(path.read_bytes() + b"\x00")
    raises_naming(path, "trailing bytes: expected 4, got 5", load_tensor, path)


def test_unknown_dtype_tag(tmp_path):
    path = tmp_path / "t.smrd"
    save_tensor(path, np.zeros(3, dtype=np.uint8))
    blob = bytearray(path.read_bytes())
    for tag in (99, 0):  # 0 was complex64's
        blob[8] = tag  # dtype tag field
        path.write_bytes(bytes(blob))
        raises_naming(path, f"unknown dtype tag {tag}", load_tensor, path)


# header faults load_tensor rejects before reading a payload: (blob, fault after the path)
MALFORMED = {
    "shorter-than-magic": (b"SM", "file shorter than the magic bytes"),
    "truncated-header": (MAGIC + struct.pack("<2I", 1, 1), "truncated header"),
    "unsupported-version": (MAGIC + struct.pack("<4I", 2, 1, 1, 1) + bytes(16),
                            "unsupported version 2"),
    "truncated-dims": (MAGIC + struct.pack("<4I", 1, 1, 3, 4), "truncated dims"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_header_rejected(tmp_path, name):
    blob, fault = MALFORMED[name]
    path = tmp_path / "t.smrd"
    path.write_bytes(blob)
    raises_naming(path, fault, load_tensor, path)


def test_unsupported_save_dtype(tmp_path):
    path = tmp_path / "t.smrd"
    for dtype in ("float32", "complex64"):
        data = np.zeros(3, dtype=dtype)
        raises_naming(path, f"unsupported dtype {dtype}", save_tensor, path, data)
        assert not path.exists()


def test_load_copies_its_payload_once(tmp_path):
    # the file's bytes plus the returned array: no third copy of the payload
    path = tmp_path / "t.smrd"
    save_tensor(path, np.ones((4, 128, 128), dtype=np.complex128))
    tracemalloc.start()
    try:
        back = load_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * back.nbytes


def test_save_writes_the_array_without_copying_it(tmp_path):
    data = np.ones((4, 128, 128), dtype=np.complex128)
    tracemalloc.start()
    try:
        save_tensor(tmp_path / "t.smrd", data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * data.nbytes


def test_header_layout(tmp_path):
    path = tmp_path / "t.smrd"
    save_tensor(path, np.zeros((2, 3), dtype=np.uint8))
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert int.from_bytes(blob[4:8], "little") == 1   # version
    assert int.from_bytes(blob[8:12], "little") == 2  # u8 tag
    assert int.from_bytes(blob[12:16], "little") == 2  # rank
    assert int.from_bytes(blob[16:20], "little") == 2
    assert int.from_bytes(blob[20:24], "little") == 3
    assert len(blob) == 24 + 6
