import struct

import numpy as np
import pytest

from tenrec import TensorFormatError, load_tensor, save_tensor


def test_roundtrip_bitwise(tmp_path):
    t = np.random.default_rng(0).standard_normal((4, 5, 3, 2))
    path = tmp_path / "t.tns"
    save_tensor(path, t)
    back = load_tensor(path)
    assert back.shape == t.shape
    assert np.array_equal(back, t)


def test_roundtrip_one_way(tmp_path):
    t = np.array([1.5, -2.25, 3.0])
    path = tmp_path / "v.tns"
    save_tensor(path, t)
    assert np.array_equal(load_tensor(path), t)


def test_column_major_payload(tmp_path):
    t = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "m.tns"
    save_tensor(path, t)
    raw = path.read_bytes()
    payload = np.frombuffer(raw, dtype="<f8", offset=6 + 16)
    assert np.array_equal(payload, t.flatten(order="F"))


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(TensorFormatError) as err:
        load_tensor(path)
    assert err.value.offset == 0


def test_wrong_version(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"TNS1" + bytes([9, 1]) + struct.pack("<Q", 1) + bytes(8))
    with pytest.raises(TensorFormatError) as err:
        load_tensor(path)
    assert err.value.offset == 4


def test_zero_modes_rejected(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"TNS1" + bytes([1, 0]))
    with pytest.raises(TensorFormatError) as err:
        load_tensor(path)
    assert err.value.offset == 5


def test_zero_extent_rejected(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"TNS1" + bytes([1, 2]) + struct.pack("<QQ", 3, 0))
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_extent_overflow_rejected(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"TNS1" + bytes([1, 3]) + struct.pack("<QQQ", 1 << 30, 1 << 30, 4))
    with pytest.raises(TensorFormatError) as err:
        load_tensor(path)
    assert "overflow" in str(err.value)


def test_truncated_payload(tmp_path):
    path = tmp_path / "bad.tns"
    save_tensor(path, np.ones((3, 3)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(TensorFormatError) as err:
        load_tensor(path)
    assert "payload" in str(err.value)


def test_truncated_header(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"TNS1" + bytes([1, 2]) + struct.pack("<Q", 3))
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_cut_off_before_the_mode_count(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"TNS1" + bytes([1]))
    with pytest.raises(TensorFormatError, match="missing mode count") as err:
        load_tensor(path)
    assert err.value.offset == 5


def test_zero_way_tensor_is_not_saved(tmp_path):
    path = tmp_path / "scalar.tns"
    with pytest.raises(ValueError, match="cannot store a 0-way tensor"):
        save_tensor(path, 3.0)
    assert not path.exists()
