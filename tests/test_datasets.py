"""Binary dataset loaders: IDX and CIFAR-10 layouts, bit-exact."""

import numpy as np
import pytest

from gadkit import FormatError, load_cifar_bin, load_idx


def idx_bytes(items, shape=(2, 2), payload=None):
    """Hand-assemble an IDX file: magic, dims, then the raw bytes."""
    dims = (items, *shape)
    header = bytes([0, 0, 0x08, len(dims)])
    for d in dims:
        header += d.to_bytes(4, "big")
    if payload is None:
        size = items
        for d in shape:
            size *= d
        payload = bytes(range(256))[:size] if size <= 256 else bytes(size)
    return header + payload


class TestLoadIdx:
    def test_two_image_fixture(self, tmp_path):
        payload = bytes([0, 255, 128, 64, 1, 2, 3, 4])
        path = tmp_path / "two.idx"
        path.write_bytes(idx_bytes(2, (2, 2), payload))
        cloud = load_idx(path)
        assert cloud.points.shape == (2, 4)
        assert cloud.dim == 4
        np.testing.assert_allclose(cloud.points[0], [0.0, 1.0, 128 / 255, 64 / 255])
        np.testing.assert_allclose(cloud.points[1] * 255, [1, 2, 3, 4])

    def test_raw_bytes_policy(self, tmp_path):
        path = tmp_path / "raw.idx"
        path.write_bytes(idx_bytes(1, (2, 2), bytes([0, 255, 7, 9])))
        cloud = load_idx(path, scale_policy="raw_bytes")
        np.testing.assert_array_equal(cloud.points[0], [0, 255, 7, 9])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(3, 6), dtype=np.uint8)
        path = tmp_path / "rt.idx"
        path.write_bytes(idx_bytes(3, (6,), pixels.tobytes()))
        cloud = load_idx(path, scale_policy="raw_bytes")
        np.testing.assert_array_equal(cloud.points, pixels.astype(float))

    def test_max_items_zero(self, tmp_path):
        path = tmp_path / "none.idx"
        path.write_bytes(idx_bytes(2, (2, 2), bytes(8)))
        cloud = load_idx(path, max_items=0)
        assert cloud.points.shape == (0, 4)

    def test_max_items_limits(self, tmp_path):
        path = tmp_path / "some.idx"
        path.write_bytes(idx_bytes(3, (2,), bytes(6)))
        assert load_idx(path, max_items=2).points.shape == (2, 2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(bytes([1, 0, 8, 1]) + (4).to_bytes(4, "big") + bytes(4))
        with pytest.raises(FormatError):
            load_idx(path)

    def test_wrong_type_byte(self, tmp_path):
        path = tmp_path / "type.idx"
        path.write_bytes(bytes([0, 0, 0x0D, 1]) + (4).to_bytes(4, "big") + bytes(16))
        with pytest.raises(FormatError):
            load_idx(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.idx"
        path.write_bytes(idx_bytes(2, (2, 2), bytes(5)))  # needs 8 payload bytes
        with pytest.raises(FormatError) as info:
            load_idx(path)
        assert "byte offset" in str(info.value)

    def test_oversized_payload_rejected(self, tmp_path):
        path = tmp_path / "extra.idx"
        path.write_bytes(idx_bytes(1, (2,), bytes(5)))
        with pytest.raises(FormatError):
            load_idx(path)


class TestLoadCifarBin:
    def record(self, label, fill):
        return bytes([label]) + bytes([fill]) * 3072

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(self.record(7, 255))
        cloud = load_cifar_bin(path)
        assert cloud.points.shape == (1, 3072)
        assert cloud.dim == 3072
        np.testing.assert_array_equal(cloud.points[0], np.ones(3072))

    def test_label_byte_is_dropped(self, tmp_path):
        path = tmp_path / "lab.bin"
        path.write_bytes(self.record(255, 0))
        cloud = load_cifar_bin(path, scale_policy="raw_bytes")
        assert np.all(cloud.points == 0)

    def test_max_items(self, tmp_path):
        path = tmp_path / "three.bin"
        path.write_bytes(self.record(0, 1) + self.record(1, 2) + self.record(2, 3))
        cloud = load_cifar_bin(path, max_items=1, scale_policy="raw_bytes")
        assert cloud.points.shape == (1, 3072)
        assert np.all(cloud.points == 1)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        cloud = load_cifar_bin(path)
        assert cloud.points.shape == (0, 3072)

    def test_partial_record_rejected(self, tmp_path):
        path = tmp_path / "part.bin"
        path.write_bytes(self.record(0, 1)[:-1])
        with pytest.raises(FormatError):
            load_cifar_bin(path)
