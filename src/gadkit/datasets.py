"""Raw image-file ingestion for use as unlabeled sample points.

Two binary layouts are supported bit-exactly: the IDX format (big-endian
magic 0x00 0x00, type byte 0x08 for unsigned bytes, a dimension-count byte,
then 32-bit big-endian dimension sizes and the payload) and the CIFAR-10
binary format (3073-byte records of one label byte plus 3072 pixel bytes).
Labels are never read into the analysis path; the decomposition is label
independent by construction.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInputError

SCALE_POLICIES = ("raw_bytes", "unit_interval")

_CIFAR_RECORD_BYTES = 3073  # CIFAR-10: 1 label byte + 32*32*3 pixels


def _scale(raw: np.ndarray, scale_policy: str) -> np.ndarray:
    if scale_policy not in SCALE_POLICIES:
        raise InvalidInputError(f"unknown scale policy {scale_policy!r}")
    values = raw.astype(float)
    if scale_policy == "unit_interval":
        values /= 255.0
    return values


def load_idx(path, scale_policy: str = "unit_interval") -> np.ndarray:
    """Load an IDX file of unsigned bytes as flattened row-major vectors, one per row."""
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise FormatError(f"file too short for an IDX header ({len(data)} bytes)")
    if data[0] != 0 or data[1] != 0:
        raise FormatError(f"bad IDX magic bytes 0x{data[0]:02x} 0x{data[1]:02x}")
    if data[2] != 0x08:
        raise FormatError(f"unsupported IDX type byte 0x{data[2]:02x} (only unsigned byte)")
    ndim = data[3]
    if ndim < 1:
        raise FormatError("IDX dimension count must be at least 1")
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise FormatError(f"truncated IDX dimension table at byte offset {len(data)}")
    dims = [int.from_bytes(data[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim)]
    count = dims[0]
    item_dim = 1
    for d in dims[1:]:
        item_dim *= d
    expected = header_end + count * item_dim
    if len(data) != expected:
        raise FormatError(
            f"dimension product implies {expected} bytes, file has {len(data)} "
            f"(payload ends at byte offset {len(data)})"
        )
    raw = np.frombuffer(data, dtype=np.uint8, count=count * item_dim, offset=header_end)
    return _scale(raw.reshape(count, item_dim), scale_policy)


def load_cifar_bin(path, scale_policy: str = "unit_interval") -> np.ndarray:
    """Load CIFAR-10 binary records as 3072-dim vectors, one per row, labels discarded."""
    data = Path(path).read_bytes()
    if len(data) % _CIFAR_RECORD_BYTES != 0:
        raise FormatError(
            f"file length {len(data)} is not a multiple of the {_CIFAR_RECORD_BYTES}-byte record size"
        )
    count = len(data) // _CIFAR_RECORD_BYTES
    records = np.frombuffer(data, dtype=np.uint8).reshape(count, _CIFAR_RECORD_BYTES)
    return _scale(records[:, 1:], scale_policy)
