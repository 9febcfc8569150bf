"""Dense tensor values and their on-disk form.

A DenseTensor is a row-major float64 array with explicit dims. The file
format is a little-endian header (order, then each extent, unsigned 64-bit)
followed by the row-major float64 payload.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ConfigError, ExtentMismatch


class DenseTensor:
    """Row-major float64 tensor. Scalars have dims == ()."""

    __slots__ = ("dims", "data")

    def __init__(self, dims, data=None):
        dims = tuple(int(d) for d in dims)
        if any(d <= 0 for d in dims):
            raise ExtentMismatch(f"non-positive extent in {dims}")
        self.dims = dims
        if data is None:
            try:
                self.data = np.zeros(dims, dtype=np.float64)
            except (MemoryError, ValueError):  # ValueError: past numpy's size limit
                raise ConfigError(f"cannot allocate {8 * math.prod(dims):,} bytes for "
                                  f"a float64 tensor of dims {dims}") from None
        else:
            arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
            if arr.size != math.prod(dims):
                raise ExtentMismatch(f"data holds {arr.size} elements, dims {dims} "
                                     f"need {math.prod(dims)}")
            if arr.shape != dims:
                arr = arr.reshape(dims)
            self.data = arr

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def volume(self) -> int:
        v = 1
        for d in self.dims:
            v *= d
        return v

    def copy(self) -> "DenseTensor":
        return DenseTensor(self.dims, self.data.copy())

    def __getitem__(self, coord):
        return float(self.data[coord])

    def __setitem__(self, coord, value):
        self.data[coord] = value

    def __eq__(self, other):
        return (
            isinstance(other, DenseTensor)
            and self.dims == other.dims
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return f"DenseTensor(dims={self.dims})"


_HEADER_WORD = struct.Struct("<Q")


def save_tensor(t: DenseTensor, path) -> None:
    head = _HEADER_WORD.pack(t.order) + b"".join(_HEADER_WORD.pack(d) for d in t.dims)
    with open(path, "wb") as fh:
        fh.write(head + np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_tensor(path) -> DenseTensor:
    with open(path, "rb") as fh:
        raw = fh.read()
    order = _HEADER_WORD.unpack_from(raw)[0] if len(raw) >= 8 else 0
    head = 8 * (1 + order)
    if len(raw) < head:
        raise ExtentMismatch(f"{len(raw)} bytes cannot hold a header of order {order}")
    dims = struct.unpack_from(f"<{order}Q", raw, 8)
    need = 8 * math.prod(dims)
    if len(raw) - head != need:
        raise ExtentMismatch(f"payload holds {len(raw) - head} bytes, dims {dims} need {need}")
    data = np.frombuffer(raw, dtype="<f8", offset=head).astype(np.float64)
    return DenseTensor(dims, data.reshape(dims))
