"""Dense tensor values.

A DenseTensor is a row-major float64 array with explicit dims. The command
line's --output writes its array as a .npy file.
"""

from __future__ import annotations

import math

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
