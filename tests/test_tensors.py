import numpy as np
import pytest

from tendist import DenseTensor
from tendist.errors import ConfigError, ExtentMismatch


def test_zeros_and_shape():
    t = DenseTensor((2, 3))
    assert t.dims == (2, 3)
    assert t.volume == 6
    assert t.data.shape == (2, 3)
    assert float(t.data.sum()) == 0.0


def test_scalar_tensor():
    t = DenseTensor(())
    assert t.dims == ()
    assert t.volume == 1
    t[()] = 2.5
    assert t[()] == 2.5


def test_rejects_nonpositive_extent():
    with pytest.raises(ExtentMismatch):
        DenseTensor((2, 0))
    with pytest.raises(ExtentMismatch):
        DenseTensor((-1,))


def test_data_of_another_size_is_an_extent_mismatch():
    with pytest.raises(ExtentMismatch, match=r"data holds 3 elements, dims \(2,\) need 2"):
        DenseTensor((2,), [1, 2, 3])
    with pytest.raises(ExtentMismatch, match=r"data holds 4 elements, dims \(\) need 1"):
        DenseTensor((), np.zeros((2, 2)))
    # same element count, other shape: reshaped row-major as before
    assert DenseTensor((3, 2), np.arange(6).reshape(2, 3)).data.tolist() == [
        [0, 1], [2, 3], [4, 5]]


def test_an_allocation_that_fails_is_a_config_error():
    # 71 PiB fails at allocation on any host; 10**20 elements is past
    # numpy's size limit, which it refuses before allocating
    with pytest.raises(ConfigError, match=r"80,000,000,000,000,000 bytes .* dims "
                                          r"\(100000000, 100000000\)"):
        DenseTensor((10**8, 10**8))
    with pytest.raises(ConfigError, match=r"dims \(10000000000, 10000000000\)"):
        DenseTensor((10**10, 10**10))


def test_indexing_and_copy():
    t = DenseTensor((2, 2), [[1, 2], [3, 4]])
    assert t[1, 0] == 3.0
    c = t.copy()
    c[1, 0] = 9.0
    assert t[1, 0] == 3.0
    assert c[1, 0] == 9.0
    assert t == DenseTensor((2, 2), [[1, 2], [3, 4]])
    assert t != c
