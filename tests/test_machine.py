import pytest

from tendist import grid, make_machine, parse_machine
from tendist.errors import ConfigError, EmptyGrid
from tendist.machine import MAX_PROCESSORS


def test_flat_grid():
    m = grid(2, 3)
    assert m.flat_dims == (2, 3)
    assert m.num_levels == 1
    assert len(m.enumerate()) == 6
    assert str(m) == "2x3"


def test_enumerate_is_lexicographic():
    m = grid(2, 2)
    assert m.enumerate() == ((0, 0), (0, 1), (1, 0), (1, 1))
    m3 = grid(2, 1, 2)
    assert m3.enumerate() == ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1))
    # stats() sorts per-edge rows by coordinate tuples on this guarantee
    for m in (grid(3), grid(2, 4), make_machine([(2, 2), (3,)])):
        assert list(m.enumerate()) == sorted(m.enumerate())


def test_hierarchical_machine():
    m = make_machine([(2, 2), (3,)])
    assert m.num_levels == 2
    assert m.flat_dims == (2, 2, 3)
    assert len(m.enumerate()) == 12
    assert str(m) == "2x2/3"


def test_empty_machine_rejected():
    with pytest.raises(EmptyGrid):
        grid()
    with pytest.raises(EmptyGrid):
        grid(2, 0)
    with pytest.raises(EmptyGrid):
        make_machine([])


def test_parse_machine():
    assert parse_machine("3x3") == grid(3, 3)
    assert parse_machine("2x2/4") == make_machine([(2, 2), (4,)])
    assert parse_machine("5") == grid(5)
    with pytest.raises(ConfigError):
        parse_machine("2xq")


def test_machine_too_large_to_enumerate_rejected():
    assert len(grid(1024, 1024).enumerate()) == MAX_PROCESSORS == 1048576
    with pytest.raises(ConfigError, match="1,048,577 processors"):
        grid(1048577)
    with pytest.raises(ConfigError, match="10,000,000,000 processors"):
        parse_machine("100000x100000")
    with pytest.raises(ConfigError, match="2,097,152 processors"):
        make_machine([(1024, 1024), (2,)])
