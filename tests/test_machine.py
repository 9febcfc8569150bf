import pytest

from tendist import grid, make_machine, parse_machine
from tendist.errors import ConfigError, EmptyGrid


def test_flat_grid():
    m = grid(2, 3)
    assert m.flat_dims == (2, 3)
    assert m.num_levels == 1
    assert m.size == 6
    assert str(m) == "2x3"


def test_enumerate_is_lexicographic():
    m = grid(2, 2)
    assert m.enumerate() == ((0, 0), (0, 1), (1, 0), (1, 1))
    m3 = grid(2, 1, 2)
    assert m3.enumerate() == ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1))


def test_rank_matches_enumerate_position():
    for m in (grid(3), grid(2, 4), make_machine([(2, 2), (3,)])):
        for want, coord in enumerate(m.enumerate()):
            assert m.rank_of(coord) == want


def test_hierarchical_machine():
    m = make_machine([(2, 2), (3,)])
    assert m.num_levels == 2
    assert m.flat_dims == (2, 2, 3)
    assert m.size == 12
    assert str(m) == "2x2/3"
    assert m.level_slices() == [(0, 2), (2, 3)]


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
