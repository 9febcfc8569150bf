import itertools

import pytest

from tendist import (
    HyperRect,
    TensorDistribution,
    block_range,
    grid,
    lower_placement,
    make_machine,
    parse_distribution,
    pretty,
    summa_hier,
)
from tendist.cin import interpret
from tendist.distribution import full_rect, subtract_rects
from tendist.errors import (
    ConfigError,
    DuplicateName,
    FixedOutOfRange,
    OutOfBounds,
    RankMismatch,
    UnboundMachineName,
)
from tendist.ir import TensorVar


def points(rect):
    return set(itertools.product(*[range(a, b) for a, b in zip(rect.lo, rect.hi)]))


# hyper-rectangles

def test_rect_basics():
    r = HyperRect((0, 2), (2, 5))
    assert r.volume == 6
    assert not r.is_empty
    assert str(r) == "[0,2)x[2,5)"
    assert HyperRect((1, 1), (1, 4)).is_empty
    assert full_rect((3, 4)) == HyperRect((0, 0), (3, 4))
    assert str(HyperRect((), ())) == "[scalar]"
    assert HyperRect((), ()).volume == 1
    assert not HyperRect((), ()).is_empty


def test_rect_intersect_contains():
    a = HyperRect((0, 0), (4, 4))
    b = HyperRect((2, 1), (6, 3))
    assert a.intersect(b) == HyperRect((2, 1), (4, 3))
    assert a.intersect(HyperRect((4, 0), (5, 4))) is None
    assert a.contains(b) is False
    assert a.contains(HyperRect((1, 1), (3, 3)))
    assert a.contains(a)


def test_rect_minus_is_exact_partition():
    a = HyperRect((0, 0), (4, 4))
    b = HyperRect((1, 1), (3, 3))
    parts = a.minus(b)
    got = set()
    for p in parts:
        ps = points(p)
        assert not got & ps, "minus pieces overlap"
        got |= ps
    assert got == points(a) - points(b)
    # no overlap: subtracting a disjoint rect returns self
    assert a.minus(HyperRect((9, 9), (10, 10))) == [a]
    # full cover: nothing remains
    assert a.minus(a) == []


def test_subtract_rects_point_oracle():
    base = [HyperRect((0, 0), (4, 4))]
    covers = [HyperRect((0, 0), (2, 2)), HyperRect((2, 2), (4, 4)),
              HyperRect((1, 1), (3, 3))]
    out = subtract_rects(base, covers)
    want = points(base[0])
    for c in covers:
        want -= points(c)
    got = set()
    for r in out:
        ps = points(r)
        assert not got & ps
        got |= ps
    assert got == want


def test_block_range_partitions_exhaustively():
    for extent in range(1, 9):
        for parts in range(1, 9):
            covered = []
            for idx in range(parts):
                lo, hi = block_range(extent, parts, idx)
                assert 0 <= lo <= hi <= extent
                if idx > 0:
                    assert lo == block_range(extent, parts, idx - 1)[1]
                covered.extend(range(lo, hi))
            assert covered == list(range(extent))


# single-level distributions

def test_row_distribution():
    d = TensorDistribution((4, 4), grid(2), [(("x", "y"), ("x",))])
    assert list(d.colors()) == [(0,), (1,)]
    assert d.piece_bounds((0,)) == HyperRect((0, 0), (2, 4))
    assert d.piece_bounds((1,)) == HyperRect((2, 0), (4, 4))
    assert d.color_of((1, 3)) == (0,)
    assert d.color_of((2, 0)) == (1,)
    assert d.processors_of((1,)) == ((1,),)
    assert d.home_of((1,)) == (1,)
    assert not d.replicated
    assert d.describe() == "xy -> x"


def test_block_block_distribution():
    d = TensorDistribution((4, 6), grid(2, 2), [(("x", "y"), ("x", "y"))])
    assert d.piece_bounds((0, 1)) == HyperRect((0, 3), (2, 6))
    assert d.color_of((3, 2)) == (1, 0)
    assert d.processors_of((1, 0)) == ((1, 0),)
    res = d.residency()
    assert res[(0, 1)] == [HyperRect((0, 3), (2, 6))]


def test_replicated_distribution():
    d = TensorDistribution((4, 4), grid(2, 2), [(("x", "y"), ("x", "*"))])
    assert d.replicated
    # each row piece lives on every column processor
    assert d.processors_of((0,)) == ((0, 0), (0, 1))
    assert d.home_of((0,)) == (0, 0)
    res = d.residency()
    assert res[(1, 0)] == [HyperRect((2, 0), (4, 4))]
    assert res[(1, 1)] == [HyperRect((2, 0), (4, 4))]


def test_fixed_coordinate_distribution():
    d = TensorDistribution((4, 4), grid(2, 2), [(("x", "y"), ("x", 0))])
    assert d.processors_of((0,)) == ((0, 0),)
    assert d.processors_of((1,)) == ((1, 0),)
    res = d.residency()
    assert res[(0, 1)] == []
    assert res[(1, 1)] == []


def test_ragged_blocks_clip():
    d = TensorDistribution((5,), grid(2), [(("x",), ("x",))])
    assert d.piece_bounds((0,)) == HyperRect((0,), (3,))
    assert d.piece_bounds((1,)) == HyperRect((3,), (5,))
    # more parts than elements: trailing pieces are empty
    d = TensorDistribution((2,), grid(3), [(("x",), ("x",))])
    assert d.piece_bounds((2,)).is_empty
    assert d.residency()[(2,)] == []


def test_scalar_distribution():
    d = TensorDistribution((), grid(2), [((), (0,))])
    assert list(d.colors()) == [()]
    assert d.piece_bounds(()) == HyperRect((), ())
    assert d.processors_of(()) == ((0,),)
    assert d.residency()[(1,)] == []


# the coloring/expansion composition law, exhaustively on small shapes

def _dim_maps(tensor_names, machine_dims):
    """All machine-side tuples using each tensor name at most once."""
    options = list(tensor_names) + ["*", 0]
    for combo in itertools.product(options, repeat=machine_dims):
        named = [v for v in combo if isinstance(v, str) and v != "*"]
        if len(named) != len(set(named)):
            continue
        yield combo


def test_composition_law_exhaustive():
    tensors = [(4,), (5,), (2, 3), (4, 4)]
    machines = [grid(2), grid(3), grid(2, 2)]
    names = {1: ("x",), 2: ("x", "y")}
    checked = 0
    for dims in tensors:
        x = names[len(dims)]
        for m in machines:
            for y in _dim_maps(x, len(m.flat_dims)):
                d = TensorDistribution(dims, m, [(x, y)])
                res = d.residency()
                for pt in itertools.product(*[range(e) for e in dims]):
                    color = d.color_of(pt)
                    piece = d.piece_bounds(color)
                    assert pt in points(piece)
                    holders = set(d.processors_of(color))
                    for p in m.enumerate():
                        holds = any(pt in points(r) for r in res[p])
                        assert holds == (p in holders)
                checked += 1
    assert checked > 20


def test_residency_volume_counts_replicas():
    d = TensorDistribution((4, 4), grid(2, 2), [(("x", "y"), ("x", "*"))])
    total = sum(r.volume for rects in d.residency().values() for r in rects)
    assert total == 16 * 2  # one replica per column processor


# hierarchical distributions

def test_two_level_distribution():
    m = make_machine([(2, 2), (2,)])
    d = TensorDistribution((8, 8), m,
                           [(("x", "y"), ("x", "y")), (("x", "y"), ("x",))])
    # level 1 blocks 4x4, level 2 re-blocks rows in 2s
    assert d.piece_bounds((0, 0, 0)) == HyperRect((0, 0), (2, 4))
    assert d.piece_bounds((0, 0, 1)) == HyperRect((2, 0), (4, 4))
    assert d.piece_bounds((1, 1, 1)) == HyperRect((6, 4), (8, 8))
    assert d.color_of((5, 1)) == (1, 0, 0)
    assert d.describe() == "xy -> xy ; xy -> x"


def test_hierarchical_color_bounds_consistency():
    cases = [
        ((8, 8), make_machine([(2, 2), (2,)]),
         [(("x", "y"), ("x", "y")), (("x", "y"), ("x",))]),
        ((5, 7), make_machine([(2, 2), (2,)]),
         [(("x", "y"), ("x", "y")), (("x", "y"), ("y",))]),
        ((6,), make_machine([(2,), (3,)]),
         [(("x",), ("x",)), (("x",), ("x",))]),
        ((7,), make_machine([(2,), (2,)]),
         [(("x",), ("x",)), (("x",), ("x",))]),
    ]
    for dims, m, levels in cases:
        d = TensorDistribution(dims, m, levels)
        for color in d.colors():
            piece = d.piece_bounds(color)
            for pt in points(piece):
                assert d.color_of(pt) == color
        for pt in itertools.product(*[range(e) for e in dims]):
            assert pt in points(d.piece_bounds(d.color_of(pt)))


# validation

def test_level_count_must_match_machine():
    with pytest.raises(RankMismatch):
        TensorDistribution((4,), make_machine([(2,), (2,)]), [(("x",), ("x",))])


def test_name_count_must_match():
    with pytest.raises(RankMismatch):
        TensorDistribution((4, 4), grid(2), [(("x",), ("x",))])
    with pytest.raises(RankMismatch):
        TensorDistribution((4,), grid(2, 2), [(("x",), ("x",))])


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateName):
        TensorDistribution((4, 4), grid(2), [(("x", "x"), ("x",))])
    with pytest.raises(DuplicateName):
        TensorDistribution((4, 4), grid(2, 2), [(("x", "y"), ("x", "x"))])


def test_unbound_machine_name_rejected():
    with pytest.raises(UnboundMachineName):
        TensorDistribution((4, 4), grid(2), [(("x", "y"), ("q",))])


def test_fixed_out_of_range_rejected():
    with pytest.raises(FixedOutOfRange):
        TensorDistribution((4, 4), grid(2), [(("x", "y"), (5,))])


def test_color_of_bounds_checked():
    d = TensorDistribution((4, 4), grid(2), [(("x", "y"), ("x",))])
    with pytest.raises(OutOfBounds):
        d.color_of((4, 0))
    with pytest.raises(RankMismatch):
        d.color_of((1,))


# placement lowering

def test_lower_placement_golden():
    T = TensorVar("T", (4, 3))
    d = TensorDistribution((4, 3), grid(2), [(("x", "y"), ("x",))])
    assert pretty(lower_placement(T, d)) == (
        "forall(xo) forall(xi) forall(y) T(x, y) "
        "s.t. divide(x, xo, xi, 2), distribute(xo), communicate(T, xo)")


def test_lower_placement_two_level_golden():
    # a dimension divided at two levels names its loops after the divided
    # variable: x into xo and xi, then xi into xio and xii
    T = TensorVar("T", (8, 4))
    d = TensorDistribution((8, 4), make_machine([(2, 2), (2,)]),
                           [(("x", "y"), ("x", "y")), (("x", "y"), ("x",))])
    assert pretty(lower_placement(T, d)) == (
        "forall(xo) forall(yo) forall(xio) forall(xii) forall(yi) T(x, y) "
        "s.t. divide(x, xo, xi, 2), divide(y, yo, yi, 2), divide(xi, xio, xii, 2), "
        "distribute(xo), distribute(yo), distribute(xio), communicate(T, xio)")
    bundle = summa_hier()
    for name, dist in bundle.distributions.items():
        lower_placement(bundle.statement.tensors()[name], dist)


def test_lower_placement_fixed_and_broadcast():
    T = TensorVar("T", (4,))
    d = TensorDistribution((4,), grid(2, 2), [(("x",), ("x", "*"))])
    text = pretty(lower_placement(T, d))
    assert "forall(xo) forall(m1) forall(xi)" in text
    assert "communicate(T, m1)" in text
    d2 = TensorDistribution((4,), grid(2, 2), [(("x",), ("x", 1))])
    text2 = pretty(lower_placement(TensorVar("U", (4,)), d2))
    assert "forall(m1=1)" in text2


def test_lower_placement_interprets_as_noop():
    T = TensorVar("T", (4, 3))
    d = TensorDistribution((4, 3), grid(2), [(("x", "y"), ("x",))])
    out = interpret(lower_placement(T, d), {})
    assert out == {}


def test_lower_placement_dims_must_match():
    T = TensorVar("T", (4, 4))
    d = TensorDistribution((4, 3), grid(2), [(("x", "y"), ("x",))])
    with pytest.raises(RankMismatch):
        lower_placement(T, d)


# text form

def test_parse_distribution_forms():
    assert parse_distribution("A: xy -> xy*") == ("A", [(("x", "y"), ("x", "y", "*"))])
    assert parse_distribution("B: xy -> x0") == ("B", [(("x", "y"), ("x", 0))])
    name, levels = parse_distribution("xy -> xy ; xy -> x")
    assert name == ""
    assert levels == [(("x", "y"), ("x", "y")), (("x", "y"), ("x",))]


def test_parse_distribution_binds():
    name, levels = parse_distribution("A: xy -> y*")
    d = TensorDistribution((4, 6), grid(3, 2), [*levels])
    assert d.describe() == "xy -> y*"
    assert d.piece_bounds((1,)) == HyperRect((0, 2), (4, 4))


def test_parse_distribution_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_distribution("A: xy")
    with pytest.raises(ConfigError):
        parse_distribution("A: x+y -> xy")
