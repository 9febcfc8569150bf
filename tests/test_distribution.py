import itertools
import random

import numpy as np
import pytest

from tendist import (
    DenseTensor,
    HyperRect,
    RegionStore,
    TensorDistribution,
    bundle_from_config,
    grid,
    lower_placement,
    make_machine,
    parse_distribution,
    pretty,
    summa_hier,
)
from tendist.algorithms import REGISTRY
from tendist.cin import interpret, lower_to_cin
from tendist.distribution import subtract_rects
from tendist.errors import (
    ConfigError,
    DuplicateName,
    FixedOutOfRange,
    OutOfBounds,
    RankMismatch,
    UnboundMachineName,
)
from tendist.ir import TensorVar
from tendist.simulator import _task_rects, lower_to_tasks


def points(rect):
    return set(itertools.product(*[range(a, b) for a, b in zip(rect.lo, rect.hi)]))


def block_range(extent: int, parts: int, index: int) -> tuple:
    """Half-open block `index` of `extent` cut into `parts` ceil-sized blocks."""
    b = -(-extent // parts)
    return (min(index * b, extent), min((index + 1) * b, extent))


def color_of(d, pt) -> tuple:
    """The color of one coordinate: its unit rect meets exactly one piece."""
    (color, _, _), = d.parts(HyperRect(tuple(pt), tuple(c + 1 for c in pt)))
    return color


def colors(d) -> list:
    return [color for color, _, _ in d.pieces]


# hyper-rectangles

def test_rect_basics():
    r = HyperRect((0, 2), (2, 5))
    assert r.volume == 6
    assert not r.is_empty
    assert str(r) == "[0,2)x[2,5)"
    assert HyperRect((1, 1), (1, 4)).is_empty
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
    assert colors(d) == [(0,), (1,)]
    assert d.piece_bounds((0,)) == HyperRect((0, 0), (2, 4))
    assert d.piece_bounds((1,)) == HyperRect((2, 0), (4, 4))
    assert color_of(d, (1, 3)) == (0,)
    assert color_of(d, (2, 0)) == (1,)
    assert d.processors_of((1,)) == ((1,),)
    assert d.processors_of((1,))[0] == (1,)
    assert not d.replicated
    assert d.describe() == "xy -> x"


def test_block_block_distribution():
    d = TensorDistribution((4, 6), grid(2, 2), [(("x", "y"), ("x", "y"))])
    assert d.piece_bounds((0, 1)) == HyperRect((0, 3), (2, 6))
    assert color_of(d, (3, 2)) == (1, 0)
    assert d.processors_of((1, 0)) == ((1, 0),)
    res = d.residency()
    assert res[(0, 1)] == [HyperRect((0, 3), (2, 6))]


def test_replicated_distribution():
    d = TensorDistribution((4, 4), grid(2, 2), [(("x", "y"), ("x", "*"))])
    assert d.replicated
    # each row piece lives on every column processor
    assert d.processors_of((0,)) == ((0, 0), (0, 1))
    assert d.processors_of((0,))[0] == (0, 0)
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
    assert colors(d) == [()]
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
                    color = color_of(d, pt)
                    piece = d.piece_bounds(color)
                    assert pt in points(piece)
                    holders = set(d.processors_of(color))
                    for p in m.enumerate():
                        holds = any(pt in points(r) for r in res[p])
                        assert holds == (p in holders)
                checked += 1
    assert checked > 20


def _cascade(dims, machine, levels):
    """Oracle for the piece table, written without the placement statement:
    per color (lexicographic over the partitioned machine dims), bounds by a
    per-level cascade of block_range calls, each level cutting the previous
    level's nominal block, and holders by each machine dim's role."""
    roles = []  # per flat machine dim: (tensor dim, parts) | fixed int | "*"
    for (x, y), extents in zip(levels, machine.levels):
        for v, ext in zip(y, extents):
            roles.append((x.index(v), ext) if isinstance(v, str) and v != "*" else v)
    parts = [r for r in roles if isinstance(r, tuple)]
    out = []
    for color in itertools.product(*[range(ext) for _, ext in parts]):
        lo, hi, nominal = [0] * len(dims), list(dims), list(dims)
        for c, (j, ext) in zip(color, parts):
            a, b = block_range(nominal[j], ext, c)
            lo[j], hi[j] = min(lo[j] + a, hi[j]), min(lo[j] + b, hi[j])
            nominal[j] = block_range(nominal[j], ext, 0)[1]
        comps = iter(color)
        axes = [(next(comps),) if isinstance(r, tuple)
                else range(dim) if r == "*" else (r,)
                for r, dim in zip(roles, machine.flat_dims)]
        out.append((color, HyperRect(tuple(lo), tuple(hi)),
                    tuple(itertools.product(*axes))))
    return out


_MACHINES = [grid(2), grid(3), grid(2, 2), grid(3, 2), grid(2, 3, 2),
             make_machine([(2, 2), (2,)]), make_machine([(2,), (3,)])]


def _random_levels(rng, m, x):
    """Per machine level, the names x and a random role per machine dim: a
    partition by an unused name, a broadcast or a fixed coordinate."""
    levels = []
    for lvl in m.levels:
        free = list(x)
        y = []
        for ext in lvl:
            roll = rng.random()
            if free and roll < 0.6:
                y.append(free.pop(rng.randrange(len(free))))
            elif roll < 0.8:
                y.append("*")
            else:
                y.append(rng.randrange(ext))
        levels.append((x, tuple(y)))
    return levels


def test_piece_table_matches_block_range_cascade():
    rng = random.Random(11)
    names = "xyz"
    kinds = set()
    for _ in range(120):
        m = rng.choice(_MACHINES)
        order = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 7) for _ in range(order))
        x = tuple(names[:order])
        levels = _random_levels(rng, m, x)
        d = TensorDistribution(dims, m, levels)
        want = _cascade(dims, m, levels)
        assert colors(d) == [color for color, _, _ in want]
        for (color, bounds, holders), (_, want_bounds, want_holders) in zip(d.pieces, want):
            assert holders == want_holders
            if want_bounds.is_empty:
                assert bounds.is_empty
            else:
                assert bounds == want_bounds
        for (x, y), extents in zip(levels, m.levels):
            for v, ext in zip(y, extents):
                if v == "*":
                    kinds.add("bcast")
                elif isinstance(v, int):
                    kinds.add("fixed")
                else:
                    kinds.add("part")
                    if dims[x.index(v)] % ext:
                        kinds.add("ragged")
                    if dims[x.index(v)] < ext:
                        kinds.add("smaller than the grid")
        if m.num_levels > 1:
            kinds.add("two-level")
    assert kinds == {"part", "fixed", "bcast", "ragged", "smaller than the grid",
                     "two-level"}


def test_parts_is_a_filter_of_the_piece_table():
    # parts(rect) lists, in table order, every piece that shares a point with
    # rect, with that share and the piece's holders; no empty piece appears
    rng = random.Random(17)
    kinds = set()
    for _ in range(150):
        m = rng.choice(_MACHINES)
        order = rng.randint(0, 3)
        dims = tuple(rng.randint(1, 7) for _ in range(order))
        levels = _random_levels(rng, m, tuple("xyz"[:order]))
        d = TensorDistribution(dims, m, levels)
        for _ in range(4):
            lo = tuple(rng.randint(0, e) for e in dims)
            rect = HyperRect(lo, tuple(rng.randint(a, e) for a, e in zip(lo, dims)))
            want = [(color, points(rect) & points(bounds), holders)
                    for color, bounds, holders in d.pieces
                    if points(rect) & points(bounds)]
            got = list(d.parts(rect))
            assert [(color, points(part), holders) for color, part, holders in got] == want
            assert all(part.volume == len(points(part)) > 0 for _, part, _ in got)
            assert sum(part.volume for _, part, _ in got) == rect.volume
            kinds.add("empty rect" if rect.is_empty else "rect")
        kinds.update("empty piece" for _, bounds, _ in d.pieces if bounds.is_empty)
        kinds.update("bcast" if v == "*" else "fixed" if isinstance(v, int) else "part"
                     for _, y in levels for v in y)
        kinds.update(["two-level"] if m.num_levels > 1 else [])
        kinds.update(["uneven"] if len({b.volume for _, b, _ in d.pieces}) > 1 else [])
        kinds.update(["0-d"] if not dims else [])
    assert kinds == {"rect", "empty rect", "empty piece", "bcast", "fixed", "part",
                     "two-level", "uneven", "0-d"}


def test_a_non_replicated_piece_has_one_holder():
    # the write-back sends each output part to its piece's first holder; a
    # copy is refused into a replicated output, so this must be its only one
    rng = random.Random(41)
    kinds = set()
    for _ in range(300):
        m = rng.choice(_MACHINES)
        order = rng.randint(0, 3)
        dims = tuple(rng.randint(1, 7) for _ in range(order))
        d = TensorDistribution(dims, m, _random_levels(rng, m, tuple("xyz"[:order])))
        if d.replicated:
            kinds.add("replicated")
            continue
        assert all(len(holders) == 1 for _, _, holders in d.pieces), d.describe()
        kinds.add("two-level" if m.num_levels > 1 else "flat")
        kinds.update(["fixed"] if any(isinstance(v, int) for _, y in d.levels for v in y) else [])
    assert kinds == {"flat", "two-level", "fixed", "replicated"}


def _check_meets(rng, d, lo, hi) -> None:
    """meets(lo, hi) is the HyperRect.intersect filter of the piece table for
    every lane, and a lane's row, given as `among`, leaves the parts of
    random sub-rects of that lane as they are."""
    mask = d.meets(lo, hi)
    lanes = [HyperRect(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())]
    assert mask.shape == (len(lanes), len(d.pieces))
    assert mask.tolist() == [[lane.intersect(b) is not None for _, b, _ in d.pieces]
                             for lane in lanes]
    for lane, row in zip(lanes, mask.tolist()):
        for _ in range(3 if not lane.is_empty else 0):
            a = tuple(rng.randint(x, y) for x, y in zip(lane.lo, lane.hi))
            r = HyperRect(a, tuple(rng.randint(x, y) for x, y in zip(a, lane.hi)))
            assert list(d.parts(r, among=row)) == list(d.parts(r))


def test_meets_is_the_intersect_filter_of_the_piece_table():
    # random lanes, empty ones included, on random distributions
    rng = random.Random(29)
    kinds = set()
    for _ in range(150):
        m = rng.choice(_MACHINES)
        order = rng.randint(0, 3)
        dims = tuple(rng.randint(1, 7) for _ in range(order))
        levels = _random_levels(rng, m, tuple("xyz"[:order]))
        d = TensorDistribution(dims, m, levels)
        tasks = rng.randint(0, 6)
        lo = np.array([[rng.randint(-1, e + 1) for e in dims] for _ in range(tasks)],
                      np.int64).reshape(tasks, order)
        hi = lo + np.array([[rng.randint(-1, e) for e in dims] for _ in range(tasks)],
                           np.int64).reshape(tasks, order)
        _check_meets(rng, d, lo, hi)
        kinds.update("empty lane" if (a >= b).any() else "lane" for a, b in zip(lo, hi))
        kinds.update("bcast" if v == "*" else "fixed" if isinstance(v, int) else "part"
                     for _, y in levels for v in y)
        kinds.update(["two-level"] if m.num_levels > 1 else [])
        kinds.update(["0-d"] if not dims else [])
    assert kinds == {"lane", "empty lane", "bcast", "fixed", "part", "two-level", "0-d"}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_meets_on_every_registry_launch(name):
    # the lanes of each access of each registry bundle's launch, at its
    # default extents and at ragged 7 and 13, where trailing blocks are
    # empty lanes on some grids
    rng = random.Random(name)
    for n in (None, 7, 13):
        bundle = bundle_from_config(name, None, None if n is None else
                                    (n,) * REGISTRY[name].extents)
        store = RegionStore(bundle.machine)
        for tensor_name, d in bundle.distributions.items():
            store.place(tensor_name, DenseTensor(d.tensor_dims), d)
        plan = lower_to_tasks(bundle.schedule.apply(lower_to_cin(bundle.statement)), store)
        for a in [plan.out_access] + [a for a, _ in plan.fetch_plan]:
            _, lo, hi = _task_rects(a, plan.env, plan.defs)
            _check_meets(rng, store[a.tensor.name].dist, lo, hi)


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
    assert color_of(d, (5, 1)) == (1, 0, 0)
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
        for color in colors(d):
            piece = d.piece_bounds(color)
            for pt in points(piece):
                assert color_of(d, pt) == color
        for pt in itertools.product(*[range(e) for e in dims]):
            assert pt in points(d.piece_bounds(color_of(d, pt)))


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
    # names that collide with the placement's loop names: x divides into
    # xo and xi, and a broadcast machine dim 1 gets the loop m1
    with pytest.raises(DuplicateName):
        TensorDistribution((4, 4), grid(2), [(("x", "xo"), ("x",))])
    with pytest.raises(DuplicateName):
        TensorDistribution((4, 4), grid(2, 2), [(("x", "m1"), ("x", "*"))])


def test_unbound_machine_name_rejected():
    with pytest.raises(UnboundMachineName):
        TensorDistribution((4, 4), grid(2), [(("x", "y"), ("q",))])


def test_fixed_out_of_range_rejected():
    with pytest.raises(FixedOutOfRange):
        TensorDistribution((4, 4), grid(2), [(("x", "y"), (5,))])


def test_piece_lookups_are_bounds_checked():
    d = TensorDistribution((4, 4), grid(2), [(("x", "y"), ("x",))])
    # a rect outside the tensor meets no piece
    assert list(d.parts(HyperRect((4, 0), (5, 1)))) == []
    for lookup in (d.piece_bounds, d.processors_of):
        with pytest.raises(OutOfBounds):
            lookup((2,))
        with pytest.raises(OutOfBounds):
            lookup((-1,))
        with pytest.raises(RankMismatch):
            lookup((0, 0))


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
    with pytest.raises(ConfigError, match="bad machine-side names"):
        parse_distribution("A: xy -> x?")
