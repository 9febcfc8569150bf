import itertools
import math
import random
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tendist import (
    DenseTensor,
    divide,
    grid,
    lower_to_cin,
    parse_schedule,
    parse_statement,
    rotate,
    sequential_evaluate,
    split,
)
from tendist.cin import (
    Assign,
    Communicate,
    Distribute,
    Divide,
    Forall,
    LoopNest,
    Place,
    Reduce,
    Rotate,
    Split,
    check_statement,
    interpret,
    leaf_accesses,
    pretty,
    pretty_relation,
    reached_vars,
    relation_defs,
    var_interval,
)
from tendist import cin as cin_module
from tendist.algorithms import REGISTRY
from tendist.errors import (
    ExtentMismatch,
    MissingInput,
    NonAffineAccess,
    OOBAccess,
    TendistError,
    UnboundVariable,
)
from tendist.ir import Access, Add, Const, TensorVar, build_statement, format_statement


def gemm(n=2):
    return parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": n, "j": n, "k": n})


def gemm_inputs(n=2):
    a = DenseTensor((n, n), np.arange(n * n, dtype=float).reshape(n, n))
    b = DenseTensor((n, n), np.arange(n * n, dtype=float).reshape(n, n) + 1)
    return {"A": a, "B": b}


def test_lower_to_cin_structure():
    cin = lower_to_cin(gemm())
    assert cin.loops == (Forall("i", 0, 2), Forall("j", 0, 2), Forall("k", 0, 2))
    assert isinstance(cin.leaf, Reduce) and cin.relations == ()


def test_lower_assign_statement():
    stmt = parse_statement("D(i) = A(i) + 1", {"i": 3})
    cin = lower_to_cin(stmt)
    assert isinstance(cin.leaf, Assign)


def test_interpret_matches_sequential():
    stmt = gemm(3)
    ins = gemm_inputs(3)
    out = interpret(lower_to_cin(stmt), ins)
    assert out["C"] == sequential_evaluate(stmt, ins)
    # inputs never mutated
    assert ins["A"] == gemm_inputs(3)["A"]


def test_interpret_rhs_reads_pre_statement_values():
    stmt = parse_statement("A(i) = A(i) + A(i)", {"i": 3})
    a = DenseTensor((3,), [1.0, 2.0, 3.0])
    out = interpret(lower_to_cin(stmt), {"A": a})
    assert out["A"].data.tolist() == [2.0, 4.0, 6.0]
    assert a.data.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("loops, leaf", [
    ((), Forall("x", 0, 2)),
    ((), Divide("x", "xo", "xi", 2, 4)),
    ((Forall("i", 0, 2),), lower_to_cin(gemm())),  # a nest is not a leaf
    ((Distribute("x"),), Place(TensorVar("T", (2,))("x"))),
    ((Forall("x", 0, 2), ("y", 0, 2)), Place(TensorVar("T", (2,))("x"))),
])
def test_loop_nest_rejects_other_parts(loops, leaf):
    with pytest.raises(TendistError, match="a statement's (leaf|loops) "):
        LoopNest(loops, leaf)


def test_divide_guard_skips_phantom_points():
    # extent 5 divided in 2 parts of block 3: point (o=1, i=2) maps to 5, out
    stmt = parse_statement("D(x) = A(x) + 1", {"x": 5})
    cin = lower_to_cin(stmt)
    divided = LoopNest((Forall("xo", 0, 2), Forall("xi", 0, 3)), cin.leaf,
                       (Divide("x", "xo", "xi", 2, 5),))
    check_statement(divided)
    a = DenseTensor((5,), [0.0, 1.0, 2.0, 3.0, 4.0])
    out = interpret(divided, {"A": a})
    assert out["D"].data.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def units(**values):
    """Interpreter env: each loop variable pinned to a unit interval."""
    return {k: (v, v + 1) for k, v in values.items()}


def empty(interval):
    return interval[0] >= interval[1]


def test_resolve_split_divide():
    defs = relation_defs((Split("k", "ko", "ki", 2, 5),))
    assert var_interval("k", units(ko=1, ki=1), defs) == (3, 4)
    assert var_interval("k", units(ko=2, ki=0), defs) == (4, 5)
    assert empty(var_interval("k", units(ko=2, ki=1), defs))  # phantom
    defs = relation_defs((Divide("k", "ko", "ki", 2, 5),))
    # divide of 5 in 2 parts uses block ceil(5/2) == 3
    assert var_interval("k", units(ko=1, ki=0), defs) == (3, 4)
    assert empty(var_interval("k", units(ko=1, ki=2), defs))


def test_resolve_rotate():
    defs = relation_defs((Rotate("ko", ("io", "jo"), "kos", 3),))
    assert var_interval("ko", units(kos=0, io=1, jo=1), defs) == (2, 3)
    assert var_interval("ko", units(kos=2, io=2, jo=2), defs) == (0, 1)
    # rotation covers every value exactly once as kos sweeps
    seen = {var_interval("ko", units(kos=s, io=1, jo=0), defs) for s in range(3)}
    assert seen == {(0, 1), (1, 2), (2, 3)}
    # every operand is resolved, even when an earlier one is already empty
    with pytest.raises(UnboundVariable):
        var_interval("ko", {"kos": (0, 0), "io": (0, 1)}, defs)


def test_resolve_chains_through_relations():
    defs = relation_defs((
        Divide("k", "ko", "ki", 2, 8),
        Divide("ki", "kio", "kii", 2, 4),
    ))
    # k = ko*4 + kio*2 + kii
    assert var_interval("k", units(ko=1, kio=1, kii=1), defs) == (7, 8)
    # ki = 2*2 + 0 fails its guard, so the point is phantom
    lo, hi = var_interval("k", units(ko=1, kio=2, kii=0), defs)
    assert lo >= hi


def test_reached_vars_follow_every_relation():
    defs = relation_defs((
        Divide("k", "ko", "ki", 2, 8),
        Rotate("i", ("ko",), "is", 4),
    ))
    assert reached_vars(("i",), defs) == {"i", "is", "ko"}
    assert reached_vars(("k", "j"), defs) == {"k", "ko", "ki", "j"}
    assert reached_vars((), defs) == set()


def test_resolve_unbound_raises():
    with pytest.raises(UnboundVariable):
        var_interval("q", {}, {})


def test_relation_cycle_rejected():
    # x is defined from y and y from x
    cycle = (Divide("x", "xo", "y", 2, 2), Divide("y", "x", "xi", 2, 2))
    with pytest.raises(TendistError, match="itself"):
        relation_defs(cycle)
    D, A = TensorVar("D", (2,)), TensorVar("A", (2,))
    stmt = LoopNest((Forall("xo", 0, 2), Forall("xi", 0, 2)), Assign(D("x"), A("x")), cycle)
    with pytest.raises(TendistError, match="itself"):
        check_statement(stmt)
    with pytest.raises(TendistError, match="itself"):
        interpret(stmt, {"A": DenseTensor((2,), [1.0, 2.0])})


def test_duplicate_definition_rejected():
    with pytest.raises(TendistError):
        relation_defs((Divide("k", "a", "b", 2, 4), Split("k", "c", "d", 2, 4)))


def test_check_statement_rejects_double_binding():
    inner = lower_to_cin(gemm())
    bad = replace(inner, loops=(Forall("i", 0, 2),) + inner.loops)
    with pytest.raises(TendistError, match="i bound twice"):
        check_statement(bad)


def test_check_statement_rejects_unresolvable():
    stmt = parse_statement("D(x) = A(x) + 1", {"x": 4})
    body = LoopNest((Forall("xo", 0, 2), Forall("xi", 0, 2)), lower_to_cin(stmt).leaf)
    with pytest.raises(UnboundVariable):
        check_statement(body)  # x never derivable without the divide relation
    check_statement(replace(body, relations=(Divide("x", "xo", "xi", 2, 4),)))


def test_interpret_oob_access_raises():
    # lhs: D has 3 elements, the loop reaches x == 3
    D3, A4 = TensorVar("D", (3,)), TensorVar("A", (4,))
    a = DenseTensor((4,), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(OOBAccess, match=r"D\(3,\) outside dims \(3,\)"):
        interpret(LoopNest((Forall("x", 0, 4),), Assign(D3("x"), A4("x"))), {"A": a})
    # rhs: A has 3 elements, the loop reaches x == 3
    D4, A3 = TensorVar("D", (4,)), TensorVar("A", (3,))
    a = DenseTensor((3,), [1.0, 2.0, 3.0])
    with pytest.raises(OOBAccess, match=r"A\(3,\) outside dims \(3,\)"):
        interpret(LoopNest((Forall("x", 0, 4),), Assign(D4("x"), A3("x"))), {"A": a})
    # a negative coordinate is out of bounds too, not a wrapped numpy index
    with pytest.raises(OOBAccess, match=r"D\(-1,\)"):
        interpret(LoopNest((Forall("x", -1, 2),), Reduce(D4("x"), A3("x"))), {"A": a})
    # k = ko*2 + (kr + ko) mod 2: at ko == 1 the point kr == 0 (k == 3) is
    # phantom and comes before kr == 1 (k == 2), which B's store lacks
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": 2, "j": 3, "k": 3})
    cin = rotate(split(lower_to_cin(stmt), "k", "ko", "ki", 2), "ki", ("ko",), "kr")
    ins = {"A": DenseTensor((2, 3)), "B": DenseTensor((2, 3))}
    with pytest.raises(OOBAccess) as err:
        interpret(cin, ins)
    assert str(err.value) == "B(2, 0) outside dims (2, 3)"
    # out of range in the second pass only
    stmt = parse_statement("D(i) = A(i)", {"i": 20000})
    with pytest.raises(OOBAccess) as err:
        interpret(lower_to_cin(stmt), {"A": DenseTensor((18000,))})
    assert str(err.value) == "A(18000,) outside dims (18000,)"


def test_constant_index_is_refused_before_interpret():
    # the access refuses it when it is built, so the walker never meets an
    # index without a name
    D, A = TensorVar("D", (4,)), TensorVar("A", (4,))
    with pytest.raises(NonAffineAccess, match="access index 0 is not a plain variable"):
        interpret(LoopNest((Forall("x", 0, 4),), Assign(D("x"), A(0))),
                  {"A": DenseTensor((4,))})


def test_interpret_missing_input_raises():
    with pytest.raises(MissingInput, match="no value supplied for B"):
        interpret(lower_to_cin(gemm(2)), {"A": DenseTensor((2, 2))})


def test_interpret_input_of_wrong_order_raises():
    ins = {"A": DenseTensor((2, 2)), "B": DenseTensor((2,))}
    with pytest.raises(ExtentMismatch,
                       match=r"B value has dims \(2,\), statement needs \(2, 2\)"):
        interpret(lower_to_cin(gemm(2)), ins)


def test_interpret_inf_nan_inputs_are_silent():
    # 1e308 * 1e308 overflows and inf * 0 is NaN; neither may warn
    stmt = gemm(2)
    ins = {"A": DenseTensor((2, 2), [[1e308, 1.0], [np.inf, 2.0]]),
           "B": DenseTensor((2, 2), [[1e308, 0.0], [3.0, 1.0]])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = interpret(lower_to_cin(stmt), ins)
    with np.errstate(all="ignore"):
        expected = sequential_evaluate(stmt, ins)
    np.testing.assert_array_equal(out["C"].data, expected.data)
    assert out["C"].data.tolist()[0] == [np.inf, 1.0]
    assert np.isnan(out["C"].data[1, 1])


def test_pretty_golden():
    assert pretty(lower_to_cin(gemm())) == \
        "forall(i) forall(j) forall(k) C(i, j) += A(i, k) * B(k, j)"
    T = TensorVar("T", (4, 3))
    placed = LoopNest(
        (Forall("xo", 0, 2), Forall("xi", 0, 2), Forall("y", 0, 3)), Place(T("x", "y")),
        (Divide("x", "xo", "xi", 2, 4), Distribute("xo"), Communicate(("T",), "xo")),
    )
    assert pretty(placed) == ("forall(xo) forall(xi) forall(y) T(x, y) "
                              "s.t. divide(x, xo, xi, 2), distribute(xo), "
                              "communicate(T, xo)")
    # an infinite constant prints as the statement printer shows it
    A, D = TensorVar("A", (3,)), TensorVar("D", (3,))
    inf = build_statement(D("i"), A("i") * float("inf"))
    assert pretty(lower_to_cin(inf)) == "forall(i) D(i) = A(i) * inf"
    # a scalar output prints bare, as in format_statement
    scalar = parse_statement("a = A(i, j) * B(i, j)", {"i": 2, "j": 2})
    assert format_statement(scalar) == "a = A(i, j) * B(i, j)"
    assert pretty(lower_to_cin(scalar)) == "forall(i) forall(j) a += A(i, j) * B(i, j)"


def test_pretty_relation_forms():
    assert pretty_relation(Split("k", "ko", "ki", 2, 8)) == "split(k, ko, ki, 2)"
    assert pretty_relation(Communicate(("B", "C"), "ko")) == "communicate({B, C}, ko)"
    assert pretty_relation(Rotate("ko", ("io", "jo"), "kos", 3)) == \
        "rotate(ko, {io, jo}, kos)"


def test_pretty_pinned_singleton_loop():
    leaf = Assign(TensorVar("D", (4,))("x"), TensorVar("A", (4,))("x"))
    assert pretty(LoopNest((Forall("x", 2, 3),), leaf)) == "forall(x=2) D(x) = A(x)"
    # lo == 0 singles print bare
    assert pretty(LoopNest((Forall("x", 0, 1),), leaf)) == "forall(x) D(x) = A(x)"


# box resolution: array lanes against the integer resolver, the box walker
# against a per-point loop

def _random_relations(rng):
    """Relations deriving "v" through random split/divide/rotate chains with
    ragged extents, and the loops (var, lo, hi) they leave to be bound."""
    relations, loops, fresh = [], [], itertools.count()

    def define(name, extent, depth):
        kind = rng.choice(["loop", "split", "divide", "rotate"] if depth else ["loop"])
        if kind == "loop":
            loops.append((name, 0, extent + rng.randint(0, 1)))  # may overshoot
            return
        n = next(fresh)
        outer, inner = f"o{n}", f"i{n}"
        if kind == "rotate":
            over = tuple(f"w{n}_{k}" for k in range(rng.randint(1, 2)))
            loops.extend((w, 0, rng.randint(1, 3)) for w in over)
            relations.append(Rotate(name, over, inner, extent))
            define(inner, extent, depth - 1)
            return
        if kind == "split":
            chunk = rng.randint(1, extent)
            rel, counts = Split(name, outer, inner, chunk, extent), (-(-extent // chunk), chunk)
        else:
            parts = rng.randint(1, extent)
            rel = Divide(name, outer, inner, parts, extent)
            counts = (parts, rel.block)
        relations.append(rel)
        define(outer, counts[0], depth - 1)
        define(inner, counts[1], depth - 1)

    define("v", rng.randint(1, 9), 3)
    return relations, loops


def test_array_resolution_matches_integer_lanes():
    rng = random.Random(6061)
    cases = phantom = 0
    while cases < 150:
        relations, loops = _random_relations(rng)
        if math.prod(hi - lo for _, lo, hi in loops) > 400:
            continue
        cases += 1
        defs = relation_defs(relations)
        # each loop becomes an arange axis of the box, or stays a Python int
        axes = [f for f in loops if rng.random() < 0.8]
        pinned = {var: rng.randrange(lo, hi) for var, lo, hi in loops if (var, lo, hi) not in axes}
        box: dict = {var: (v, v + 1) for var, v in pinned.items()}
        for k, (var, lo, hi) in enumerate(axes):
            lanes = np.arange(lo, hi).reshape([-1 if a == k else 1 for a in range(len(axes))])
            box[var] = (lanes, lanes + 1)
        shape = tuple(hi - lo for _, lo, hi in axes)
        resolved = {n: [np.broadcast_to(x, shape) for x in var_interval(n, box, defs)]
                    for n in defs}
        for point in itertools.product(*(range(lo, hi) for _, lo, hi in axes)):
            env = units(**pinned, **{var: v for (var, _, _), v in zip(axes, point)})
            lane = tuple(v - lo for (_, lo, _), v in zip(axes, point))
            for n, (lo, hi) in resolved.items():
                want = var_interval(n, env, defs)
                assert [type(x) for x in want] == [int, int], (relations, n)
                assert want == (lo[lane], hi[lane]), (relations, n, env)
                phantom += empty(want)
    assert phantom > 0  # the ragged chains did produce phantom lanes


def per_point(stmt, store):
    """The output a scalar loop writes: every point of the chain in order,
    each name resolved on its own, phantom points skipped, and the rhs
    evaluated by a tree walk of its own on numpy scalars."""
    def value(expr, at):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Access):
            return store[expr.tensor.name].data[tuple(at[v] for v in expr.indices)]
        a, b = value(expr.lhs, at), value(expr.rhs, at)
        return a + b if isinstance(expr, Add) else a * b

    chain, leaf = stmt.loops, stmt.leaf
    defs = relation_defs(stmt.relations)
    names = [v for a in leaf_accesses(leaf) for v in a.indices]
    out = DenseTensor(leaf.lhs.tensor.dims).data
    for point in itertools.product(*(range(f.lo, f.hi) for f in chain)):
        env = {f.var: (v, v + 1) for f, v in zip(chain, point)}
        at = {n: var_interval(n, env, defs) for n in names}
        if any(lo >= hi for lo, hi in at.values()):
            continue
        at = {n: lo for n, (lo, _) in at.items()}
        coord = tuple(at[v] for v in leaf.lhs.indices)
        if isinstance(leaf, Assign):
            out[coord] = value(leaf.rhs, at)
        else:
            out[coord] += value(leaf.rhs, at)
    return out


def special_inputs(stmt, seed):
    """Normal draws salted with NaN, +inf, -inf and -0.0."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, var in stmt.tensors().items():
        if name != stmt.lhs.tensor.name:
            vals, pick = rng.standard_normal(var.dims), rng.random(var.dims)
            for at, special in enumerate((np.nan, np.inf, -np.inf, -0.0)):
                vals[(pick >= 0.04 * at) & (pick < 0.04 * (at + 1))] = special
            out[name] = DenseTensor(var.dims, vals)
    return out


def test_box_walker_matches_per_point_loop_bytes():
    gemm_ragged = parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": 5, "j": 4, "k": 7})
    cases = [
        # ragged divide and split (phantom points), k rotated over the i blocks
        (gemm_ragged, lambda c: rotate(split(divide(c, "i", "io", "ii", 2),
                                             "k", "ko", "ki", 3), "ko", ("io",), "kr")),
        # an Assign leaf, ragged on both loops
        (parse_statement("D(i, j) = A(i, j) * 2 + B(j, i)", {"i": 5, "j": 5}),
         lambda c: divide(split(c, "i", "io", "ii", 2), "j", "jo", "ji", 3)),
        # a scalar output, its reduction rotated
        (parse_statement("a = A(i, j) * B(i, j)", {"i": 6, "j": 5}),
         lambda c: rotate(split(c, "j", "jo", "ji", 2), "ji", ("i",), "jr")),
        # a diagonal access
        (parse_statement("d(i) = A(i, i) + 1", {"i": 7}),
         lambda c: split(c, "i", "io", "ii", 3)),
        # more points than one pass: chunked passes below a walked loop
        (parse_statement("D(i, j, k) = A(i, j) * B(j, k)", {"i": 2, "j": 71, "k": 286}),
         lambda c: split(c, "k", "ko", "ki", 8)),
        (parse_statement("D(i) = A(i) + B(i)", {"i": 20011}), lambda c: c),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, (stmt, sched) in enumerate(cases):
            cin = sched(lower_to_cin(stmt))
            ins = special_inputs(stmt, seed)
            got = interpret(cin, ins)[stmt.lhs.tensor.name].data
            with np.errstate(all="ignore"):
                want = per_point(cin, ins)
            # NaNs at the same places, every other element byte-equal (-0.0
            # and +-inf included): IEEE 754 leaves a NaN's sign open, and
            # numpy's scalar and array paths keep different NaN operands
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), pretty(cin)
            assert got[~nan].tobytes() == want[~nan].tobytes(), pretty(cin)
    assert math.prod(stmt.extents.values()) > cin_module._PASS_POINTS
    # a leaf without variables still runs once per point of its loops
    scalar = TensorVar("a", ())
    stmt = LoopNest((Forall("x", 0, 3),), Reduce(scalar(), Const(1.0)))
    assert interpret(stmt, {})["a"].data == 3.0


def _recording_passes(monkeypatch):
    """The points of each pass: the names are resolved once for the whole
    box, so a pass shows as one call of the compiled rhs, on a row of the
    pass's views."""
    boxes = []
    compile_rhs = cin_module.compile_expr

    def recording(expr, names, store):
        rhs = compile_rhs(expr, names, store)

        def evaluate(row):
            boxes.append(math.prod(np.broadcast_shapes(*(np.shape(v) for v in row))))
            return rhs(row)
        return evaluate

    monkeypatch.setattr(cin_module, "compile_expr", recording)
    return boxes


def test_passes_stay_within_the_point_limit(monkeypatch):
    boxes = _recording_passes(monkeypatch)
    stmt = parse_statement("D(i, j, k) = A(i, j) * B(j, k)", {"i": 2, "j": 71, "k": 286})
    cin = split(lower_to_cin(stmt), "k", "ko", "ki", 8)
    interpret(cin, special_inputs(stmt, 0))
    # i is walked; j goes in chunks of 16384 // 288 == 56 rows: 56 and 15
    assert sorted(set(boxes)) == [15 * 288, 56 * 288]


def test_split_loops_stop_where_every_point_is_phantom(monkeypatch):
    # k (extent 5) split by 10**8, its inner split again by 2: a live point
    # has ko < 1, kii < 2 and kio < ceil(5 / 2), so 3 * 3 * 2 points of
    # the 3 * 5 * 10**7 * 2 are walked, and the result is chunk 5's
    stmt = parse_statement("d(i) = A(i, k) * 2", {"i": 3, "k": 5})
    ins = special_inputs(stmt, 9)
    boxes = _recording_passes(monkeypatch)
    got = [interpret(split(split(lower_to_cin(stmt), "k", "ko", "ki", chunk),
                           "ki", "kio", "kii", 2), ins)["d"].data.tobytes()
           for chunk in (5, 10**8)]
    assert got[0] == got[1] and boxes == [18, 18]


def test_working_memory_does_not_grow_with_the_box():
    # a pass holds a few arrays of at most _PASS_POINTS lanes, so beyond its
    # output one call's traced peak stays under a fixed bound at any box.
    # Cannon's rotated k spans io x jo x kos x ki, 16 * 16 * 16 * 8 lanes
    # on 16x16 at n=128: more than a pass, so it is resolved pass by pass
    cannon = parse_schedule(REGISTRY["cannon"].script_for("cannon", grid(16, 16), 1))
    for n, schedule in ((64, None), (128, None), (128, cannon)):
        stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": n, "j": n, "k": n})
        cin, ins = lower_to_cin(stmt), special_inputs(stmt, n)
        if schedule is not None:
            cin = schedule.apply(cin)
            size = {f.var: f.extent for f in cin.loops}
            k_lanes = math.prod(size.get(v, 1)
                                for v in reached_vars(["k"], relation_defs(cin.relations)))
            assert k_lanes > cin_module._PASS_POINTS
        tracemalloc.start()
        try:
            out = interpret(cin, ins)["C"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.data.nbytes < 512 * 1024, (n, peak)


def test_nan_sign_is_numpys_array_choice():
    # Two NaNs of opposite sign: numpy's scalar and array products may keep
    # different operands' NaN (on x86-64 with numpy 2.4 the scalar product
    # is -nan and the array product +nan). The walker evaluates a pass as
    # arrays, so against the scalar loop it differs by exactly that bit.
    stmt = lower_to_cin(parse_statement("D(i) = A(i) * B(i)", {"i": 1}))
    ins = {"A": DenseTensor((1,), [np.nan]), "B": DenseTensor((1,), [-np.nan])}

    def bits(x):
        return int(np.asarray(x, dtype=np.float64).reshape(-1).view(np.uint64)[0])

    got = interpret(stmt, ins)["D"].data
    scalar = ins["A"].data[0] * ins["B"].data[0]
    array = ins["A"].data * ins["B"].data
    assert np.isnan(got[0]) and bits(got) == bits(array)
    assert bits(per_point(stmt, ins)) == bits(scalar)
    assert bits(array) ^ bits(scalar) in (0, 1 << 63)


def test_reduce_adds_colliding_points_in_chain_order():
    # many points per output element, on values whose sum depends on the
    # order of the additions: one pass (3 x 64), passes cut along j
    # (2 x 40000) and passes cut along i on one scalar (20000)
    rng = np.random.default_rng(7)
    pattern = [1e16, 1.0, -1e16, 1.0, 3.0, -1e16, 1e16, 0.5]
    cases = [(parse_statement("d(i) = A(i, j)", {"i": 3, "j": 64}), (3, 64)),
             (parse_statement("d(i) = A(i, j)", {"i": 2, "j": 40000}), (2, 40000)),
             (parse_statement("a = A(i) * 1", {"i": 20000}), (20000,))]
    assert all(math.prod(dims) > cin_module._PASS_POINTS for _, dims in cases[1:])
    for stmt, dims in cases:
        ins = {"A": DenseTensor(dims, rng.choice(pattern, size=dims))}
        cin = lower_to_cin(stmt)
        got = interpret(cin, ins)[stmt.lhs.tensor.name].data
        want = per_point(cin, ins)
        assert got.tobytes() == want.tobytes(), pretty(cin)
        rows = ins["A"].data.reshape(-1, dims[-1])
        backwards = [sum(row[::-1].tolist()) for row in rows]
        assert want.reshape(-1).tolist() != backwards  # the order matters


def test_assign_keeps_the_last_point_per_element():
    # every j writes d(i); the last j must win, within a pass (n=5) and
    # across passes cut along j (n=20000)
    rng = np.random.default_rng(8)
    d = TensorVar("d", (3,))
    for n in (5, 20000):
        assert n < 16 or n > cin_module._PASS_POINTS
        A = TensorVar("A", (3, n))
        stmt = LoopNest((Forall("i", 0, 3), Forall("j", 0, n)), Assign(d("i"), A("i", "j")))
        ins = {"A": DenseTensor((3, n), rng.standard_normal((3, n)))}
        got = interpret(stmt, ins)["d"].data
        assert got.tobytes() == per_point(stmt, ins).tobytes()
        assert got.tolist() == ins["A"].data[:, -1].tolist()
