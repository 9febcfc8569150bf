import itertools
import math
import random
import warnings

import numpy as np
import pytest

from tendist import (
    DenseTensor,
    TensorDistribution,
    divide,
    grid,
    lower_to_cin,
    parse_statement,
    rotate,
    run_statement,
    sequential_evaluate,
    split,
)
from tendist.cin import (
    Assign,
    Communicate,
    Distribute,
    Divide,
    Forall,
    INTERPRETER_KERNEL,
    LeafKernel,
    LeafRuntime,
    Place,
    Reduce,
    Rotate,
    Split,
    Suchthat,
    add_relations,
    check_statement,
    forall_chain,
    interpret,
    leaf_accesses,
    leaf_kernel_registered,
    pretty,
    pretty_relation,
    register_leaf_kernel,
    relation_defs,
    relations_of,
    resolve_point,
    var_interval,
    with_relations,
)
from tendist import cin as cin_module
from tendist.errors import (
    ExtentMismatch,
    MissingInput,
    OOBAccess,
    TendistError,
    UnboundVariable,
)
from tendist.ir import Const, TensorVar, build_statement, eval_expr, format_statement


def gemm(n=2):
    return parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": n, "j": n, "k": n})


def gemm_inputs(n=2):
    a = DenseTensor((n, n), np.arange(n * n, dtype=float).reshape(n, n))
    b = DenseTensor((n, n), np.arange(n * n, dtype=float).reshape(n, n) + 1)
    return {"A": a, "B": b}


def test_lower_to_cin_structure():
    cin = lower_to_cin(gemm())
    assert isinstance(cin, Forall) and cin.var == "i" and (cin.lo, cin.hi) == (0, 2)
    assert cin.body.var == "j"
    assert cin.body.body.var == "k"
    assert isinstance(cin.body.body.body, Reduce)


def test_lower_assign_statement():
    stmt = parse_statement("D(i) = A(i) + 1", {"i": 3})
    cin = lower_to_cin(stmt)
    assert isinstance(cin.body, Assign)


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


def test_non_chain_statement_rejected():
    # relations live on the root Suchthat only; a nested one is not a statement
    D, A = TensorVar("D", (4,)), TensorVar("A", (4,))
    inner = Suchthat(Forall("xi", 0, 2, Assign(D("x"), A("x"))),
                     (Divide("x", "xo", "xi", 2, 4),))
    nested = Suchthat(Forall("xo", 0, 2, inner), (Distribute("xo"),))
    a = DenseTensor((4,), [1.0, 2.0, 3.0, 4.0])
    machine = grid(2)
    dists = {n: TensorDistribution((4,), machine, [(("x",), ("x",))]) for n in "AD"}
    with pytest.raises(TendistError, match="Suchthat sits below the loops"):
        check_statement(nested)
    with pytest.raises(TendistError, match="Suchthat sits below the loops"):
        interpret(nested, {"A": a})
    with pytest.raises(TendistError, match="Suchthat sits below the loops"):
        run_statement(nested, machine, dists, {"A": a})
    with pytest.raises(TendistError, match="Suchthat sits below the loops"):
        split(nested, "xi", "xio", "xii", 1)


def test_divide_guard_skips_phantom_points():
    # extent 5 divided in 2 parts of block 3: point (o=1, i=2) maps to 5, out
    stmt = parse_statement("D(x) = A(x) + 1", {"x": 5})
    cin = lower_to_cin(stmt)
    divided = Suchthat(
        Forall("xo", 0, 2, Forall("xi", 0, 3, cin.body)),
        (Divide("x", "xo", "xi", 2, 5),),
    )
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
    assert resolve_point(["k"], units(ko=1, kio=1, kii=1), defs) == {"k": 7}
    # ki = 2*2 + 0 fails its guard, so the point is phantom
    assert resolve_point(["k"], units(ko=1, kio=2, kii=0), defs) is None


def test_resolve_unbound_raises():
    with pytest.raises(UnboundVariable):
        var_interval("q", {}, {})


def test_relation_cycle_rejected():
    # x is defined from y and y from x
    cycle = (Divide("x", "xo", "y", 2, 2), Divide("y", "x", "xi", 2, 2))
    with pytest.raises(TendistError, match="itself"):
        relation_defs(cycle)
    D, A = TensorVar("D", (2,)), TensorVar("A", (2,))
    stmt = Suchthat(Forall("xo", 0, 2, Forall("xi", 0, 2, Assign(D("x"), A("x")))), cycle)
    with pytest.raises(TendistError, match="itself"):
        check_statement(stmt)
    with pytest.raises(TendistError, match="itself"):
        interpret(stmt, {"A": DenseTensor((2,), [1.0, 2.0])})


def test_duplicate_definition_rejected():
    with pytest.raises(TendistError):
        relation_defs((Divide("k", "a", "b", 2, 4), Split("k", "c", "d", 2, 4)))


def test_check_statement_rejects_double_binding():
    inner = lower_to_cin(gemm())
    bad = Forall("i", 0, 2, inner)
    with pytest.raises(TendistError):
        check_statement(bad)


def test_check_statement_rejects_unresolvable():
    stmt = parse_statement("D(x) = A(x) + 1", {"x": 4})
    body = Forall("xo", 0, 2, Forall("xi", 0, 2, lower_to_cin(stmt).body))
    with pytest.raises(UnboundVariable):
        check_statement(body)  # x never derivable without the divide relation
    check_statement(with_relations(body, (Divide("x", "xo", "xi", 2, 4),)))


def test_interpret_oob_access_raises():
    # lhs: D has 3 elements, the loop reaches x == 3
    D3, A4 = TensorVar("D", (3,)), TensorVar("A", (4,))
    a = DenseTensor((4,), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(OOBAccess, match=r"D\(3,\) outside dims \(3,\)"):
        interpret(Forall("x", 0, 4, Assign(D3("x"), A4("x"))), {"A": a})
    # rhs: A has 3 elements, the loop reaches x == 3
    D4, A3 = TensorVar("D", (4,)), TensorVar("A", (3,))
    a = DenseTensor((3,), [1.0, 2.0, 3.0])
    with pytest.raises(OOBAccess, match=r"A\(3,\) outside dims \(3,\)"):
        interpret(Forall("x", 0, 4, Assign(D4("x"), A3("x"))), {"A": a})
    # a negative coordinate is out of bounds too, not a wrapped numpy index
    with pytest.raises(OOBAccess, match=r"D\(-1,\)"):
        interpret(Forall("x", -1, 2, Reduce(D4("x"), A3("x"))), {"A": a})
    # k = ko*2 + (kr + ko) mod 2: at ko == 1 the point kr == 0 (k == 3) is
    # phantom and comes before kr == 1 (k == 2), which B's store lacks
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": 2, "j": 3, "k": 3})
    cin = rotate(split(lower_to_cin(stmt), "k", "ko", "ki", 2), "ki", ("ko",), "kr")
    ins = {"A": DenseTensor((2, 3)), "B": DenseTensor((2, 3))}
    with pytest.raises(OOBAccess) as err:
        interpret(cin, ins)
    assert str(err.value) == "B(2, 0) outside dims (2, 3)"
    # out of range in the second pass only
    stmt = parse_statement("D(i) = A(i)", {"i": 5000})
    with pytest.raises(OOBAccess) as err:
        interpret(lower_to_cin(stmt), {"A": DenseTensor((4500,))})
    assert str(err.value) == "A(4500,) outside dims (4500,)"


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


def test_with_relations_flattens_nesting():
    stmt = parse_statement("D(x) = A(x)", {"x": 4})
    body = Forall("xo", 0, 2, Forall("xi", 0, 2, lower_to_cin(stmt).body))
    one = with_relations(body, (Divide("x", "xo", "xi", 2, 4),))
    two = add_relations(one, Distribute("xo"))
    assert isinstance(two, Suchthat)
    assert not isinstance(two.body, Suchthat)
    assert len(two.relations) == 2


def test_pretty_golden():
    assert pretty(lower_to_cin(gemm())) == \
        "forall(i) forall(j) forall(k) C(i, j) += A(i, k) * B(k, j)"
    T = TensorVar("T", (4, 3))
    placed = Suchthat(
        Forall("xo", 0, 2, Forall("xi", 0, 2, Forall("y", 0, 3, Place(T("x", "y"))))),
        (Divide("x", "xo", "xi", 2, 4), Distribute("xo"),
         Communicate(("T",), "xo")),
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
    assert pretty_relation(LeafKernel(("ii", "ji"), "blas")) == "leaf({ii, ji}, blas)"


def test_pretty_pinned_singleton_loop():
    leaf = Assign(TensorVar("D", (4,))("x"), TensorVar("A", (4,))("x"))
    assert pretty(Forall("x", 2, 3, leaf)) == "forall(x=2) D(x) = A(x)"
    # lo == 0 singles print bare
    assert pretty(Forall("x", 0, 1, leaf)) == "forall(x) D(x) = A(x)"


def test_leaf_kernel_dispatch():
    calls = []

    def doubler(rt: LeafRuntime):
        calls.append([v for v, _, _ in rt.loops])
        for x in range(rt.loops[0][1], rt.loops[0][2]):
            rt.execute_point({**rt.env, rt.loops[0][0]: x})

    register_leaf_kernel("doubler", doubler)
    assert leaf_kernel_registered("doubler")
    assert leaf_kernel_registered(INTERPRETER_KERNEL)
    assert not leaf_kernel_registered("nope")

    stmt = parse_statement("D(x) = A(x) * 2", {"x": 4})
    cin = with_relations(lower_to_cin(stmt), (LeafKernel(("x",), "doubler"),))
    out = interpret(cin, {"A": DenseTensor((4,), [1.0, 2.0, 3.0, 4.0])})
    assert out["D"].data.tolist() == [2.0, 4.0, 6.0, 8.0]
    assert calls == [["x"]]


def test_unregistered_kernel_rejected():
    stmt = parse_statement("D(x) = A(x) * 2", {"x": 4})
    cin = with_relations(lower_to_cin(stmt), (LeafKernel(("x",), "missing-kernel"),))
    with pytest.raises(TendistError):
        interpret(cin, {"A": DenseTensor((4,))})


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
    each name resolved on its own, phantom points skipped."""
    chain, leaf = forall_chain(stmt)
    defs = relation_defs(relations_of(stmt))
    names = [v for a in leaf_accesses(leaf) for v in a.var_names]
    out = DenseTensor(leaf.lhs.tensor.dims).data
    for point in itertools.product(*(range(f.lo, f.hi) for f in chain)):
        at = resolve_point(names, {f.var: (v, v + 1) for f, v in zip(chain, point)}, defs)
        if at is None:
            continue
        coord = tuple(at[v] for v in leaf.lhs.var_names)
        if isinstance(leaf, Assign):
            out[coord] = eval_expr(leaf.rhs, at, store)
        else:
            out[coord] += eval_expr(leaf.rhs, at, store)
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
        (parse_statement("D(i, j, k) = A(i, j) * B(j, k)", {"i": 2, "j": 71, "k": 70}),
         lambda c: split(c, "k", "ko", "ki", 8)),
        (parse_statement("D(i) = A(i) + B(i)", {"i": 5003}), lambda c: c),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, (stmt, sched) in enumerate(cases):
            cin = sched(lower_to_cin(stmt))
            ins = special_inputs(stmt, seed)
            got = interpret(cin, ins)[stmt.lhs.tensor.name].data
            with np.errstate(all="ignore"):
                want = per_point(cin, ins)
            assert got.tobytes() == want.tobytes(), pretty(cin)
    assert math.prod(stmt.extents.values()) > cin_module._PASS_POINTS
    # a leaf without variables still runs once per point of its loops
    scalar = TensorVar("a", ())
    assert interpret(Forall("x", 0, 3, Reduce(scalar(), Const(1.0))), {})["a"].data == 3.0


def test_passes_stay_within_the_point_limit(monkeypatch):
    boxes = []
    resolve = cin_module.var_interval

    def recording(name, env, defs):
        shapes = [lo.shape for lo, _ in env.values() if isinstance(lo, np.ndarray)]
        boxes.append(math.prod(np.broadcast_shapes(*shapes)) if shapes else 1)
        return resolve(name, env, defs)

    stmt = parse_statement("D(i, j, k) = A(i, j) * B(j, k)", {"i": 2, "j": 71, "k": 70})
    cin = split(lower_to_cin(stmt), "k", "ko", "ki", 8)
    monkeypatch.setattr(cin_module, "var_interval", recording)
    interpret(cin, special_inputs(stmt, 0))
    # i is walked; j goes in chunks of 4096 // 72 == 56 rows: 56 and 15
    assert sorted(set(boxes)) == [15 * 72, 56 * 72]
