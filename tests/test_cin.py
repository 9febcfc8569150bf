import warnings

import numpy as np
import pytest

from tendist import (
    DenseTensor,
    TensorDistribution,
    grid,
    lower_to_cin,
    parse_statement,
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
    interpret,
    leaf_kernel_registered,
    pretty,
    pretty_relation,
    register_leaf_kernel,
    relation_defs,
    resolve_point,
    var_interval,
    with_relations,
)
from tendist.errors import OOBAccess, TendistError, UnboundVariable
from tendist.ir import TensorVar, build_statement, format_statement


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
