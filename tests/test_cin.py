import numpy as np
import pytest

from tendist import DenseTensor, lower_to_cin, parse_statement, sequential_evaluate
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
    Seq,
    Split,
    Suchthat,
    add_relations,
    check_statement,
    forall,
    interpret,
    leaf_kernel_registered,
    pretty,
    pretty_relation,
    register_leaf_kernel,
    relation_defs,
    resolve_point,
    resolve_var,
    with_relations,
)
from tendist.cin import _PHANTOM
from tendist.errors import TendistError, UnboundVariable
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


def test_interpret_seq_chains_outputs():
    # second statement consumes the first one's output
    s1 = lower_to_cin(parse_statement("T(i) = A(i) * 2", {"i": 3}))
    s2 = lower_to_cin(parse_statement("U(i) = T(i) + 1", {"i": 3}))
    out = interpret(Seq((s1, s2)), {"A": DenseTensor((3,), [1.0, 2.0, 3.0]),
                                    "T": DenseTensor((3,))})
    assert out["T"].data.tolist() == [2.0, 4.0, 6.0]
    assert out["U"].data.tolist() == [3.0, 5.0, 7.0]


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


def test_resolve_split_divide():
    defs = relation_defs((Split("k", "ko", "ki", 2, 5),))
    assert resolve_var("k", {"ko": 1, "ki": 1}, defs) == 3
    assert resolve_var("k", {"ko": 2, "ki": 0}, defs) == 4
    assert resolve_var("k", {"ko": 2, "ki": 1}, defs) is _PHANTOM
    defs = relation_defs((Divide("k", "ko", "ki", 2, 5),))
    # divide of 5 in 2 parts uses block ceil(5/2) == 3
    assert resolve_var("k", {"ko": 1, "ki": 0}, defs) == 3
    assert resolve_var("k", {"ko": 1, "ki": 2}, defs) is _PHANTOM


def test_resolve_rotate():
    defs = relation_defs((Rotate("ko", ("io", "jo"), "kos", 3),))
    assert resolve_var("ko", {"kos": 0, "io": 1, "jo": 1}, defs) == 2
    assert resolve_var("ko", {"kos": 2, "io": 2, "jo": 2}, defs) == 0
    # rotation covers every value exactly once as kos sweeps
    seen = {resolve_var("ko", {"kos": s, "io": 1, "jo": 0}, defs) for s in range(3)}
    assert seen == {0, 1, 2}


def test_resolve_chains_through_relations():
    defs = relation_defs((
        Divide("k", "ko", "ki", 2, 8),
        Divide("ki", "kio", "kii", 2, 4),
    ))
    # k = ko*4 + kio*2 + kii
    assert resolve_var("k", {"ko": 1, "kio": 1, "kii": 1}, defs) == 7
    assert resolve_point(["k"], {"ko": 1, "kio": 1, "kii": 1}, defs) == {"k": 7}


def test_resolve_unbound_raises():
    with pytest.raises(UnboundVariable):
        resolve_var("q", {}, {})


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
