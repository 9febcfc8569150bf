import itertools
from dataclasses import replace

import numpy as np
import pytest

from tendist import (
    DenseTensor,
    TensorVar,
    build_statement,
    format_statement,
    interpret,
    lower_to_cin,
    parse_statement,
    sequential_evaluate,
)
from tendist.cin import Assign, Reduce
from tendist.errors import (ArityMismatch, ExtentMismatch, MissingInput, NonAffineAccess,
                            TendistError)
from tendist.ir import MAX_DEPTH, Access, Add, Const, Expr, Mul, compile_expr


def t(dims, values):
    return DenseTensor(dims, np.array(values, dtype=float))


def test_parse_gemm_classification():
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": 2, "j": 3, "k": 4})
    assert stmt.free_vars == ("i", "j")
    assert stmt.reduction_vars == ("k",)
    assert stmt.var_order == ("i", "j", "k")
    assert isinstance(lower_to_cin(stmt).leaf, Reduce)
    assert stmt.tensors()["A"].dims == (2, 4)
    assert stmt.tensors()["B"].dims == (4, 3)
    assert stmt.tensors()["C"].dims == (2, 3)


def test_parse_assign_mode():
    stmt = parse_statement("D(i, j) = A(i, j) + B(i, j)", {"i": 2, "j": 2})
    assert isinstance(lower_to_cin(stmt).leaf, Assign)
    assert stmt.reduction_vars == ()


def test_reduction_vars_follow_rhs_appearance():
    stmt = parse_statement("A(i, j) = B(i, k, l) * C(k, j) * D(l, j)",
                           {"i": 2, "j": 2, "k": 3, "l": 4})
    assert stmt.reduction_vars == ("k", "l")


def test_precedence_mul_binds_tighter():
    stmt = parse_statement("D(i) = A(i) + B(i) * C(i)", {"i": 2})
    assert isinstance(stmt.rhs, Add)
    assert isinstance(stmt.rhs.rhs, Mul)
    out = sequential_evaluate(stmt, {
        "A": t((2,), [1, 2]), "B": t((2,), [3, 4]), "C": t((2,), [5, 6])})
    assert out.data.tolist() == [16.0, 26.0]


def test_parens_override_precedence():
    stmt = parse_statement("D(i) = (A(i) + B(i)) * C(i)", {"i": 2})
    out = sequential_evaluate(stmt, {
        "A": t((2,), [1, 2]), "B": t((2,), [3, 4]), "C": t((2,), [5, 6])})
    assert out.data.tolist() == [20.0, 36.0]


def test_constants_in_rhs():
    stmt = parse_statement("D(i) = A(i) * 2 + 1", {"i": 3})
    out = sequential_evaluate(stmt, {"A": t((3,), [0, 1, 2])})
    assert out.data.tolist() == [1.0, 3.0, 5.0]


def test_gemm_known_values():
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": 2, "j": 2, "k": 2})
    out = sequential_evaluate(stmt, {
        "A": t((2, 2), [[1, 2], [3, 4]]),
        "B": t((2, 2), [[5, 6], [7, 8]]),
    })
    assert out.data.tolist() == [[19.0, 22.0], [43.0, 50.0]]


def test_ttv_known_values():
    stmt = parse_statement("A(i, j) = B(i, j, k) * c(k)", {"i": 2, "j": 2, "k": 2})
    out = sequential_evaluate(stmt, {
        "B": t((2, 2, 2), np.arange(8).reshape(2, 2, 2)),
        "c": t((2,), [1, 2]),
    })
    assert out.data.tolist() == [[2.0, 8.0], [14.0, 20.0]]


def test_scalar_output_innerprod():
    stmt = parse_statement("a = A(i, j) * B(i, j)", {"i": 2, "j": 2})
    assert stmt.free_vars == ()
    assert stmt.reduction_vars == ("i", "j")
    out = sequential_evaluate(stmt, {
        "A": t((2, 2), [[1, 2], [3, 4]]),
        "B": t((2, 2), [[5, 6], [7, 8]]),
    })
    assert out.dims == ()
    assert out[()] == 70.0


def test_reduction_accumulates_in_ascending_order():
    # 1e16 + (-1e16) + 1.5 is 1.5 only when summed left to right;
    # any other order collapses the 1.5 into the big term first
    stmt = parse_statement("a = c(k) * o(k)", {"k": 3})
    out = sequential_evaluate(stmt, {
        "c": t((3,), [1e16, -1e16, 1.5]),
        "o": t((3,), [1, 1, 1]),
    })
    assert out[()] == 1.5


def test_matches_einsum_on_integer_inputs():
    rng = np.random.default_rng(5)
    a = rng.integers(-4, 5, size=(3, 4)).astype(float)
    b = rng.integers(-4, 5, size=(4, 5)).astype(float)
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": 3, "j": 5, "k": 4})
    out = sequential_evaluate(stmt, {"A": DenseTensor((3, 4), a), "B": DenseTensor((4, 5), b)})
    assert np.array_equal(out.data, np.einsum("ik,kj->ij", a, b))


def _scalar_loop(stmt, inputs):
    """Point by point: free points outside, reduction points inside, ascending."""
    def value(expr, env):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Access):
            coord = tuple(env[v] for v in expr.indices)
            return float(inputs[expr.tensor.name].data[coord])
        a, b = value(expr.lhs, env), value(expr.rhs, env)
        return a + b if isinstance(expr, Add) else a * b

    def points(names):
        return itertools.product(*[range(stmt.extents[v]) for v in names])

    out = np.zeros(stmt.lhs.tensor.dims)
    for free in points(stmt.free_vars):
        env = dict(zip(stmt.free_vars, free))
        coord = tuple(env[v] for v in stmt.lhs.indices)
        if stmt.reduction_vars:
            acc = 0.0
            for red in points(stmt.reduction_vars):
                env.update(zip(stmt.reduction_vars, red))
                acc += value(stmt.rhs, env)
            out[coord] = acc
        else:
            out[coord] = value(stmt.rhs, env)
    return out


def _wide_floats(rng, dims):
    """Magnitudes from 1e-8 to 1e8, both signs, about a tenth of them -0.0."""
    mags = 10.0 ** rng.uniform(-8, 8, dims)
    vals = np.where(rng.random(dims) < 0.5, -mags, mags)
    vals[rng.random(dims) < 0.1] = -0.0
    return DenseTensor(dims, vals)


_SMALL = {"i": 3, "j": 4, "k": 5, "l": 2}  # every case in one block


@pytest.mark.parametrize("text, extents, draws", [
    *(pytest.param(text, _SMALL, 5, id=text) for text in [
        "A(i, j) = B(i, k) * C(k, j)",
        "a = B(i, j) * C(i, j)",
        "A(i, l) = B(i, j, k) * C(j, l) * D(k, l)",
        "A(i) = B(i, i) + 1",
        "A(i, i) = B(i, k) * C(k)",
        "A(i, j) = B(i) + C(j) * 2.5",
        "A(j, i) = B(i, j)",
        "A(i, j) = (B(i, k) + C(i, k)) * D(k, j)",
    ]),
    # a free box of 1,000 takes blocks of 16, 16 and 5 reduction points
    pytest.param("C(i, j) = A(i, k) * B(k, j)", {"i": 40, "j": 25, "k": 37}, 1,
                 id="gemm 40x25x37"),
    # a scalar output over 16,384 + 516 points
    pytest.param("a = A(i, j) * B(i, j)", {"i": 130, "j": 130}, 1, id="innerprod 130x130"),
    # blocks of 2,730 points end partway along k, the innermost reduction
    pytest.param("A(i, l) = B(i, j, k) * C(j, l) * D(k, l)",
                 {"i": 3, "j": 70, "k": 90, "l": 2}, 1, id="mttkrp 3x70x90x2"),
    # a free box of 16,384 takes blocks of one point
    pytest.param("C(i, j) = A(i, k) * B(k, j)", {"i": 128, "j": 128, "k": 3}, 1,
                 id="gemm 128x128x3"),
])
def test_bit_exact_against_scalar_loop(text, extents, draws):
    stmt = parse_statement(text, extents)
    out_name = stmt.lhs.tensor.name
    rng = np.random.default_rng(list(text.encode()))
    for _ in range(draws):
        ins = {name: _wide_floats(rng, var.dims)
               for name, var in stmt.tensors().items() if name != out_name}
        want = _scalar_loop(stmt, ins).tobytes()
        assert sequential_evaluate(stmt, ins).data.tobytes() == want
        got = interpret(lower_to_cin(stmt), ins)[out_name]
        assert got.data.tobytes() == want


def test_compile_rejects_an_unknown_node():
    with pytest.raises(TendistError, match="cannot evaluate"):
        compile_expr(Expr(), (), {})


def test_build_statement_with_operator_sugar():
    A = TensorVar("A", (2, 3))
    B = TensorVar("B", (3, 2))
    C = TensorVar("C", (2, 2))
    stmt = build_statement(C("i", "j"), A("i", "k") * B("k", "j"))
    assert stmt.extents == {"i": 2, "j": 2, "k": 3}
    assert format_statement(stmt) == "C(i, j) = A(i, k) * B(k, j)"


def test_format_statement_round_trips():
    text = "D(i) = (A(i) + B(i)) * C(i) + 2"
    stmt = parse_statement(text, {"i": 2})
    # formatting re-parses to the same statement
    again = parse_statement(format_statement(stmt), {"i": 2})
    ins = {"A": t((2,), [1, 2]), "B": t((2,), [3, 4]), "C": t((2,), [5, 6])}
    assert sequential_evaluate(stmt, ins) == sequential_evaluate(again, ins)


def test_extent_conflict_rejected():
    # A is used with dims (2, 3) and (3, 2)
    with pytest.raises(ExtentMismatch):
        parse_statement("C(i, j) = A(i, j) * A(j, i)", {"i": 2, "j": 3})
    # same variable bound to two different extents by one tensor
    B = TensorVar("B", (2, 3))
    C = TensorVar("C", (2, 2))
    with pytest.raises(ExtentMismatch):
        build_statement(C("i", "j"), B("i", "i"))


def test_constant_index_is_refused_before_build_statement():
    # the access refuses an index that is not a variable when it is built,
    # however it is built, so no statement ever holds one
    A, B = TensorVar("A", (4,)), TensorVar("B", (4,))
    with pytest.raises(NonAffineAccess, match="access index 0 is not a plain variable"):
        build_statement(A("i"), B(0))
    for build in (lambda: Access(B, (1.5,)),
                  lambda: replace(B("i"), indices=(None,))):
        with pytest.raises(NonAffineAccess):
            build()


def test_access_arity_must_match_the_order():
    with pytest.raises(ArityMismatch, match="B has order 2, got 1 indices"):
        TensorVar("B", (4, 4))("i")


def test_missing_extent_rejected():
    with pytest.raises(ExtentMismatch):
        parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": 2, "j": 3})


def test_parse_garbage_rejected():
    with pytest.raises(TendistError):
        parse_statement("C(i, j) = A(i, k) ? B(k, j)", {"i": 2, "j": 2, "k": 2})
    with pytest.raises(TendistError):
        parse_statement("C(i, j) = A(i, k) * B(k, j) extra", {"i": 2, "j": 2, "k": 2})
    # a comma stands between every two index names, and nowhere else
    for text in ("C(i j) = A(i, j)", "C(i,) = A(i)"):
        with pytest.raises(TendistError, match="unexpected token"):
            parse_statement(text, {"i": 2, "j": 2})
    assert parse_statement("C() = A(i)", {"i": 2}).lhs.indices == ()


def test_statement_depth_is_bounded():
    # the bound is a typed error, not the interpreter's RecursionError
    sum_of = lambda n: "C(i) = " + " + ".join(["A(i)"] * n)
    assert parse_statement(sum_of(MAX_DEPTH), {"i": 2}).extents == {"i": 2}
    for n in (MAX_DEPTH + 1, 1000):
        with pytest.raises(TendistError, match=f"deeper than {MAX_DEPTH} levels"):
            parse_statement(sum_of(n), {"i": 2})
    A, C = TensorVar("A", (2,)), TensorVar("C", (2,))
    rhs = A("i")
    for _ in range(999):
        rhs = rhs * A("i")
    with pytest.raises(TendistError, match=f"deeper than {MAX_DEPTH} levels"):
        build_statement(C("i"), rhs)
    nested = lambda n: "C(i) = " + "(" * n + "A(i)" + ")" * n
    assert parse_statement(nested(MAX_DEPTH), {"i": 2}).extents == {"i": 2}
    for n in (MAX_DEPTH + 1, 400):
        with pytest.raises(TendistError, match=f"more than {MAX_DEPTH} parentheses"):
            parse_statement(nested(n), {"i": 2})


@pytest.mark.parametrize("const", ("1e3", "2.5e-1"))
def test_unsupported_constant_is_named(const):
    with pytest.raises(TendistError, match=f"unsupported constant '{const}'"):
        parse_statement(f"C(i) = A(i) * {const}", {"i": 2})


def test_missing_input_rejected():
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": 2, "j": 2, "k": 2})
    with pytest.raises(MissingInput):
        sequential_evaluate(stmt, {"A": t((2, 2), [[1, 2], [3, 4]])})


def test_wrong_input_dims_rejected():
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": 2, "j": 2, "k": 2})
    with pytest.raises(ExtentMismatch):
        sequential_evaluate(stmt, {
            "A": t((2, 3), [[1, 2, 3], [4, 5, 6]]),
            "B": t((2, 2), [[1, 2], [3, 4]]),
        })
