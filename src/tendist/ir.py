"""Tensor index notation: accesses, products, sums, and one assignment.

A statement is `lhs = rhs` where both sides index tensors by named variables.
Variables appearing only on the rhs are reduction variables and imply a
sum-reduction; variable extents are bound from the dimensions of the tensors
they index and must agree across all uses.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, ExtentMismatch, MissingInput, NonAffineAccess, TendistError
from .tensors import DenseTensor


class Expr:
    """Base for rhs expression nodes; carries the operator sugar."""

    def __add__(self, other):
        return Add(self, _wrap(other))

    def __radd__(self, other):
        return Add(_wrap(other), self)

    def __mul__(self, other):
        return Mul(self, _wrap(other))

    def __rmul__(self, other):
        return Mul(_wrap(other), self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Access(Expr):
    tensor: "TensorVar"
    indices: tuple  # tuple[str, ...]: an index is its variable's name

    def __post_init__(self):
        if len(self.indices) != len(self.tensor.dims):
            raise ArityMismatch(
                f"{self.tensor.name} has order {len(self.tensor.dims)}, "
                f"got {len(self.indices)} indices"
            )
        for v in self.indices:
            if not isinstance(v, str):
                raise NonAffineAccess(f"access index {v!r} is not a plain variable")


def _wrap(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot use {x!r} in a tensor expression")


@dataclass(frozen=True)
class TensorVar:
    name: str
    dims: tuple  # tuple[int, ...]; () for scalars

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    def __call__(self, *indices) -> Access:
        return Access(self, indices)


def accesses_of(expr: Expr):
    """All Access nodes, left-to-right depth-first."""
    if isinstance(expr, Access):
        return [expr]
    if isinstance(expr, (Add, Mul)):
        return accesses_of(expr.lhs) + accesses_of(expr.rhs)
    return []


# deepest expression tree and parenthesis nesting a statement may have; the
# passes over an expression recurse, so a deeper one would exhaust the stack
MAX_DEPTH = 256


def _check_depth(expr: Expr) -> None:
    """Raise TendistError when expr nests more than MAX_DEPTH levels, a leaf
    being one level; walked without recursion, so it holds at any depth."""
    stack = [(expr, 1)]
    while stack:
        e, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise TendistError(f"expression nests deeper than {MAX_DEPTH} levels")
        if isinstance(e, (Add, Mul)):
            stack += [(e.lhs, depth + 1), (e.rhs, depth + 1)]


@dataclass(frozen=True, eq=False)
class TensorIndexStmt:
    lhs: Access
    rhs: Expr
    extents: dict  # var name -> extent
    free_vars: tuple  # lhs variables, written order
    reduction_vars: tuple  # rhs-only variables, first rhs appearance order

    @property
    def var_order(self) -> tuple:
        return self.free_vars + self.reduction_vars

    def tensors(self) -> dict:
        out = {}
        for acc in [self.lhs] + accesses_of(self.rhs):
            out.setdefault(acc.tensor.name, acc.tensor)
        return out


def build_statement(lhs: Access, rhs) -> TensorIndexStmt:
    """Bind variable extents and classify variables.

    Extents come from the tensor dimensions each variable indexes; an extent
    below 1, or a variable indexing dimensions of different extents, is an
    ExtentMismatch. An rhs more than MAX_DEPTH levels deep is refused.
    """
    rhs = _wrap(rhs)
    _check_depth(rhs)
    extents: dict = {}
    for acc in [lhs] + accesses_of(rhs):
        for pos, v in enumerate(acc.indices):
            ext = acc.tensor.dims[pos]
            if ext < 1:
                raise ExtentMismatch(f"{v} has extent {ext} (at {acc.tensor.name} dim "
                                     f"{pos}); every extent must be at least 1")
            prev = extents.setdefault(v, ext)
            if prev != ext:
                raise ExtentMismatch(
                    f"{v} bound to extent {prev} and {ext} "
                    f"(at {acc.tensor.name} dim {pos})"
                )
    free = []
    for v in lhs.indices:
        if v not in free:
            free.append(v)
    reduction = []
    for acc in accesses_of(rhs):
        for v in acc.indices:
            if v not in free and v not in reduction:
                reduction.append(v)
    return TensorIndexStmt(lhs, rhs, extents, tuple(free), tuple(reduction))


def format_expr(expr: Expr, under_mul: bool = False) -> str:
    if isinstance(expr, Const):
        v = expr.value
        return str(int(v)) if float(v).is_integer() else str(v)
    if isinstance(expr, Access):
        if not expr.indices:
            return expr.tensor.name
        return f"{expr.tensor.name}({', '.join(expr.indices)})"
    if isinstance(expr, Add):
        s = f"{format_expr(expr.lhs)} + {format_expr(expr.rhs)}"
        return f"({s})" if under_mul else s
    if isinstance(expr, Mul):
        return f"{format_expr(expr.lhs, True)} * {format_expr(expr.rhs, True)}"
    raise TendistError(f"cannot format {expr!r}")


def format_statement(stmt: TensorIndexStmt) -> str:
    return f"{format_expr(stmt.lhs)} = {format_expr(stmt.rhs)}"


def index_getter(access: Access, names):
    """Function from a row (row[k] the value of names[k]) to the index that
    `access` reads at it: a tuple, a bare value for one index, () for none."""
    at = [names.index(v) for v in access.indices]
    if not at:
        return lambda row: ()
    return operator.itemgetter(*at)


def compile_expr(expr: Expr, names, store: dict):
    """`expr` as a function of one row, where row[k] is the value of
    names[k]: an int (one point), an integer array (one lane per point) or
    an arange shaped to broadcast along its own axis (a box), so an Access
    is a single gather and a repeated variable reads a diagonal. The tree
    is walked here, once: each Access binds its tensor's data and index
    getter, each operator its operands.
    """
    if isinstance(expr, Const):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Access):
        data = store[expr.tensor.name].data
        get = index_getter(expr, names)
        return lambda row: data[get(row)]
    if isinstance(expr, (Add, Mul)):
        lhs = compile_expr(expr.lhs, names, store)
        rhs = compile_expr(expr.rhs, names, store)
        if isinstance(expr, Add):
            return lambda row: lhs(row) + rhs(row)
        return lambda row: lhs(row) * rhs(row)
    raise TendistError(f"cannot evaluate {expr!r}")


# most points or terms one vectorised pass covers, here and in cin's walker
_PASS_POINTS = 16384


def sequential_evaluate(stmt: TensorIndexStmt, inputs: dict) -> DenseTensor:
    """Reference evaluation in a single memory.

    Free variables are vectorized. Reduction points are taken in
    lexicographic order (reduction_vars order, each ascending), in blocks of
    at most _PASS_POINTS terms (points x free box), or of one point when the
    free box alone fills more than half of that: one rhs call per block, its
    points on a leading axis. The block's terms are then added to an
    accumulator that starts at 0.0 one point at a time, in point order.
    Every output element thus sees the same float64 operations as a scalar
    loop, bit for bit (NaN sign and payload aside, which IEEE 754 leaves
    open).
    """
    for acc in accesses_of(stmt.rhs):
        t = acc.tensor
        if t.name not in inputs:
            raise MissingInput(f"no value supplied for {t.name}")
        if inputs[t.name].dims != t.dims:
            raise ExtentMismatch(
                f"{t.name} value has dims {inputs[t.name].dims}, statement needs {t.dims}"
            )
    out = DenseTensor(stmt.lhs.tensor.dims)
    box = tuple(stmt.extents[v] for v in stmt.free_vars)
    lanes = tuple(
        np.arange(ext).reshape([-1 if k == axis else 1 for k in range(len(box))])
        for axis, ext in enumerate(box))
    rhs = compile_expr(stmt.rhs, stmt.var_order, inputs)
    if stmt.reduction_vars:
        # a scalar output accumulates in a float: updating a 0-d array
        # costs more than the addition itself
        value = np.zeros(box) if box else 0.0
        red_ext = [stmt.extents[v] for v in stmt.reduction_vars]
        points = math.prod(red_ext)
        per = max(1, _PASS_POINTS // math.prod(box))  # reduction points per block
        for start in range(0, points, per):
            at = np.arange(start, min(start + per, points)).reshape((-1,) + (1,) * len(box))
            terms = rhs(lanes + np.unravel_index(at, red_ext))
            for term in terms if box else terms.tolist():
                value += term
    else:
        value = rhs(lanes)
    out.data[index_getter(stmt.lhs, stmt.free_vars)(lanes)] = value
    return out


# a num token runs on through letters, dots and an exponent's sign, so that
# a constant outside digits[.digits] (1e3, 2.5e-1, 1.) is refused whole
_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_]\w*)|(?P<num>\d[\w.]*(?:(?<=[eE])[+-]\w+)?)"
                    r"|(?P<sym>[()=+*,]))")
_CONSTANT = re.compile(r"\d+(?:\.\d+)?")


def _tokenize(text: str):
    out, at = [], 0
    while at < len(text):
        m = _TOKEN.match(text, at)
        if not m or m.end() == at:
            if text[at:].strip():
                raise TendistError(f"cannot tokenize statement at {text[at:]!r}")
            break
        at = m.end()
        kind, tok = m.lastgroup, m.group(m.lastgroup)
        if kind == "num" and not _CONSTANT.fullmatch(tok):
            raise TendistError(f"unsupported constant {tok!r} in statement: "
                               f"constants are digits[.digits]")
        out.append((kind, tok))
    return out


class _Parser:
    """Recursive descent over `lhs = term (+ term)*` with * binding tighter."""

    def __init__(self, tokens, extents):
        self.toks = tokens
        self.at = 0
        self.extents = extents
        self.tensors: dict = {}
        self.depth = 0  # open grouping parentheses

    def peek(self):
        return self.toks[self.at] if self.at < len(self.toks) else (None, None)

    def take(self, kind=None, value=None):
        k, v = self.peek()
        if kind and k != kind or value and v != value:
            raise TendistError(f"unexpected token {v!r} in statement")
        self.at += 1
        return v

    def access(self) -> Access:
        name = self.take("name")
        vars_: list = []
        if self.peek() == ("sym", "("):
            self.take("sym", "(")
            if self.peek() != ("sym", ")"):  # names, a comma between each two
                vars_.append(self.take("name"))
                while self.peek() == ("sym", ","):
                    self.take("sym", ",")
                    vars_.append(self.take("name"))
            self.take("sym", ")")
        try:
            dims = tuple(self.extents[v] for v in vars_)
        except KeyError as exc:
            raise ExtentMismatch(f"no extent given for index {exc.args[0]!r}") from exc
        tensor = self.tensors.get(name)
        if tensor is None:
            tensor = self.tensors[name] = TensorVar(name, dims)
        elif tensor.dims != dims:
            raise ExtentMismatch(f"{name} used with dims {tensor.dims} and {dims}")
        return tensor(*vars_)

    def factor(self) -> Expr:
        kind, val = self.peek()
        if kind == "num":
            self.take("num")
            return Const(float(val))
        if (kind, val) == ("sym", "("):
            self.take("sym", "(")
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise TendistError(f"statement nests more than {MAX_DEPTH} parentheses")
            e = self.expr()
            self.take("sym", ")")
            self.depth -= 1
            return e
        return self.access()

    def term(self) -> Expr:
        e = self.factor()
        while self.peek() == ("sym", "*"):
            self.take("sym", "*")
            e = Mul(e, self.factor())
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() == ("sym", "+"):
            self.take("sym", "+")
            e = Add(e, self.term())
        return e


def index_names(text: str) -> list:
    """The index names of a statement text, in order of first appearance:
    the names inside an access's parentheses, whose `(` follows the tensor's
    name where a grouping `(` does not."""
    names, prev, inside = [], None, False
    for kind, tok in _tokenize(text):
        if tok in ("(", ")"):
            inside = tok == "(" and prev == "name"
        elif kind == "name" and inside and tok not in names:
            names.append(tok)
        prev = kind
    return names


def parse_statement(text: str, extents: dict) -> TensorIndexStmt:
    """Parse `A(i, j) = B(i, k) * C(k, j)` given per-variable extents."""
    p = _Parser(_tokenize(text), extents)
    lhs = p.access()
    p.take("sym", "=")
    rhs = p.expr()
    if p.at != len(p.toks):
        raise TendistError(f"trailing tokens in statement {text!r}")
    return build_statement(lhs, rhs)
