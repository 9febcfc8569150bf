"""Tensor index notation: accesses, products, sums, and one assignment.

A statement is `lhs = rhs` where both sides index tensors by named variables.
Variables appearing only on the rhs are reduction variables and imply a
sum-reduction; variable extents are bound from the dimensions of the tensors
they index and must agree across all uses.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, ExtentMismatch, MissingInput, TendistError
from .tensors import DenseTensor


@dataclass(frozen=True)
class IndexVar:
    name: str

    def __repr__(self):
        return f"IndexVar({self.name!r})"


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
    indices: tuple  # tuple[IndexVar, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.tensor.dims):
            raise ArityMismatch(
                f"{self.tensor.name} has order {len(self.tensor.dims)}, "
                f"got {len(self.indices)} indices"
            )

    @property
    def var_names(self) -> tuple:
        return tuple(v.name for v in self.indices)


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
        vs = tuple(IndexVar(v) if isinstance(v, str) else v for v in indices)
        return Access(self, vs)

    def __getitem__(self, indices) -> Access:
        if not isinstance(indices, tuple):
            indices = (indices,)
        return self(*indices)


def accesses_of(expr: Expr):
    """All Access nodes, left-to-right depth-first."""
    if isinstance(expr, Access):
        return [expr]
    if isinstance(expr, (Add, Mul)):
        return accesses_of(expr.lhs) + accesses_of(expr.rhs)
    return []


@dataclass(frozen=True, eq=False)
class TensorIndexStmt:
    lhs: Access
    rhs: Expr
    extents: dict  # var name -> extent
    free_vars: tuple  # lhs variables, written order
    reduction_vars: tuple  # rhs-only variables, first rhs appearance order

    @property
    def mode(self) -> str:
        return "sum-reduce" if self.reduction_vars else "assign"

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

    Extents come from the tensor dimensions each variable indexes; a variable
    indexing dimensions of different extents is an ExtentMismatch.
    """
    rhs = _wrap(rhs)
    extents: dict = {}
    for acc in [lhs] + accesses_of(rhs):
        for pos, v in enumerate(acc.indices):
            ext = acc.tensor.dims[pos]
            prev = extents.setdefault(v.name, ext)
            if prev != ext:
                raise ExtentMismatch(
                    f"{v.name} bound to extent {prev} and {ext} "
                    f"(at {acc.tensor.name} dim {pos})"
                )
    free = []
    for v in lhs.indices:
        if v.name not in free:
            free.append(v.name)
    reduction = []
    for acc in accesses_of(rhs):
        for v in acc.indices:
            if v.name not in free and v.name not in reduction:
                reduction.append(v.name)
    return TensorIndexStmt(lhs, rhs, extents, tuple(free), tuple(reduction))


def format_expr(expr: Expr, under_mul: bool = False) -> str:
    if isinstance(expr, Const):
        v = expr.value
        return str(int(v)) if float(v).is_integer() else str(v)
    if isinstance(expr, Access):
        if not expr.indices:
            return expr.tensor.name
        return f"{expr.tensor.name}({', '.join(v.name for v in expr.indices)})"
    if isinstance(expr, Add):
        s = f"{format_expr(expr.lhs)} + {format_expr(expr.rhs)}"
        return f"({s})" if under_mul else s
    if isinstance(expr, Mul):
        return f"{format_expr(expr.lhs, True)} * {format_expr(expr.rhs, True)}"
    raise TendistError(f"cannot format {expr!r}")


def format_statement(stmt: TensorIndexStmt) -> str:
    return f"{format_expr(stmt.lhs)} = {format_expr(stmt.rhs)}"


def eval_expr(expr: Expr, index: dict, store: dict):
    """Value of `expr` with each variable mapped to an index value: an int
    (one point) or an arange shaped to broadcast along its own axis (a box),
    so an Access is a single gather and a repeated variable reads a diagonal.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Access):
        return store[expr.tensor.name].data[tuple([index[v.name] for v in expr.indices])]
    if isinstance(expr, Add):
        return eval_expr(expr.lhs, index, store) + eval_expr(expr.rhs, index, store)
    if isinstance(expr, Mul):
        return eval_expr(expr.lhs, index, store) * eval_expr(expr.rhs, index, store)
    raise TendistError(f"cannot evaluate {expr!r}")


def sequential_evaluate(stmt: TensorIndexStmt, inputs: dict) -> DenseTensor:
    """Reference evaluation in a single memory.

    Free variables are vectorized; reduction points are visited one at a time
    in lexicographic order (reduction_vars order, each ascending), each adding
    its whole box to an accumulator that starts at 0.0. Every output element
    thus sees the same float64 operations as a scalar loop, bit for bit (NaN
    sign and payload aside, which IEEE 754 leaves open).
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
    index: dict = {}
    for axis, name in enumerate(stmt.free_vars):
        shape = [1] * len(box)
        shape[axis] = -1
        index[name] = np.arange(box[axis]).reshape(shape)
    if stmt.reduction_vars:
        # a scalar output accumulates in a float: updating a 0-d array
        # costs more than the addition itself
        value = np.zeros(box) if box else 0.0
        red_ext = [stmt.extents[v] for v in stmt.reduction_vars]
        for red_pt in itertools.product(*[range(e) for e in red_ext]):
            index.update(zip(stmt.reduction_vars, red_pt))
            value += eval_expr(stmt.rhs, index, inputs)
    else:
        value = eval_expr(stmt.rhs, index, inputs)
    out.data[tuple(index[v.name] for v in stmt.lhs.indices)] = value
    return out


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_]\w*)|(?P<num>\d+(?:\.\d+)?)|(?P<sym>[()=+*,]))")


def _tokenize(text: str):
    out, at = [], 0
    while at < len(text):
        m = _TOKEN.match(text, at)
        if not m or m.end() == at:
            if text[at:].strip():
                raise TendistError(f"cannot tokenize statement at {text[at:]!r}")
            break
        at = m.end()
        kind = m.lastgroup
        out.append((kind, m.group(kind)))
    return out


class _Parser:
    """Recursive descent over `lhs = term (+ term)*` with * binding tighter."""

    def __init__(self, tokens, extents):
        self.toks = tokens
        self.at = 0
        self.extents = extents
        self.tensors: dict = {}

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
            while self.peek() != ("sym", ")"):
                vars_.append(self.take("name"))
                if self.peek() == ("sym", ","):
                    self.take("sym", ",")
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
            e = self.expr()
            self.take("sym", ")")
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


def parse_statement(text: str, extents: dict) -> TensorIndexStmt:
    """Parse `A(i, j) = B(i, k) * C(k, j)` given per-variable extents."""
    p = _Parser(_tokenize(text), extents)
    lhs = p.access()
    p.take("sym", "=")
    rhs = p.expr()
    if p.at != len(p.toks):
        raise TendistError(f"trailing tokens in statement {text!r}")
    return build_statement(lhs, rhs)
