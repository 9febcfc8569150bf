"""Concrete index notation: explicit loop nests plus side relations.

A statement is one chain of Foralls over one leaf (Assign, Reduce or Place),
with an optional root Suchthat carrying the relations (divide, split,
distribute, rotate, communicate, leaf kernels). Relations name the variables
they govern, so they all live on that root: with_relations flattens nested
Suchthats on construction, and forall_chain, the one walker every pass uses,
rejects any other shape.

Derived-variable arithmetic:
    divide(i, io, ii, parts): i = io * ceil(extent/parts) + ii, guarded i < extent
    split(i, io, ii, chunk):  i = io * chunk + ii, guarded i < extent
    rotate(t, I, r):          t = (r + sum(I)) mod extent(t)

One resolver, `var_interval`, carries that arithmetic from loop-variable
intervals to derived-variable intervals; the simulator asks it for the box a
task touches. The interpreter resolves a loop box at once: it binds each loop
variable to the unit intervals (v, v + 1) of a whole arange, so a derived
variable comes out as one unit interval per point, or empty where a divide or
split guard fails: that point is phantom and does nothing. A box is resolved
in passes of at most 4,096 points; each live point then runs the leaf's
scalar arithmetic, in chain order, so values and accumulation order are those
of a plain loop nest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ExtentMismatch, MissingInput, OOBAccess, TendistError, UnboundVariable
from .ir import Access, TensorIndexStmt, accesses_of, eval_expr, format_expr
from .tensors import DenseTensor


# relations

@dataclass(frozen=True)
class Split:
    var: str
    outer: str
    inner: str
    chunk: int
    extent: int

    @property
    def block(self) -> int:
        return self.chunk


@dataclass(frozen=True)
class Divide:
    var: str
    outer: str
    inner: str
    parts: int
    extent: int

    @property
    def block(self) -> int:
        return -(-self.extent // self.parts)


@dataclass(frozen=True)
class Distribute:
    var: str


@dataclass(frozen=True)
class Rotate:
    target: str
    over: tuple  # tuple[str, ...]
    result: str
    extent: int


@dataclass(frozen=True)
class Communicate:
    tensors: tuple  # tuple[str, ...]
    var: str


@dataclass(frozen=True)
class LeafKernel:
    vars: tuple  # tuple[str, ...], outermost first
    kernel: str


# statements

@dataclass(frozen=True)
class Forall:
    var: str
    lo: int
    hi: int
    body: "CinStmt"

    @property
    def extent(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class Assign:
    lhs: Access
    rhs: object


@dataclass(frozen=True)
class Reduce:
    lhs: Access
    rhs: object


@dataclass(frozen=True)
class Place:
    access: Access


@dataclass(frozen=True)
class Suchthat:
    body: "CinStmt"
    relations: tuple


CinStmt = object  # union of the five node classes


def forall(var: str, extent: int, body) -> Forall:
    return Forall(var, 0, extent, body)


def relations_of(stmt) -> tuple:
    return stmt.relations if isinstance(stmt, Suchthat) else ()


def body_of(stmt):
    return stmt.body if isinstance(stmt, Suchthat) else stmt


def with_relations(body, relations):
    relations = tuple(relations)
    while isinstance(body, Suchthat):
        relations = body.relations + relations
        body = body.body
    return Suchthat(body, relations) if relations else body


def add_relations(stmt, *new):
    return with_relations(body_of(stmt), relations_of(stmt) + tuple(new))


def lower_to_cin(stmt: TensorIndexStmt):
    """One Forall per variable (free vars then reduction vars), reduction
    statements become `+=` over a zero-initialized output."""
    leaf = Reduce(stmt.lhs, stmt.rhs) if stmt.reduction_vars else Assign(stmt.lhs, stmt.rhs)
    return rebuild_chain([forall(n, stmt.extents[n], None) for n in stmt.var_order], leaf)


# structure helpers

def forall_chain(stmt):
    """The Foralls from the root (after its Suchthat), outermost first, and
    the leaf below them; any other shape raises TendistError."""
    node = body_of(stmt)
    chain = []
    while isinstance(node, Forall):
        chain.append(node)
        node = node.body
    if not isinstance(node, (Assign, Reduce, Place)):
        raise TendistError(
            f"a {type(node).__name__} sits below the loops; a statement is one "
            "chain of Foralls over one leaf, with relations on the root only")
    return chain, node


def rebuild_chain(chain, leaf):
    """Nest the chain's loops, outermost first, over leaf; the loops' own
    bodies are ignored, so a new loop may be built with body None."""
    node = leaf
    for f in reversed(chain):
        node = Forall(f.var, f.lo, f.hi, node)
    return node


def bound_vars(stmt) -> list:
    return [f.var for f in forall_chain(stmt)[0]]


def claimed_names(stmt) -> set:
    """Every variable name the statement already uses, loop-bound or derived."""
    chain, leaf = forall_chain(stmt)
    names = {f.var for f in chain}
    for rel in relations_of(stmt):
        if isinstance(rel, (Split, Divide, Rotate)):
            names.update(_relation_names(rel))
    for acc in leaf_accesses(leaf):
        names.update(acc.var_names)
    return names


def leaf_accesses(leaf) -> list:
    if isinstance(leaf, Place):
        return [leaf.access]
    return [leaf.lhs] + accesses_of(leaf.rhs)


def check_statement(stmt) -> None:
    """Well-formedness: one loop chain binding each variable once, and every
    access variable resolvable."""
    defs = relation_defs(relations_of(stmt))
    chain, leaf = forall_chain(stmt)
    env: dict = {}
    for f in chain:
        if f.var in env:
            raise TendistError(f"{f.var} bound twice in the loop chain")
        env[f.var] = (0, 1)
    for acc in leaf_accesses(leaf):
        for v in acc.var_names:
            var_interval(v, env, defs)


# derived-variable resolution

def _relation_names(rel) -> tuple:
    """Variable a split, divide or rotate defines, then its operands."""
    if isinstance(rel, Rotate):
        return (rel.target, rel.result, *rel.over)
    return (rel.var, rel.outer, rel.inner)


def relation_defs(relations) -> dict:
    """Defining relation of each derived variable; rejects two definitions of
    one variable and definitions that depend on themselves."""
    defs = {}
    for rel in relations:
        if isinstance(rel, (Split, Divide, Rotate)):
            name = _relation_names(rel)[0]
            if name in defs:
                raise TendistError(f"{name} defined by two relations")
            defs[name] = rel

    def visit(name, path):
        if name in path:
            raise TendistError(f"relations define {name} in terms of itself")
        if name in defs:
            for v in _relation_names(defs[name])[1:]:
                visit(v, path + (name,))

    for name in defs:
        visit(name, ())
    return defs


def _pick(cond, a, b):
    """a where cond holds, else b: a branch on Python ints, lane by lane on
    arrays (so integer input keeps Python ints)."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def var_interval(name: str, env: dict, defs: dict) -> tuple:
    """Half-open [lo, hi) of values `name` can take under interval env.

    Loop variables carry their range (a pinned variable is a unit interval);
    derived variables go through their defining relation, clipped by the
    guard extent. Intervals can come out empty at ragged edges, as (0, 0).
    A unit interval may also hold integer arrays, one lane per point of a
    box; then lo and hi come back as arrays, (0, 0) in the phantom lanes.
    """
    iv = env.get(name)
    if iv is not None:
        return iv
    rel = defs.get(name)
    if rel is None:
        raise UnboundVariable(f"{name} is neither loop-bound nor derivable")
    if isinstance(rel, Rotate):
        lo, hi = var_interval(rel.result, env, defs)
        unit, empty = hi - lo == 1, lo >= hi
        for v in rel.over:
            a, b = var_interval(v, env, defs)
            lo = lo + a
            unit = unit & (b - a == 1)
            empty = empty | (a >= b)
        lo = lo % rel.extent
        lo, hi = _pick(unit, lo, 0), _pick(unit, lo + 1, rel.extent)
        return _pick(empty, 0, lo), _pick(empty, 0, hi)
    olo, ohi = var_interval(rel.outer, env, defs)
    ilo, ihi = var_interval(rel.inner, env, defs)
    empty = (olo >= ohi) | (ilo >= ihi)
    b = rel.block
    lo = olo * b + ilo
    hi = (ohi - 1) * b + ihi
    lo, hi = _pick(lo < rel.extent, lo, rel.extent), _pick(hi < rel.extent, hi, rel.extent)
    return _pick(empty, 0, lo), _pick(empty, 0, hi)


def resolve_point(names, env: dict, defs: dict):
    """Integer values of all names under a unit-interval env, or None when
    the point is phantom (some name's interval is empty)."""
    out = {}
    for n in names:
        lo, hi = var_interval(n, env, defs)
        if lo >= hi:
            return None
        out[n] = lo
    return out


def unit_env(env: dict) -> dict:
    """Interval env pinning each variable of an integer env."""
    return {k: (v, v + 1) for k, v in env.items()}


# leaf kernel plugin registry

_LEAF_KERNELS: dict = {}

INTERPRETER_KERNEL = "interpreter"


def register_leaf_kernel(name: str, fn) -> None:
    _LEAF_KERNELS[name] = fn


def leaf_kernel_registered(name: str) -> bool:
    return name == INTERPRETER_KERNEL or name in _LEAF_KERNELS


@dataclass
class LeafRuntime:
    """What a substituted leaf kernel gets to work with.

    loops are the (var, lo, hi) triples of the substituted nest, outermost
    first. The kernel must produce the same writes in the same accumulation
    order as the plain interpreter would.
    """

    loops: list
    stmt: object  # Assign | Reduce | Place
    env: dict
    defs: dict
    read_store: dict
    out_store: dict

    @cached_property
    def _walk(self):
        return _box_walker(self.stmt, self.defs, self.read_store, self.out_store)

    def resolve(self, names, env):
        return resolve_point(names, unit_env(env), self.defs)

    def execute_point(self, env) -> None:
        self._walk([], unit_env(env))


_PASS_POINTS = 4096  # most points one vectorised resolution covers


def _box_walker(leaf, defs, read_store, out_store):
    """Executor of one leaf over a box of loops (var, lo, hi), outermost
    first, under an env of unit intervals for the loops around the box.

    The box is resolved in passes of at most _PASS_POINTS points. A pass
    binds its loops to aranges, resolves every name with one var_interval
    call, masks the phantom points and checks bounds before any write; then
    it walks the live points in chain order, each with scalar arithmetic.
    Loops outside a pass are walked one value at a time, setting the env in
    place; the outermost loop of a pass may be cut into chunks.
    """
    if isinstance(leaf, Place):
        return lambda loops, env: None
    accesses = [(leaf.lhs, out_store)] + [(a, read_store) for a in accesses_of(leaf.rhs)]
    names = tuple(dict.fromkeys(v for a, _ in accesses for v in a.var_names))
    shaped = [(a, store[a.tensor.name].dims) for a, store in accesses
              if a.tensor.name in store]
    limit: dict = {}
    for a, dims in shaped:
        for v, d in zip(a.var_names, dims):
            limit[v] = min(limit.get(v, d), d)
    limits = tuple((names.index(v), d) for v, d in limit.items())
    lhs = tuple(names.index(v) for v in leaf.lhs.var_names)
    rhs = leaf.rhs
    out = out_store[leaf.lhs.tensor.name].data
    assign = isinstance(leaf, Assign)

    def run_pass(loops, env):
        shape = tuple(hi - lo for _, lo, hi in loops)
        for axis, (var, lo, hi) in enumerate(loops):
            lanes = np.arange(lo, hi).reshape([-1 if k == axis else 1 for k in range(len(loops))])
            env[var] = (lanes, lanes + 1)
        values, live = [], True
        for n in names:
            lo, hi = var_interval(n, env, defs)
            values.append(lo)
            live = live & (lo < hi)
        live = np.broadcast_to(live, shape)
        values = [np.broadcast_to(v, shape)[live] for v in values]
        bad = False
        for k, d in limits:  # d: the smallest dimension names[k] indexes
            bad = bad | (values[k] < 0) | (values[k] >= d)
        if np.any(bad):
            first = int(np.argmax(bad))  # the first live point out of range
            at = {n: int(v[first]) for n, v in zip(names, values)}
            for a, dims in shaped:
                coord = tuple(at[n] for n in a.var_names)
                if not all(0 <= c < e for c, e in zip(coord, dims)):
                    raise OOBAccess(f"{a.tensor.name}{coord} outside dims {dims}")
        rows = zip(*(v.tolist() for v in values)) if names else [()] * int(live.sum())
        for row in rows:
            at = dict(zip(names, row))
            coord = tuple([row[k] for k in lhs])
            if assign:
                out[coord] = eval_expr(rhs, at, read_store)
            else:
                out[coord] += eval_expr(rhs, at, read_store)

    def walk(loops, env):
        sizes = [hi - lo for _, lo, hi in loops]
        if any(size <= 0 for size in sizes):
            return
        depth = 0  # loops above depth are walked a value at a time
        while math.prod(sizes[depth + 1:]) > _PASS_POINTS:
            depth += 1
        passes = [[]]
        if loops:  # loop depth is cut into chunks that fill a pass
            var, lo, hi = loops[depth]
            step = _PASS_POINTS // math.prod(sizes[depth + 1:])
            passes = [[(var, start, min(start + step, hi))] + loops[depth + 1:]
                      for start in range(lo, hi, step)]
        for outer in itertools.product(*(range(lo, hi) for _, lo, hi in loops[:depth])):
            env.update((var, (v, v + 1)) for (var, _, _), v in zip(loops, outer))
            for box in passes:
                run_pass(box, env)

    return walk


def interpret(stmt, store: dict) -> dict:
    """Execute a CIN statement against a single shared memory.

    Returns the store extended with the freshly created output; input tensors
    are never mutated, and the rhs reads the pre-statement values. An input
    of another order is an ExtentMismatch; other extents are bounds-checked.
    The loops from the outermost one a registered leaf kernel claims inward
    go to that kernel instead of the box walker.
    """
    chain, leaf = forall_chain(stmt)
    defs = relation_defs(relations_of(stmt))
    read_store = dict(store)
    out_store: dict = {}
    if not isinstance(leaf, Place):
        out_store[leaf.lhs.tensor.name] = DenseTensor(leaf.lhs.tensor.dims)
        for t in (a.tensor for a in accesses_of(leaf.rhs)):
            if t.name not in store:
                raise MissingInput(f"no value supplied for {t.name}")
            if len(store[t.name].dims) != len(t.dims):
                raise ExtentMismatch(
                    f"{t.name} value has dims {store[t.name].dims}, statement needs {t.dims}")
    loops = [(f.var, f.lo, f.hi) for f in chain]
    kernels = {rel.vars[0]: rel.kernel for rel in relations_of(stmt)
               if isinstance(rel, LeafKernel)}
    cut = next((at for at, f in enumerate(chain)
                if kernels.get(f.var, INTERPRETER_KERNEL) != INTERPRETER_KERNEL), None)
    with np.errstate(over="ignore", invalid="ignore"):
        if cut is None:
            _box_walker(leaf, defs, read_store, out_store)(loops, {})
            return {**store, **out_store}
        name = kernels[chain[cut].var]
        kernel = _LEAF_KERNELS.get(name)
        if kernel is None:
            raise TendistError(f"leaf kernel {name!r} is not registered")
        for outer in itertools.product(*(range(lo, hi) for _, lo, hi in loops[:cut])):
            ints = {var: v for (var, _, _), v in zip(loops, outer)}
            kernel(LeafRuntime(loops[cut:], leaf, ints, defs, read_store, out_store))
    return {**store, **out_store}


# pretty printing

def _name_set(names) -> str:
    if len(names) == 1:
        return names[0]
    return "{" + ", ".join(names) + "}"


def pretty_relation(rel) -> str:
    if isinstance(rel, Divide):
        return f"divide({rel.var}, {rel.outer}, {rel.inner}, {rel.parts})"
    if isinstance(rel, Split):
        return f"split({rel.var}, {rel.outer}, {rel.inner}, {rel.chunk})"
    if isinstance(rel, Distribute):
        return f"distribute({rel.var})"
    if isinstance(rel, Rotate):
        inner = ", ".join(rel.over)
        return f"rotate({rel.target}, {{{inner}}}, {rel.result})"
    if isinstance(rel, Communicate):
        return f"communicate({_name_set(rel.tensors)}, {rel.var})"
    if isinstance(rel, LeafKernel):
        return f"leaf({{{', '.join(rel.vars)}}}, {rel.kernel})"
    raise TendistError(f"cannot print {rel!r}")


def pretty(stmt) -> str:
    if isinstance(stmt, Suchthat):
        rels = ", ".join(pretty_relation(r) for r in stmt.relations)
        return f"{pretty(stmt.body)} s.t. {rels}" if rels else pretty(stmt.body)
    if isinstance(stmt, Forall):
        head = f"forall({stmt.var}={stmt.lo})" if stmt.lo > 0 and stmt.extent == 1 else f"forall({stmt.var})"
        return f"{head} {pretty(stmt.body)}"
    if isinstance(stmt, Assign):
        return f"{format_expr(stmt.lhs)} = {format_expr(stmt.rhs)}"
    if isinstance(stmt, Reduce):
        return f"{format_expr(stmt.lhs)} += {format_expr(stmt.rhs)}"
    if isinstance(stmt, Place):
        return format_expr(stmt.access)
    raise TendistError(f"cannot print {stmt!r}")
