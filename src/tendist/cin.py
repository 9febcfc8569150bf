"""Concrete index notation: explicit loop nests plus side relations.

A statement is one LoopNest: a tuple of Foralls, outermost first, over one
leaf (Assign, Reduce or Place), with the relations (divide, split,
distribute, rotate, communicate) that govern its variables.
That is the `forall(i) forall(j) ... s.t. ...` form `pretty` prints; passes
read the three fields and build new statements with `dataclasses.replace`.

Derived-variable arithmetic:
    divide(i, io, ii, parts): i = io * ceil(extent/parts) + ii, guarded i < extent
    split(i, io, ii, chunk):  i = io * chunk + ii, guarded i < extent
    rotate(t, I, r):          t = (r + sum(I)) mod extent(t)

One resolver, `var_interval`, carries that arithmetic from loop-variable
intervals to derived-variable intervals, also on lanes: `lane_env` binds each
loop to the unit intervals of an arange on its own broadcast axis, so a
derived variable comes out as one interval per lane of the axes it reads,
empty where a divide or split guard fails. The simulator's launch loops are
lanes, one per task (`lane_boxes`); so are the interpreter's loops, and a
point with an empty lane is phantom and does nothing. One walker (`_walk`)
runs a statement, or a whole launch of it in waves: it compiles the leaf's
right-hand side once (`ir.compile_expr`) and resolves each index name once
on its own axes, then walks the box in passes of at most 16,384 points that
only take views of those arrays, gather (each access one gather with
broadcast index arrays) and write. The writes land in chain order
(`np.add.at` for a reduction, the last point per element for an
assignment), so every element sees the float64 operations of a plain loop
nest in the same order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ExtentMismatch, MissingInput, OOBAccess, TendistError, UnboundVariable,
                     UnknownVar)
from .ir import (_PASS_POINTS, Access, TensorIndexStmt, accesses_of, compile_expr, format_expr,
                 index_getter)
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


# statements

@dataclass(frozen=True)
class Forall:
    var: str
    lo: int
    hi: int

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
class LoopNest:
    loops: tuple  # tuple[Forall, ...], outermost first
    leaf: object  # Assign | Reduce | Place
    relations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "loops", tuple(self.loops))
        object.__setattr__(self, "relations", tuple(self.relations))
        if not isinstance(self.leaf, (Assign, Reduce, Place)):
            raise TendistError(f"a statement's leaf is an Assign, Reduce or Place, "
                               f"not a {type(self.leaf).__name__}")
        for f in self.loops:
            if not isinstance(f, Forall):
                raise TendistError(f"a statement's loops are Foralls, not a {type(f).__name__}")


def lower_to_cin(stmt: TensorIndexStmt) -> LoopNest:
    """One Forall per variable (free vars then reduction vars), reduction
    statements become `+=` over a zero-initialized output."""
    leaf = Reduce(stmt.lhs, stmt.rhs) if stmt.reduction_vars else Assign(stmt.lhs, stmt.rhs)
    return LoopNest([Forall(n, 0, stmt.extents[n]) for n in stmt.var_order], leaf)


def claimed_names(stmt) -> set:
    """Every variable name the statement already uses, loop-bound or derived."""
    names = {f.var for f in stmt.loops}
    for rel in stmt.relations:
        if isinstance(rel, (Split, Divide, Rotate)):
            names.update(_relation_names(rel))
    for acc in leaf_accesses(stmt.leaf):
        names.update(acc.indices)
    return names


def leaf_accesses(leaf) -> list:
    if isinstance(leaf, Place):
        return [leaf.access]
    return [leaf.lhs] + accesses_of(leaf.rhs)


def check_statement(stmt) -> None:
    """Well-formedness: one loop chain binding each variable once, every
    distribute and communicate relation on one of its loops, and every
    access variable resolvable."""
    defs = relation_defs(stmt.relations)
    env: dict = {}
    for f in stmt.loops:
        if f.var in env:
            raise TendistError(f"{f.var} bound twice in the loop chain")
        env[f.var] = (0, 1)
    for rel in stmt.relations:
        if isinstance(rel, (Distribute, Communicate)) and rel.var not in env:
            raise UnknownVar(f"{pretty_relation(rel)}: no loop binds {rel.var}")
    for acc in leaf_accesses(stmt.leaf):
        for v in acc.indices:
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


def reached_vars(names, defs) -> set:
    """names plus every variable their defining relations read, transitively:
    each variable a resolution of names may look up."""
    out, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name not in out:
            out.add(name)
            if name in defs:
                todo.extend(_relation_names(defs[name])[1:])
    return out


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


def lane_env(loops) -> dict:
    """Interval env binding each loop (var, lo, hi) to the unit intervals
    (v, v + 1) of an arange on its own broadcast axis, one lane per value."""
    axes = np.ix_(*(np.arange(lo, hi) for _, lo, hi in loops))
    return {var: (lanes, lanes + 1) for (var, _, _), lanes in zip(loops, axes)}


def lane_boxes(names, env, defs) -> tuple:
    """lo and hi of each name at each point of env's lane grid in C order, as
    two int64 arrays of points x names: one var_interval call per name."""
    grid = np.broadcast_shapes(*(np.shape(b) for iv in env.values() for b in iv))
    lo, hi = np.empty((2, len(names)) + grid, np.int64)
    for k, n in enumerate(names):
        lo[k], hi[k] = var_interval(n, env, defs)
    return tuple(a.reshape(len(names), math.prod(grid)).T for a in (lo, hi))


def _resolve(name, env, defs, dim) -> tuple:
    """name's lo at each lane of env, clipped into [0, dim) so phantom lanes
    gather in range; where it is live (lo < hi); and where lo falls outside
    [0, dim). The last two are None where they hold at every lane, or at
    none."""
    lo, hi = var_interval(name, env, defs)
    live, outside = np.less(lo, hi), np.less(lo, 0) | np.greater_equal(lo, dim)
    return (np.clip(lo, 0, dim - 1), None if live.all() else live,
            outside if outside.any() else None)


def _phantom_bounds(names, span, defs) -> dict:
    """A bound for each loop under span (var -> (lo, hi)) at or past which
    every point is phantom. A split or divide's v = outer * block + inner
    must stay below its extent, and below any bound on v itself: so, with
    the outer at 0 or above, must the inner, and with the inner at 0 or
    above the outer must stay below ceil(bound / block)."""
    bound: dict = {}
    todo = [(n, math.inf) for n in names]
    while todo:
        name, cap = todo.pop()
        rel = defs.get(name)
        if name in span:
            bound[name] = min(bound.get(name, cap), cap)
        elif isinstance(rel, (Split, Divide)):
            cap = min(cap, rel.extent)
            if var_interval(rel.outer, span, defs)[0] >= 0:
                todo.append((rel.inner, cap))
            if var_interval(rel.inner, span, defs)[0] >= 0:
                todo.append((rel.outer, -(-cap // rel.block)))
    return bound


def _walk(leaf, loops, defs, read_store, buffer, waves, into) -> None:
    """Run one leaf over a box of loops (var, lo, hi), outermost first, once
    per wave (pins, at): pins maps some loops to the one value each takes in
    that wave.

    The leaf is compiled once: the rhs (`ir.compile_expr`), the lhs getter
    and the dimension each name indexes. Each name is resolved once, by one
    var_interval call on the whole box, its loops bound to aranges on their
    own broadcast axes (`lane_env`), so it keeps the axes it reads, pinned
    loops included; liveness, the bounds check and clipping run once on
    those small arrays. Clipping moves only phantom lanes, which are never
    written. A name whose lanes over the whole box would exceed
    _PASS_POINTS is resolved per pass instead, so no array but the buffer
    grows with the box. A split's loops are walked only below their
    `_phantom_bounds`: a chunk far past its split's extent costs nothing.

    Each wave walks the box in passes of at most _PASS_POINTS points: the
    loops above a pass are walked a value at a time, and the outermost loop
    of a pass may be cut into chunks. A pass takes views of the names'
    arrays, evaluates the rhs once on them, and writes the live points'
    results into `buffer` in chain order: a reduction adds with np.add.at,
    which applies repeated indices one at a time in index order; an
    assignment keeps the last point that writes each element. A wave with
    flat positions `at` then folds buffer[at] into `into` (a reduction adds,
    an assignment copies) and zeroes them, so the next wave starts from
    zeros; a wave's writes stay within its `at`. A wave without one leaves
    its result in the buffer.
    """
    if isinstance(leaf, Place):
        return
    accesses = [(leaf.lhs, buffer)] + [(a, read_store[a.tensor.name].data)
                                       for a in accesses_of(leaf.rhs)]
    names = tuple(dict.fromkeys(v for a, _ in accesses for v in a.indices))
    shaped = [(a, data.shape) for a, data in accesses]
    limit: dict = {}
    for a, dims in shaped:
        for v, d in zip(a.indices, dims):
            limit[v] = min(limit.get(v, d), d)
    lget = index_getter(leaf.lhs, names)
    rhs = compile_expr(leaf.rhs, names, read_store)
    flat = buffer.reshape(-1)  # a view: DenseTensor data is contiguous
    assign = isinstance(leaf, Assign)
    whole: dict = {}  # name -> (value, live, outside) on every loop's axis
    if all(hi > lo for _, lo, hi in loops):
        span = {var: (lo, hi) for var, lo, hi in loops}
        for n in names:  # an unbound name raises before any write
            var_interval(n, span, defs)
        bound = _phantom_bounds(names, span, defs)
        loops = [(var, lo, max(lo, min(hi, bound.get(var, hi)))) for var, lo, hi in loops]
        size = {var: hi - lo for var, lo, hi in loops}
        env = lane_env(loops)
        for n in names:
            if math.prod(size.get(v, 1) for v in reached_vars([n], defs)) <= _PASS_POINTS:
                whole[n] = _resolve(n, env, defs, limit[n])

    def run_pass(walked, box):
        shape = tuple(hi - lo for _, lo, hi in box)
        key = tuple(v - lo for v, (_, lo, _) in zip(walked, loops)) + tuple(
            slice(a - lo, b - lo) for (_, a, b), (_, lo, _) in zip(box, loops[len(walked):]))
        blank = (0,) * len(walked) + (slice(None),) * len(box)

        def view(a):
            return None if a is None else a[tuple(
                k if n > 1 else b for k, b, n in zip(key, blank, a.shape))]

        def box_env():  # the walked loops at their values, the box as lanes
            env = {var: (v, v + 1) for (var, _, _), v in zip(loops, walked)}
            env.update(lane_env(box))
            return env

        env = None
        values, live, outside = [], None, []
        for n in names:
            if n in whole:
                value, alive, out = map(view, whole[n])
            else:
                env = box_env() if env is None else env
                value, alive, out = _resolve(n, env, defs, limit[n])
            values.append(value)
            if alive is not None:
                live = alive if live is None else live & alive
            if out is not None:
                outside.append(out)
        if outside:
            bad = functools.reduce(np.logical_or, outside)
            bad = np.broadcast_to(bad if live is None else bad & live, shape)
            if bad.any():  # name the first live point out of range
                first = np.unravel_index(int(np.argmax(bad)), shape)
                env = box_env()
                at = {n: int(np.broadcast_to(var_interval(n, env, defs)[0], shape)[first])
                      for n in names}
                for a, dims in shaped:
                    coord = tuple(at[n] for n in a.indices)
                    if not all(0 <= c < e for c, e in zip(coord, dims)):
                        raise OOBAccess(f"{a.tensor.name}{coord} outside dims {dims}")
        index = lget(values)  # a bare array for a one-index lhs
        at = np.ravel_multi_index(index if isinstance(index, tuple) else (index,), buffer.shape)
        at, value = np.broadcast_to(at, shape), np.broadcast_to(rhs(values), shape)
        if live is None:
            at, value = at.reshape(-1), value.reshape(-1)
        else:
            live = np.broadcast_to(live, shape)
            at, value = at[live], value[live]
        if assign:
            # repeated fancy assignment promises no order: keep each
            # element's last point in chain order
            _, last = np.unique(at[::-1], return_index=True)
            keep = at.size - 1 - last
            flat[at[keep]] = value[keep]
        else:
            np.add.at(flat, at, value)

    for pins, at in waves:
        wave = [(var, pins[var], min(pins[var] + 1, hi)) if var in pins else (var, lo, hi)
                for var, lo, hi in loops]
        sizes = [hi - lo for _, lo, hi in wave]
        if all(size > 0 for size in sizes):
            depth = 0  # loops above depth are walked a value at a time
            while math.prod(sizes[depth + 1:]) > _PASS_POINTS:
                depth += 1
            boxes = [[]]
            if wave:  # loop depth is cut into chunks that fill a pass
                var, lo, hi = wave[depth]
                step = _PASS_POINTS // math.prod(sizes[depth + 1:])
                boxes = [[(var, start, min(start + step, hi))] + wave[depth + 1:]
                         for start in range(lo, hi, step)]
            for walked in itertools.product(*(range(lo, hi) for _, lo, hi in wave[:depth])):
                for box in boxes:
                    run_pass(walked, box)
        if at is not None:
            target = into.reshape(-1)
            if assign:
                target[at] = flat[at]
            else:
                target[at] += flat[at]
            flat[at] = 0.0


def interpret(stmt, store: dict, *, waves=None, into=None) -> dict:
    """Execute a CIN statement against a single shared memory.

    Returns the store extended with the freshly created output; input tensors
    are never mutated, and the rhs reads the pre-statement values. An input
    of another order is an ExtentMismatch; other extents are bounds-checked.
    Each output element gets the float64 operations of a scalar loop nest in
    chain order, bit for bit, except the sign and payload of a NaN, which
    IEEE 754 leaves open: numpy's array arithmetic may keep another operand's
    NaN than its scalar arithmetic does.

    That is the one-wave case of a launch (the simulator's `execute`): with
    `waves`, a list of (pins, at), the statement runs once per wave with the
    loops in pins (var -> value) pinned, and each wave's output at the flat
    positions `at` is folded into the tensor `into` before the next wave
    runs (`_walk`); the result then holds `into` as the output.
    """
    leaf = stmt.leaf
    defs = relation_defs(stmt.relations)
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
    loops = [(f.var, f.lo, f.hi) for f in stmt.loops]
    buffer = out_store[leaf.lhs.tensor.name].data if out_store else None
    with np.errstate(over="ignore", invalid="ignore"):
        _walk(leaf, loops, defs, read_store, buffer, [({}, None)] if waves is None else waves,
              None if into is None else into.data)
    if into is not None:
        out_store[leaf.lhs.tensor.name] = into
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
    raise TendistError(f"cannot print {rel!r}")


def pretty(stmt) -> str:
    if isinstance(stmt, LoopNest):
        text = " ".join([f"forall({f.var}={f.lo})" if f.lo > 0 and f.extent == 1
                         else f"forall({f.var})" for f in stmt.loops] + [pretty(stmt.leaf)])
        rels = ", ".join(pretty_relation(r) for r in stmt.relations)
        return f"{text} s.t. {rels}" if rels else text
    if isinstance(stmt, Assign):
        return f"{format_expr(stmt.lhs)} = {format_expr(stmt.rhs)}"
    if isinstance(stmt, Reduce):
        return f"{format_expr(stmt.lhs)} += {format_expr(stmt.rhs)}"
    if isinstance(stmt, Place):
        return format_expr(stmt.access)
    raise TendistError(f"cannot print {stmt!r}")
