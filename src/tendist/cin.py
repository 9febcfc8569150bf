"""Concrete index notation: explicit loop nests plus side relations.

Statements are trees of Forall / Assign / Reduce / Place / Seq with an
optional Suchthat wrapper carrying relations (divide, split, distribute,
rotate, communicate, leaf kernels). Relations name the variables they govern,
so the package canonicalizes them onto a single root Suchthat; nested
Suchthat nodes are flattened on construction.

Derived-variable arithmetic:
    divide(i, io, ii, parts): i = io * ceil(extent/parts) + ii, guarded i < extent
    split(i, io, ii, chunk):  i = io * chunk + ii, guarded i < extent
    rotate(t, I, r):          t = (r + sum(I)) mod extent(t)
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OOBAccess, TendistError, UnboundVariable
from .ir import Access, Add, Const, Mul, TensorIndexStmt, accesses_of, format_expr
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
class Seq:
    stmts: tuple


@dataclass(frozen=True)
class Suchthat:
    body: "CinStmt"
    relations: tuple


CinStmt = object  # union of the six node classes


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
    node = leaf
    for name in reversed(stmt.var_order):
        node = forall(name, stmt.extents[name], node)
    return node


# structure helpers

def forall_chain(stmt):
    """Directly nested Foralls from the root (after any Suchthat), plus the
    statement below them."""
    node = body_of(stmt)
    chain = []
    while isinstance(node, Forall):
        chain.append(node)
        node = node.body
    return chain, node


def rebuild_chain(chain, innermost):
    node = innermost
    for f in reversed(chain):
        node = Forall(f.var, f.lo, f.hi, node)
    return node


def loop_nest_order(stmt) -> list:
    """Forall variables outermost to innermost along the single nest."""
    if isinstance(body_of(stmt), Seq):
        raise TendistError("statement is a sequence; use loop_nests for per-branch lists")
    chain, below = forall_chain(stmt)
    out = [f.var for f in chain]
    node = below
    while isinstance(node, Forall):  # non-straight trees cannot occur today
        out.append(node.var)
        node = node.body
    return out


def loop_nests(stmt) -> list:
    """Per-branch loop orders; one list per Seq element."""
    node = body_of(stmt)
    if isinstance(node, Seq):
        out = []
        for s in node.stmts:
            out.extend(loop_nests(s))
        return out
    return [loop_nest_order(node)]


def bound_vars(stmt) -> list:
    node = body_of(stmt)
    if isinstance(node, Seq):
        out = []
        for s in node.stmts:
            out.extend(bound_vars(s))
        return out
    if isinstance(node, Forall):
        return [node.var] + bound_vars(node.body)
    return []


def claimed_names(stmt) -> set:
    """Every variable name the statement already uses, loop-bound or derived."""
    names = set(bound_vars(stmt))
    for rel in relations_of(stmt):
        if isinstance(rel, (Split, Divide)):
            names.update((rel.var, rel.outer, rel.inner))
        elif isinstance(rel, Rotate):
            names.update((rel.target, rel.result, *rel.over))
    for leaf in leaf_statements(stmt):
        for acc in leaf_accesses(leaf):
            names.update(acc.var_names)
    return names


def leaf_statements(stmt) -> list:
    node = body_of(stmt)
    if isinstance(node, Seq):
        out = []
        for s in node.stmts:
            out.extend(leaf_statements(s))
        return out
    while isinstance(node, Forall):
        node = body_of(node.body)
    return [node]


def leaf_accesses(leaf) -> list:
    if isinstance(leaf, (Assign, Reduce)):
        return [leaf.lhs] + accesses_of(leaf.rhs)
    if isinstance(leaf, Place):
        return [leaf.access]
    raise TendistError(f"not a leaf statement: {leaf!r}")


def check_statement(stmt) -> None:
    """Well-formedness: unique binders per path, resolvable access variables."""

    def check_path(node, bound):
        if isinstance(node, Suchthat):
            check_path(node.body, bound)
        elif isinstance(node, Seq):
            for s in node.stmts:
                check_path(s, set(bound))
        elif isinstance(node, Forall):
            if node.var in bound:
                raise TendistError(f"{node.var} bound twice on one path")
            check_path(node.body, bound | {node.var})
        else:
            defs = relation_defs(relations_of(stmt))

            def resolvable(name, seen=frozenset()):
                if name in bound:
                    return True
                if name in seen:
                    return False
                rel = defs.get(name)
                if rel is None:
                    return False
                seen = seen | {name}
                if isinstance(rel, (Split, Divide)):
                    return resolvable(rel.outer, seen) and resolvable(rel.inner, seen)
                return resolvable(rel.result, seen) and all(resolvable(v, seen) for v in rel.over)

            for acc in leaf_accesses(node):
                for v in acc.var_names:
                    if not resolvable(v):
                        raise UnboundVariable(f"{v} is neither loop-bound nor derivable")

    check_path(body_of(stmt), set())


# derived-variable resolution

def relation_defs(relations) -> dict:
    defs = {}
    for rel in relations:
        if isinstance(rel, (Split, Divide)):
            if rel.var in defs:
                raise TendistError(f"{rel.var} defined by two relations")
            defs[rel.var] = rel
        elif isinstance(rel, Rotate):
            if rel.target in defs:
                raise TendistError(f"{rel.target} defined by two relations")
            defs[rel.target] = rel
    return defs


_PHANTOM = object()


def resolve_var(name: str, env: dict, defs: dict):
    """Value of `name` under env, or _PHANTOM when a divide/split guard fails."""
    if name in env:
        return env[name]
    rel = defs.get(name)
    if rel is None:
        raise UnboundVariable(f"no binding or relation for {name}")
    if isinstance(rel, (Split, Divide)):
        o = resolve_var(rel.outer, env, defs)
        i = resolve_var(rel.inner, env, defs)
        if o is _PHANTOM or i is _PHANTOM:
            return _PHANTOM
        val = o * rel.block + i
        return val if val < rel.extent else _PHANTOM
    r = resolve_var(rel.result, env, defs)
    if r is _PHANTOM:
        return _PHANTOM
    off = 0
    for v in rel.over:
        x = resolve_var(v, env, defs)
        if x is _PHANTOM:
            return _PHANTOM
        off += x
    return (r + off) % rel.extent


def resolve_point(names, env: dict, defs: dict):
    """Resolved values for all names, or None when the point is phantom."""
    out = {}
    for n in names:
        v = resolve_var(n, env, defs)
        if v is _PHANTOM:
            return None
        out[n] = v
    return out


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

    def resolve(self, names, env):
        return resolve_point(names, env, self.defs)

    def execute_point(self, env) -> None:
        _run_leaf(self.stmt, env, self.defs, self.read_store, self.out_store)


def _eval_resolved(expr, resolved: dict, store: dict) -> float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Access):
        coord = tuple(resolved[v] for v in expr.var_names)
        t = store[expr.tensor.name]
        for c, d in zip(coord, t.dims):
            if not 0 <= c < d:
                raise OOBAccess(f"{expr.tensor.name}{coord} outside dims {t.dims}")
        return float(t.data[coord])
    if isinstance(expr, Add):
        return _eval_resolved(expr.lhs, resolved, store) + _eval_resolved(expr.rhs, resolved, store)
    if isinstance(expr, Mul):
        return _eval_resolved(expr.lhs, resolved, store) * _eval_resolved(expr.rhs, resolved, store)
    raise TendistError(f"cannot evaluate {expr!r}")


def _run_leaf(leaf, env, defs, read_store, out_store) -> None:
    if isinstance(leaf, Place):
        return
    names = set(leaf.lhs.var_names)
    for acc in accesses_of(leaf.rhs):
        names.update(acc.var_names)
    resolved = resolve_point(names, env, defs)
    if resolved is None:
        return
    out = out_store[leaf.lhs.tensor.name]
    coord = tuple(resolved[v] for v in leaf.lhs.var_names)
    for c, d in zip(coord, out.dims):
        if not 0 <= c < d:
            raise OOBAccess(f"{leaf.lhs.tensor.name}{coord} outside dims {out.dims}")
    val = _eval_resolved(leaf.rhs, resolved, read_store)
    if isinstance(leaf, Assign):
        out.data[coord] = val
    else:
        out.data[coord] += val


def interpret(stmt, store: dict) -> dict:
    """Execute a CIN statement against a single shared memory.

    Returns the store extended with freshly created outputs; input tensors are
    never mutated. Within one leaf statement the rhs reads the pre-statement
    values; across Seq elements outputs become visible to later elements.
    """
    read_store = dict(store)
    produced: dict = {}
    rels = relations_of(stmt)
    kernels = {rel.vars[0]: rel for rel in rels if isinstance(rel, LeafKernel)}

    def kernel_for(node):
        rel = kernels.get(node.var)
        if rel is None or rel.kernel == INTERPRETER_KERNEL:
            return None
        fn = _LEAF_KERNELS.get(rel.kernel)
        if fn is None:
            raise TendistError(f"leaf kernel {rel.kernel!r} is not registered")
        return fn

    def ensure_outputs(node, out_store):
        for leaf in leaf_statements(node):
            if isinstance(leaf, (Assign, Reduce)):
                t = leaf.lhs.tensor
                if t.name not in out_store:
                    out_store[t.name] = DenseTensor(t.dims)

    def walk(node, env, defs, out_store):
        if isinstance(node, Suchthat):
            walk(node.body, env, relation_defs(node.relations) | defs, out_store)
        elif isinstance(node, Seq):
            for s in node.stmts:
                local_out: dict = {}
                ensure_outputs(s, local_out)
                walk(s, env, defs, local_out)
                read_store.update(local_out)
                produced.update(local_out)
        elif isinstance(node, Forall):
            fn = kernel_for(node)
            if fn is not None:
                loops, leaf = _leaf_nest(node)
                fn(LeafRuntime(loops, leaf, dict(env), defs, read_store, out_store))
                return
            for v in range(node.lo, node.hi):
                env[node.var] = v
                walk(node.body, env, defs, out_store)
            env.pop(node.var, None)
        else:
            _run_leaf(node, env, defs, read_store, out_store)

    top = body_of(stmt)
    out_store: dict = {}
    if not isinstance(top, Seq):
        ensure_outputs(top, out_store)
    walk(top, {}, relation_defs(rels), out_store)
    produced.update(out_store)
    return {**store, **produced}


def _leaf_nest(node):
    loops = []
    while isinstance(node, Forall):
        loops.append((node.var, node.lo, node.hi))
        node = body_of(node.body) if isinstance(node.body, Suchthat) else node.body
    return loops, node


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
    if isinstance(stmt, Seq):
        return " ; ".join(pretty(s) for s in stmt.stmts)
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
