"""Scheduling commands: rewrites over concrete index notation.

Each command takes and returns a whole statement; relations accumulate on the
root Suchthat. Commands validate their preconditions and re-check statement
well-formedness after rewriting, so a chain of commands can never produce an
unrunnable statement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cin import (
    Communicate,
    Distribute,
    Divide,
    Forall,
    LeafKernel,
    Place,
    Reduce,
    Assign,
    Rotate,
    Seq,
    Split,
    Suchthat,
    add_relations,
    body_of,
    bound_vars,
    check_statement,
    claimed_names,
    leaf_accesses,
    leaf_statements,
    leaf_kernel_registered,
    relations_of,
    with_relations,
)
from .errors import (
    ConfigError,
    DimCountMismatch,
    IBelowT,
    NotContiguousNest,
    NotInnermost,
    NotPermutation,
    NonFreshVar,
    UnknownTensor,
    UnknownVar,
)


def _map_forall(body, var, fn):
    hits = []

    def walk(node):
        if isinstance(node, Forall):
            if node.var == var:
                hits.append(node)
                return fn(node)
            return Forall(node.var, node.lo, node.hi, walk(node.body))
        if isinstance(node, Seq):
            return Seq(tuple(walk(s) for s in node.stmts))
        if isinstance(node, Suchthat):
            return Suchthat(walk(node.body), node.relations)
        return node

    out = walk(body)
    if not hits:
        raise UnknownVar(f"no loop binds {var}")
    return out


def _require_fresh(stmt, *names):
    used = claimed_names(stmt)
    for n in names:
        if n in used:
            raise NonFreshVar(f"{n} is already in use")
    if len(set(names)) != len(names):
        raise NonFreshVar(f"fresh names must be distinct: {names}")


def _checked(stmt):
    check_statement(stmt)
    return stmt


def split(stmt, i: str, io: str, ii: str, chunk: int):
    """i -> io (count ceil(extent/chunk)) over ii (size chunk), guarded i < extent."""
    if chunk < 1:
        raise ConfigError(f"split chunk must be positive, got {chunk}")
    _require_fresh(stmt, io, ii)

    rel = []

    def rewrite(node):
        if node.lo != 0:
            raise ConfigError(f"cannot split pinned loop {node.var}")
        e = node.extent
        rel.append(Split(i, io, ii, chunk, e))
        return Forall(io, 0, -(-e // chunk), Forall(ii, 0, chunk, node.body))

    out = _map_forall(body_of(stmt), i, rewrite)
    return _checked(with_relations(out, relations_of(stmt) + tuple(rel)))


def divide(stmt, i: str, io: str, ii: str, parts: int):
    """i -> io (count parts) over ii (size ceil(extent/parts)), guarded i < extent."""
    if parts < 1:
        raise ConfigError(f"divide parts must be positive, got {parts}")
    _require_fresh(stmt, io, ii)

    rel = []

    def rewrite(node):
        if node.lo != 0:
            raise ConfigError(f"cannot divide pinned loop {node.var}")
        e = node.extent
        rel.append(Divide(i, io, ii, parts, e))
        return Forall(io, 0, parts, Forall(ii, 0, -(-e // parts), node.body))

    out = _map_forall(body_of(stmt), i, rewrite)
    return _checked(with_relations(out, relations_of(stmt) + tuple(rel)))


def reorder(stmt, order):
    """Permute a directly nested loop chain; order lists the new arrangement."""
    order = list(order)
    want = set(order)
    if len(want) != len(order):
        raise NotPermutation(f"duplicate names in reorder {order}")
    done = []

    def walk(node):
        if isinstance(node, Forall):
            if node.var in want:
                seg, cur = [], node
                while isinstance(cur, Forall) and cur.var in want:
                    seg.append(cur)
                    cur = cur.body
                names = {f.var for f in seg}
                if names != want:
                    missing = want - names
                    if missing & set(bound_vars(stmt)):
                        raise NotContiguousNest(
                            f"reorder targets {sorted(want)} are not directly nested"
                        )
                    raise UnknownVar(f"no loop binds {sorted(missing)}")
                by = {f.var: f for f in seg}
                inner = walk(cur)
                for v in reversed(order):
                    f = by[v]
                    inner = Forall(f.var, f.lo, f.hi, inner)
                done.append(True)
                return inner
            return Forall(node.var, node.lo, node.hi, walk(node.body))
        if isinstance(node, Seq):
            return Seq(tuple(walk(s) for s in node.stmts))
        return node

    out = walk(body_of(stmt))
    if not done:
        raise UnknownVar(f"no loop binds any of {order}")
    return _checked(with_relations(out, relations_of(stmt)))


def distribute(stmt, i: str):
    """Mark loop i as distributed. Marking only; no reordering."""
    if i not in bound_vars(stmt):
        raise UnknownVar(f"no loop binds {i}")
    return _checked(add_relations(stmt, Distribute(i)))


def distribute_grid(stmt, targets, dist_vars, local_vars, dims):
    """Compound distribute: divide each target by its machine dim, bring the
    distributed loops outermost (targets order), distribute each."""
    targets, dist_vars, local_vars = list(targets), list(dist_vars), list(local_vars)
    dims = list(dims)
    if not (len(targets) == len(dist_vars) == len(local_vars) == len(dims)):
        raise DimCountMismatch(
            f"distribute needs matching lists, got {len(targets)}/{len(dist_vars)}"
            f"/{len(local_vars)}/{len(dims)}"
        )
    out = stmt
    for t, d, l, g in zip(targets, dist_vars, local_vars, dims):
        out = divide(out, t, d, l, g)
    out = reorder(out, dist_vars + local_vars)
    for d in dist_vars:
        out = distribute(out, d)
    return out


def communicate(stmt, tensors, i: str):
    """Aggregate data movement for the named tensors at loop i's iterations."""
    if isinstance(tensors, str):
        tensors = (tensors,)
    tensors = tuple(tensors)
    if i not in bound_vars(stmt):
        raise UnknownVar(f"no loop binds {i}")
    seen = set()
    for leaf in leaf_statements(stmt):
        for acc in leaf_accesses(leaf):
            seen.add(acc.tensor.name)
    for t in tensors:
        if t not in seen:
            raise UnknownTensor(f"{t} is not accessed by the statement")
    return _checked(add_relations(stmt, Communicate(tensors, i)))


def _enclosing(body, var):
    """Loop variables bound strictly above var's loop."""
    out = []

    def walk(node, stack):
        if isinstance(node, Forall):
            if node.var == var:
                out.append(list(stack))
                return
            walk(node.body, stack + [node.var])
        elif isinstance(node, Seq):
            for s in node.stmts:
                walk(s, stack)
        elif isinstance(node, Suchthat):
            walk(node.body, stack)

    walk(body, [])
    if not out:
        raise UnknownVar(f"no loop binds {var}")
    return out[0]


def rotate(stmt, t: str, over, r: str):
    """Replace loop t with loop r of the same extent; t = (r + sum(over)) mod
    extent(t). Communicate relations naming t now aggregate on r."""
    over = tuple(over)
    _require_fresh(stmt, r)
    above = _enclosing(body_of(stmt), t)
    for v in over:
        if v not in above:
            raise IBelowT(f"rotate offset {v} does not enclose {t}")

    rel = []

    def rewrite(node):
        if node.lo != 0:
            raise ConfigError(f"cannot rotate pinned loop {node.var}")
        rel.append(Rotate(t, over, r, node.extent))
        return Forall(r, 0, node.extent, node.body)

    out = _map_forall(body_of(stmt), t, rewrite)
    rels = tuple(
        Communicate(x.tensors, r) if isinstance(x, Communicate) and x.var == t else x
        for x in relations_of(stmt)
    )
    return _checked(with_relations(out, rels + tuple(rel)))


def substitute_leaf(stmt, vars_, kernel: str):
    """Dispatch the innermost nest over vars_ to a registered leaf kernel."""
    vars_ = tuple(vars_)
    if not vars_:
        raise ConfigError("substitute_leaf needs at least one loop")
    if not leaf_kernel_registered(kernel):
        raise ConfigError(f"leaf kernel {kernel!r} is not registered")

    def check(node):
        for v in vars_:
            if not isinstance(node, Forall) or node.var != v:
                raise NotInnermost(f"{list(vars_)} is not the innermost nest")
            node = node.body
        if isinstance(node, Forall):
            raise NotInnermost(f"loops remain under {vars_[-1]}")
        if not isinstance(node, (Assign, Reduce, Place)):
            raise NotInnermost(f"{vars_[-1]} does not wrap the leaf statement")

    found = []

    def walk(node):
        if isinstance(node, Forall):
            if node.var == vars_[0]:
                check(node)
                found.append(True)
                return
            walk(node.body)
        elif isinstance(node, Seq):
            for s in node.stmts:
                walk(s)
        elif isinstance(node, Suchthat):
            walk(node.body)

    walk(body_of(stmt))
    if not found:
        raise UnknownVar(f"no loop binds {vars_[0]}")
    return _checked(add_relations(stmt, LeafKernel(vars_, kernel)))


# the command table

def _names(text: str) -> tuple:
    return tuple(text.split(","))


def _dims(text: str) -> tuple:
    return tuple(int(d) for d in text.split("x"))


# script word -> (command, one parser per argument). Schedule.apply,
# Schedule.steps and parse_schedule all dispatch through this table; the
# builder methods push the same words. None: one or more loop names.
_COMMANDS = {
    "split": (split, (str, str, str, int)),
    "divide": (divide, (str, str, str, int)),
    "reorder": (lambda stmt, *order: reorder(stmt, order), None),
    "distribute": (distribute, (str,)),
    "distribute_grid": (distribute_grid, (_names, _names, _names, _dims)),
    "communicate": (communicate, (_names, str)),
    "rotate": (rotate, (str, _names, str)),
    "leaf": (substitute_leaf, (_names, str)),
}


def _lookup(name: str) -> tuple:
    if name not in _COMMANDS:
        raise ConfigError(f"unknown command {name!r}")
    return _COMMANDS[name]


@dataclass(frozen=True)
class Schedule:
    """Ordered command list; apply() folds it over a statement."""

    commands: tuple = ()

    def _push(self, name, *args):
        return Schedule(self.commands + ((name, args),))

    def split(self, i, io, ii, chunk):
        return self._push("split", i, io, ii, chunk)

    def divide(self, i, io, ii, parts):
        return self._push("divide", i, io, ii, parts)

    def reorder(self, *order):
        if len(order) == 1 and not isinstance(order[0], str):
            order = tuple(order[0])
        return self._push("reorder", *order)

    def distribute(self, i):
        return self._push("distribute", i)

    def distribute_grid(self, targets, dist_vars, local_vars, dims):
        return self._push("distribute_grid", tuple(targets), tuple(dist_vars),
                          tuple(local_vars), tuple(dims))

    def communicate(self, tensors, i):
        return self._push("communicate", tensors, i)

    def rotate(self, t, over, r):
        return self._push("rotate", t, tuple(over), r)

    def substitute_leaf(self, vars_, kernel):
        return self._push("leaf", tuple(vars_), kernel)

    def apply(self, stmt):
        for name, args in self.commands:
            stmt = _lookup(name)[0](stmt, *args)
        return stmt

    def steps(self, stmt):
        """(description, statement) after each command, for explain output."""
        out = []
        for name, args in self.commands:
            stmt = _lookup(name)[0](stmt, *args)
            out.append((self._describe(name, args), stmt))
        return out

    @staticmethod
    def _describe(name, args) -> str:
        def show(a):
            if isinstance(a, (list, tuple)):
                if len(a) == 1:
                    return str(a[0])
                return "{" + ", ".join(str(x) for x in a) + "}"
            return str(a)

        return f"{name}({', '.join(show(a) for a in args)})"


def schedule() -> Schedule:
    return Schedule()


def _parse_command(word: str, toks: list) -> tuple:
    if word == "distribute" and len(toks) == 4:
        word = "distribute_grid"  # the compound form
    parsers = _lookup(word)[1]
    if parsers is None:
        if not toks:
            raise ConfigError(f"{word} takes one or more loop names")
        parsers = (str,) * len(toks)
    if len(toks) != len(parsers):
        raise ConfigError(f"{word} takes {len(parsers)} argument(s), got {len(toks)}")
    return word, tuple(parse(t) for parse, t in zip(parsers, toks))


def parse_schedule(text: str) -> Schedule:
    """Line-oriented schedule scripts.

    One command per line, a script word then space-separated arguments:
    `split k ko ki 2`, `divide i io ii 3`, `reorder io jo ii ji`,
    `distribute io` (or the compound form `distribute i,j io,jo ii,ji 3x3`,
    also spelled `distribute_grid`), `communicate A,B ko`,
    `rotate ko io,jo kos`, `leaf ii,ji,ki name`. Blank lines and `#`
    comments are skipped. A wrong word, a missing or extra argument, or a
    malformed number raises ConfigError naming the line.
    """
    commands = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, *toks = line.split()
        try:
            commands.append(_parse_command(word, toks))
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"schedule line {lineno}: {raw.strip()!r}: {exc}") from exc
    return Schedule(tuple(commands))
