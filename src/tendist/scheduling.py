"""Scheduling commands: rewrites over concrete index notation.

Each command takes and returns a whole LoopNest: it rewrites the loops and
appends the relation it adds to the statement's relations. Commands validate
their preconditions and re-check statement well-formedness after rewriting,
so a chain of commands can never produce an unrunnable statement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cin import (
    Communicate,
    Distribute,
    Divide,
    Forall,
    Rotate,
    Split,
    check_statement,
    claimed_names,
    leaf_accesses,
)
from .errors import (
    ConfigError,
    DimCountMismatch,
    IBelowT,
    NotContiguousNest,
    NotPermutation,
    NonFreshVar,
    UnknownTensor,
    UnknownVar,
)


def _require_fresh(stmt, *names):
    used = claimed_names(stmt)
    for n in names:
        if n in used:
            raise NonFreshVar(f"{n} is already in use")
    if len(set(names)) != len(names):
        raise NonFreshVar(f"fresh names must be distinct: {names}")


def _checked(stmt, **changes):
    """stmt with `changes` replaced, checked for well-formedness."""
    stmt = replace(stmt, **changes)
    check_statement(stmt)
    return stmt


def _loop_at(stmt, var: str) -> int:
    for at, f in enumerate(stmt.loops):
        if f.var == var:
            return at
    raise UnknownVar(f"no loop binds {var}")


def _replace_loop(stmt, var: str, verb: str, rewrite, relations=None):
    """Swap the loop var for the (name, extent) loops that `rewrite(extent)`
    returns along with the relation defining var by them. The relation joins
    `relations`, by default the statement's own."""
    at = _loop_at(stmt, var)
    old = stmt.loops[at]
    if old.lo != 0:
        raise ConfigError(f"cannot {verb} pinned loop {var}")
    loops, rel = rewrite(old.extent)
    new = tuple(Forall(name, 0, extent) for name, extent in loops)
    if relations is None:
        relations = stmt.relations
    return _checked(stmt, loops=stmt.loops[:at] + new + stmt.loops[at + 1:],
                    relations=relations + (rel,))


def split(stmt, i: str, io: str, ii: str, chunk: int):
    """i -> io (count ceil(extent/chunk)) over ii (size chunk), guarded i < extent."""
    if chunk < 1:
        raise ConfigError(f"split chunk must be positive, got {chunk}")
    _require_fresh(stmt, io, ii)
    return _replace_loop(stmt, i, "split", lambda e: (
        ((io, -(-e // chunk)), (ii, chunk)), Split(i, io, ii, chunk, e)))


def divide(stmt, i: str, io: str, ii: str, parts: int):
    """i -> io (count parts) over ii (size ceil(extent/parts)), guarded i < extent."""
    if parts < 1:
        raise ConfigError(f"divide parts must be positive, got {parts}")
    _require_fresh(stmt, io, ii)
    return _replace_loop(stmt, i, "divide", lambda e: (
        ((io, parts), (ii, -(-e // parts))), Divide(i, io, ii, parts, e)))


def reorder(stmt, order):
    """Permute a contiguous slice of the loop chain; order lists the new
    arrangement of its loops."""
    order = list(order)
    want = set(order)
    if len(want) != len(order):
        raise NotPermutation(f"duplicate names in reorder {order}")
    names = [f.var for f in stmt.loops]
    missing = want - set(names)
    if missing:
        raise UnknownVar(f"no loop binds {sorted(missing)}")
    at = min(names.index(v) for v in order)
    end = at + len(order)
    if set(names[at:end]) != want:
        raise NotContiguousNest(f"reorder targets {sorted(want)} are not directly nested")
    by = {f.var: f for f in stmt.loops[at:end]}
    loops = stmt.loops[:at] + tuple(by[v] for v in order) + stmt.loops[end:]
    return _checked(stmt, loops=loops)


def distribute(stmt, i: str):
    """Mark loop i as distributed. Marking only; no reordering."""
    _loop_at(stmt, i)  # UnknownVar unless a loop binds i
    return _checked(stmt, relations=stmt.relations + (Distribute(i),))


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
    _loop_at(stmt, i)  # UnknownVar unless a loop binds i
    seen = {acc.tensor.name for acc in leaf_accesses(stmt.leaf)}
    for t in tensors:
        if t not in seen:
            raise UnknownTensor(f"{t} is not accessed by the statement")
    return _checked(stmt, relations=stmt.relations + (Communicate(tensors, i),))


def rotate(stmt, t: str, over, r: str):
    """Replace loop t with loop r of the same extent; t = (r + sum(over)) mod
    extent(t). Communicate relations naming t now aggregate on r."""
    over = tuple(over)
    _require_fresh(stmt, r)
    above = {f.var for f in stmt.loops[:_loop_at(stmt, t)]}
    for v in over:
        if v not in above:
            raise IBelowT(f"rotate offset {v} does not enclose {t}")
    rels = tuple(
        Communicate(x.tensors, r) if isinstance(x, Communicate) and x.var == t else x
        for x in stmt.relations
    )
    return _replace_loop(stmt, t, "rotate", lambda e: (((r, e),), Rotate(t, over, r, e)), rels)


# the command table

def _names(text: str) -> tuple:
    return tuple(text.split(","))


def _dims(text: str) -> tuple:
    return tuple(int(d) for d in text.split("x"))


# script word -> (command, one parser per argument). Schedule.steps and
# parse_schedule dispatch through this table. None: one or more loop names.
_COMMANDS = {
    "split": (split, (str, str, str, int)),
    "divide": (divide, (str, str, str, int)),
    "reorder": (lambda stmt, *order: reorder(stmt, order), None),
    "distribute": (distribute, (str,)),
    "distribute_grid": (distribute_grid, (_names, _names, _names, _dims)),
    "communicate": (communicate, (_names, str)),
    "rotate": (rotate, (str, _names, str)),
}


def _lookup(name: str) -> tuple:
    if name not in _COMMANDS:
        raise ConfigError(f"unknown command {name!r}")
    return _COMMANDS[name]


@dataclass(frozen=True)
class Schedule:
    """A parsed script, (script line, word, arguments) per command.
    steps() folds the commands over a statement; apply() keeps the last."""

    commands: tuple = ()

    def steps(self, stmt):
        """(script line, statement after it) for each command, in order."""
        for line, name, args in self.commands:
            stmt = _lookup(name)[0](stmt, *args)
            yield line, stmt

    def apply(self, stmt):
        for _, stmt in self.steps(stmt):
            pass
        return stmt


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
    """Schedule scripts.

    One command per line or between `;`s, a script word then space-separated
    arguments:
    `split k ko ki 2`, `divide i io ii 3`, `reorder io jo ii ji`,
    `distribute io` (or the compound form `distribute i,j io,jo ii,ji 3x3`,
    also spelled `distribute_grid`), `communicate A,B ko`,
    `rotate ko io,jo kos`. Blank lines and `#` comments are skipped. A
    wrong word, a missing or extra argument, or a malformed number raises
    ConfigError naming the line, each `;` counting as a line end.
    """
    commands = []
    for lineno, raw in enumerate(text.replace(";", "\n").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, *toks = line.split()
        try:
            commands.append((" ".join([word, *toks]), *_parse_command(word, toks)))
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"schedule line {lineno}: {raw.strip()!r}: {exc}") from exc
    return Schedule(tuple(commands))
