"""Tensor distribution notation: how tensor pieces map onto machines.

A distribution pairs, per machine level, the tensor-side names X (one per
tensor dimension) with the machine-side names Y (one per machine dimension).
A name in both X and Y partitions that tensor dimension in equal blocks over
that machine dimension; an integer in Y pins the piece to one coordinate
(written as one digit, or in parentheses from 10 up: `x -> (10)`); a "*" in
Y replicates the piece across that machine dimension.

Semantically a distribution composes a coloring (coordinates to colors) with
an expansion (color to processor set). Its meaning is its placement statement
(`lower_placement`): one divide per partitioned machine dimension, each level
re-blocking the previous level's block with ceil division, so trailing blocks
may be short or empty. TensorDistribution reads its piece table off that
statement as the simulator resolves a launch, the partition loops as lanes
(`lane_boxes`, one lane per color); it keeps no block arithmetic of its own.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .cin import (
    Communicate,
    Distribute,
    Divide,
    Forall,
    LoopNest,
    Place,
    lane_boxes,
    lane_env,
    relation_defs,
)
from .errors import (
    ConfigError,
    DuplicateName,
    FixedOutOfRange,
    OutOfBounds,
    RankMismatch,
    UnboundMachineName,
)
from .ir import TensorVar
from .machine import Machine

BROADCAST = "*"


@dataclass(frozen=True)
class HyperRect:
    """Half-open box [lo, hi) per dimension; () is the scalar box."""

    lo: tuple
    hi: tuple

    @property
    def volume(self) -> int:
        v = 1
        for a, b in zip(self.lo, self.hi):
            if b <= a:
                return 0
            v *= b - a
        return v

    @property
    def is_empty(self) -> bool:
        return any(b <= a for a, b in zip(self.lo, self.hi))

    def intersect(self, other: "HyperRect"):
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        r = HyperRect(lo, hi)
        return None if r.is_empty else r

    def contains(self, other: "HyperRect") -> bool:
        for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi):
            if c < a or b < d:
                return False
        return True

    def minus(self, other: "HyperRect") -> list:
        """self \\ other as disjoint rects (axis-by-axis slicing)."""
        cut = self.intersect(other)
        if cut is None:
            return [] if self.is_empty else [self]
        out = []
        lo, hi = list(self.lo), list(self.hi)
        for ax in range(len(self.lo)):
            if lo[ax] < cut.lo[ax]:
                out.append(HyperRect(tuple(lo[:ax] + [lo[ax]] + lo[ax + 1:]),
                                     tuple(hi[:ax] + [cut.lo[ax]] + hi[ax + 1:])))
                lo[ax] = cut.lo[ax]
            if cut.hi[ax] < hi[ax]:
                out.append(HyperRect(tuple(lo[:ax] + [cut.hi[ax]] + lo[ax + 1:]),
                                     tuple(hi[:ax] + [hi[ax]] + hi[ax + 1:])))
                hi[ax] = cut.hi[ax]
        return out

    def slices(self) -> tuple:
        return tuple(slice(a, b) for a, b in zip(self.lo, self.hi))

    def __str__(self):
        if not self.lo:
            return "[scalar]"
        return "x".join(f"[{a},{b})" for a, b in zip(self.lo, self.hi))


def subtract_rects(rects, covers) -> list:
    """Union(rects) minus union(covers), as disjoint rects."""
    out = [r for r in rects if not r.is_empty]
    for c in covers:
        nxt = []
        for r in out:
            nxt.extend(r.minus(c))
        out = nxt
    return out


def _is_var(y) -> bool:
    return isinstance(y, str) and y != BROADCAST


class TensorDistribution:
    """Validated mapping of one tensor shape onto one machine.

    levels is a tuple of (X, Y) pairs, X a tuple of dimension names, Y a tuple
    of names / fixed coordinates / "*" per machine dimension of that level.
    """

    def __init__(self, tensor_dims, machine: Machine, levels):
        self.tensor_dims = tuple(int(d) for d in tensor_dims)
        self.machine = machine
        self.levels = tuple((tuple(x), tuple(y)) for x, y in levels)
        self._validate()
        self.pieces, self._lo, self._hi = self._read_pieces()
        self._by_color = {entry[0]: entry for entry in self.pieces}

    def _validate(self):
        if len(self.levels) != self.machine.num_levels:
            raise RankMismatch(
                f"{len(self.levels)} distribution levels for a "
                f"{self.machine.num_levels}-level machine"
            )
        for k, (x, y) in enumerate(self.levels):
            if len(x) != len(self.tensor_dims):
                raise RankMismatch(
                    f"level {k}: {len(x)} names for a tensor of order {len(self.tensor_dims)}"
                )
            if len(y) != len(self.machine.levels[k]):
                raise RankMismatch(
                    f"level {k}: {len(y)} machine names for {len(self.machine.levels[k])} dims"
                )
            if len(set(x)) != len(x):
                raise DuplicateName(f"level {k}: duplicate tensor-side name in {x}")
            yvars = [v for v in y if _is_var(v)]
            if len(set(yvars)) != len(yvars):
                raise DuplicateName(f"level {k}: duplicate machine-side name in {y}")
            for m, v in enumerate(y):
                if _is_var(v):
                    if v not in x:
                        raise UnboundMachineName(f"level {k}: {v} not on the tensor side")
                elif v != BROADCAST:
                    c = int(v)
                    if not 0 <= c < self.machine.levels[k][m]:
                        raise FixedOutOfRange(
                            f"level {k}: fixed {c} outside machine dim of "
                            f"extent {self.machine.levels[k][m]}"
                        )

    # identity

    def __eq__(self, other):
        return (
            isinstance(other, TensorDistribution)
            and self.tensor_dims == other.tensor_dims
            and self.machine == other.machine
            and self.levels == other.levels
        )

    def __repr__(self):
        return f"TensorDistribution({self.describe()!r} on {self.machine})"

    def describe(self) -> str:
        parts = []
        for x, y in self.levels:
            ystr = "".join(f"({v})" if isinstance(v, int) and v > 9 else str(v) for v in y)
            parts.append(" ".join(filter(None, ("".join(x), "->", ystr))))
        return " ; ".join(parts)

    @property
    def replicated(self) -> bool:
        return any(v == BROADCAST for _, y in self.levels for v in y)

    # coloring and expansion, read off the placement statement

    def _read_pieces(self) -> tuple:
        """The piece table, (color, bounds, holders) per color, and the
        bounds' lo and hi as two int64 arrays of colors x order. The colors
        are the values of the partition loops (the outer loops of the
        placement's divides) in launch order, which is lexicographic; a
        color's bounds are the placed access resolved with those loops as
        lanes, one lane per color, and every other loop at its full range;
        its holders are the launch loops' ranges with the color's values
        pinned, in enumeration order."""
        stmt = lower_placement(TensorVar("", self.tensor_dims), self)
        rels = stmt.relations
        defs = relation_defs(rels)
        launch_vars = {r.var for r in rels if isinstance(r, Distribute)}
        launch = [f for f in stmt.loops if f.var in launch_vars]
        outers = {r.outer for r in rels if isinstance(r, Divide)}
        part = [f.var for f in launch if f.var in outers]
        full = {f.var: (f.lo, f.hi) for f in stmt.loops}
        env = {**full, **lane_env([(v, *full[v]) for v in part])}
        lo, hi = lane_boxes(stmt.leaf.access.indices, env, defs)
        out = []
        for color, a, b in zip(itertools.product(*(range(*full[v]) for v in part)),
                               lo.tolist(), hi.tolist()):
            pins = {**full, **{v: (c, c + 1) for v, c in zip(part, color)}}
            holders = tuple(itertools.product(*(range(*pins[f.var]) for f in launch)))
            out.append((color, HyperRect(tuple(a), tuple(b)), holders))
        return tuple(out), lo, hi

    def _piece(self, color) -> tuple:
        entry = self._by_color.get(tuple(color))
        if entry is None:
            if len(color) != len(self.pieces[0][0]):
                raise RankMismatch(f"color {color} has {len(color)} components")
            raise OutOfBounds(f"color {color} is not one of {len(self.pieces)} colors")
        return entry

    def meets(self, lo, hi):
        """Tasks x colors bool mask: whether the lane rect [lo[t], hi[t])
        shares a point with color c's piece, as `HyperRect.intersect` would
        say; lo and hi are int64 arrays of tasks x order. One axis at a
        time, so no temporary is larger than tasks x colors."""
        mask = np.ones((len(lo), len(self.pieces)), bool)
        for a, b, c, d in zip(lo.T, hi.T, self._lo.T, self._hi.T):
            mask &= np.maximum(a[:, None], c) < np.minimum(b[:, None], d)
        return mask

    def parts(self, rect: HyperRect, among=None):
        """(color, part, holders) for each piece `rect` meets, in table
        order; `part` is the piece's non-empty share of `rect`. This is the
        one lookup of which pieces a rect meets and who holds each. `among`,
        one flag per color in table order that is set for every color `rect`
        meets (the `meets` row of a rect containing it), limits the scan to
        the flagged colors; the parts are the same."""
        pieces = self.pieces if among is None else itertools.compress(self.pieces, among)
        for color, bounds, holders in pieces:
            part = rect.intersect(bounds)
            if part is not None:
                yield color, part, holders

    def piece_bounds(self, color) -> HyperRect:
        return self._piece(color)[1]

    def processors_of(self, color) -> tuple:
        """Processor coordinates holding this color, enumerate order."""
        return self._piece(color)[2]

    def residency(self) -> dict:
        """proc -> list of non-empty piece rects, colors in lexicographic order."""
        out: dict = {p: [] for p in self.machine.enumerate()}
        for _, rect, procs in self.pieces:
            if rect.is_empty:
                continue
            for p in procs:
                out[p].append(rect)
        return out


def lower_placement(tensor: TensorVar, d: TensorDistribution):
    """Placement loop nest for one tensor.

    Builds one loop per tensor dimension plus one per non-partitioned machine
    dimension, divides each partitioned dimension by its machine extent,
    brings the distributed loops outermost in machine-dim order, distributes
    them, and communicates the tensor under the innermost distributed loop.
    A divide names its loops after what it divides: x into xo, xi, then xi
    into xio, xii. Fixed machine dimensions become single-iteration loops
    pinned to their coordinate.
    """
    if tensor.dims != d.tensor_dims:
        raise RankMismatch(f"{tensor.name} has dims {tensor.dims}, distribution {d.tensor_dims}")
    cur_var = list(d.levels[0][0])
    cur_ext = list(d.tensor_dims)
    dist_loops = []  # (var, lo, hi) per machine flat dim
    divides = []
    flat_dims = d.machine.flat_dims
    at = 0
    for k, (x, y) in enumerate(d.levels):
        for v in y:
            dim_ext = flat_dims[at]
            if _is_var(v):
                j = x.index(v)
                outer, inner = cur_var[j] + "o", cur_var[j] + "i"
                divides.append(Divide(cur_var[j], outer, inner, dim_ext, cur_ext[j]))
                dist_loops.append((outer, 0, dim_ext))
                cur_var[j] = inner
                cur_ext[j] = divides[-1].block
            elif v == BROADCAST:
                dist_loops.append((f"m{at}", 0, dim_ext))
            else:
                dist_loops.append((f"m{at}", int(v), int(v) + 1))
            at += 1
    local_loops = [(cur_var[j], 0, cur_ext[j]) for j in range(len(cur_var))]
    names = [v for v, _, _ in dist_loops] + [v for v, _, _ in local_loops]
    names += [dv.var for dv in divides]
    if len(set(names)) != len(names):
        raise DuplicateName(f"placement loop names collide: {names}")
    rels = divides + [Distribute(v) for v, _, _ in dist_loops]
    rels.append(Communicate((tensor.name,), dist_loops[-1][0]))
    return LoopNest([Forall(*loop) for loop in dist_loops + local_loops],
                    Place(tensor(*d.levels[0][0])), rels)


# one machine-side entry: a fixed coordinate, one digit or a parenthesised
# number, or else any one character
_MACHINE_SIDE = re.compile(r"\(([0-9]+)\)|([0-9])|(.)", re.DOTALL)


def parse_distribution(text: str):
    """Parse `A: xy -> xy*` (levels split on `;`) into (tensor, levels).

    Each character is one dimension name; a digit, or a number of any length
    in parentheses (`x -> (10)`), is a fixed coordinate and `*` is a
    broadcast. Returns the tensor name and the raw level list; bind
    it to a shape and machine with TensorDistribution.
    """
    if ":" in text:
        tensor_name, rest = text.split(":", 1)
        tensor_name = tensor_name.strip()
    else:
        tensor_name, rest = "", text
    levels = []
    for part in rest.split(";"):
        if "->" not in part:
            raise ConfigError(f"distribution level {part!r} needs `->`")
        xs, ys = part.split("->", 1)
        x = tuple(ch for ch in xs.strip())
        y = tuple(ch or int(many or one)
                  for many, one, ch in _MACHINE_SIDE.findall(ys.strip()))
        if any(not ch.isalpha() for ch in x):
            raise ConfigError(f"bad tensor-side names in {part!r}")
        if any(not (isinstance(ch, int) or ch == BROADCAST or ch.isalpha()) for ch in y):
            raise ConfigError(f"bad machine-side names in {part!r}")
        levels.append((x, y))
    return tensor_name, levels
