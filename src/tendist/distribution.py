"""Tensor distribution notation: how tensor pieces map onto machines.

A distribution pairs, per machine level, the tensor-side names X (one per
tensor dimension) with the machine-side names Y (one per machine dimension).
A name in both X and Y partitions that tensor dimension in equal blocks over
that machine dimension; an integer in Y pins the piece to one coordinate; a
"*" in Y replicates the piece across that machine dimension.

Semantically a distribution composes a coloring (coordinates to colors) with
an expansion (color to processor set). Blocks use ceil division, so trailing
blocks may be short or empty. Deeper levels re-block the piece produced by
the previous level using that level's nominal block size, which keeps the
coordinate arithmetic affine and identical to the placement loop nest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cin import Communicate, Distribute, Divide, Forall, Place, rebuild_chain, with_relations
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
            v *= max(0, b - a)
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
        return all(a <= c for a, c in zip(self.lo, other.lo)) and all(
            d <= b for b, d in zip(self.hi, other.hi)
        )

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


def full_rect(dims) -> HyperRect:
    return HyperRect(tuple(0 for _ in dims), tuple(dims))


def subtract_rects(rects, covers) -> list:
    """Union(rects) minus union(covers), as disjoint rects."""
    out = [r for r in rects if not r.is_empty]
    for c in covers:
        nxt = []
        for r in out:
            nxt.extend(r.minus(c))
        out = nxt
    return out


def block_range(extent: int, parts: int, index: int) -> tuple:
    """Half-open block `index` of `extent` cut into `parts` ceil-sized blocks."""
    b = -(-extent // parts)
    return (min(index * b, extent), min((index + 1) * b, extent))


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
        self._build_cascade()

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

    def _build_cascade(self):
        """Per machine flat dim: its role; per partitioned dim: nominal blocks."""
        self.roles = []  # ("part", tensor_dim j, parts, block) | ("fixed", c) | ("bcast",)
        cur_extent = list(self.tensor_dims)
        flat_dims = self.machine.flat_dims
        at = 0
        for k, (x, y) in enumerate(self.levels):
            for v in y:
                dim_ext = flat_dims[at]
                if _is_var(v):
                    j = x.index(v)
                    block = -(-cur_extent[j] // dim_ext)
                    self.roles.append(("part", j, dim_ext, block))
                    cur_extent[j] = block
                elif v == BROADCAST:
                    self.roles.append(("bcast",))
                else:
                    self.roles.append(("fixed", int(v)))
                at += 1
        self.part_dims = [
            (m, r[1], r[2], r[3]) for m, r in enumerate(self.roles) if r[0] == "part"
        ]

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
            ystr = "".join(BROADCAST if v == BROADCAST else str(v) for v in y)
            parts.append(f"{''.join(x)} -> {ystr}")
        return " ; ".join(parts)

    @property
    def replicated(self) -> bool:
        return any(r[0] == "bcast" for r in self.roles)

    # coloring and expansion

    def colors(self):
        """All colors, lexicographic; components follow machine dim order."""
        ranges = [range(parts) for (_, _, parts, _) in self.part_dims]
        return itertools.product(*ranges)

    def color_of(self, coord) -> tuple:
        if len(coord) != len(self.tensor_dims):
            raise RankMismatch(f"coordinate {coord} for order {len(self.tensor_dims)}")
        for c, d in zip(coord, self.tensor_dims):
            if not 0 <= c < d:
                raise OutOfBounds(f"coordinate {coord} outside dims {self.tensor_dims}")
        color = []
        rel = list(coord)
        for (_, j, parts, block) in self.part_dims:
            color.append(rel[j] // block)
            rel[j] -= (rel[j] // block) * block
        return tuple(color)

    def piece_bounds(self, color) -> HyperRect:
        if len(color) != len(self.part_dims):
            raise RankMismatch(f"color {color} has {len(color)} components")
        lo = [0] * len(self.tensor_dims)
        hi = list(self.tensor_dims)
        for c, (_, j, parts, block) in zip(color, self.part_dims):
            if not 0 <= c < parts:
                raise OutOfBounds(f"color component {c} outside {parts} parts")
            a = lo[j] + c * block
            b = a + block
            lo[j], hi[j] = min(a, hi[j]), min(b, hi[j])
        return HyperRect(tuple(lo), tuple(hi))

    def processors_of(self, color) -> tuple:
        """Processor coordinates holding this color, enumerate order."""
        if len(color) != len(self.part_dims):
            raise RankMismatch(f"color {color} has {len(color)} components")
        axes = []
        it = iter(color)
        for m, role in enumerate(self.roles):
            dim_ext = self.machine.flat_dims[m]
            if role[0] == "part":
                c = next(it)
                if not 0 <= c < role[2]:
                    raise OutOfBounds(f"color component {c} outside {role[2]} parts")
                axes.append((c,))
            elif role[0] == "fixed":
                axes.append((role[1],))
            else:
                axes.append(tuple(range(dim_ext)))
        return tuple(itertools.product(*axes))

    def home_of(self, color) -> tuple:
        return self.processors_of(color)[0]

    def residency(self) -> dict:
        """proc -> list of non-empty piece rects, colors in lexicographic order."""
        out: dict = {p: [] for p in self.machine.enumerate()}
        for color in self.colors():
            rect = self.piece_bounds(color)
            if rect.is_empty:
                continue
            for p in self.processors_of(color):
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
                cur_ext[j] = -(-cur_ext[j] // dim_ext)
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
    loops = [Forall(v, lo, hi, None) for v, lo, hi in dist_loops + local_loops]
    node = rebuild_chain(loops, Place(tensor(*d.levels[0][0])))
    rels = divides + [Distribute(v) for v, _, _ in dist_loops]
    rels.append(Communicate((tensor.name,), dist_loops[-1][0]))
    return with_relations(node, rels)


def parse_distribution(text: str):
    """Parse `A: xy -> xy*` (levels split on `;`) into (tensor, levels).

    Each character is one dimension name; digits are fixed coordinates and
    `*` is a broadcast. Returns the tensor name and the raw level list; bind
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
        y = tuple(int(ch) if ch.isdigit() else ch for ch in ys.strip())
        if any(not ch.isalpha() for ch in x):
            raise ConfigError(f"bad tensor-side names in {part!r}")
        if any(not (isinstance(ch, int) or ch == BROADCAST or ch.isalpha()) for ch in y):
            raise ConfigError(f"bad machine-side names in {part!r}")
        levels.append((x, y))
    if not levels:
        raise ConfigError(f"empty distribution {text!r}")
    return tensor_name, levels
