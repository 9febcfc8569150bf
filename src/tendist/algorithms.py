"""Ready-made distributed algorithm bundles and their registry.

A bundle is plain data: a name, a machine, a statement, per-tensor
distributions and a schedule, so it can be run and traced with one call.
Each REGISTRY row writes its bundle as text in the statement, format and
scheduling languages, the same text a custom command-line run takes as
--expr, --dims, --machine, --dist and --schedule; `bundle_from_config`
binds it through the same functions as such a run.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (
    BadGrid,
    ConfigError,
    NonCubeGrid,
    NonSquareGrid,
)
from .distribution import TensorDistribution, parse_distribution
from .ir import TensorIndexStmt, parse_statement
from .machine import Machine, parse_machine
from .scheduling import Schedule, parse_schedule
from .simulator import run_statement
from .tensors import DenseTensor


@dataclass
class AlgorithmBundle:
    name: str
    machine: Machine
    statement: TensorIndexStmt
    distributions: dict
    schedule: Schedule

    def run(self, inputs: dict = None, *, seed: int = 0, workers: int = 1):
        """Execute the bundle; returns (RunResult, inputs used)."""
        # Runs are single-threaded. `workers` stays for callers written when a
        # thread pool existed (the perfbench harness passes workers=1); any
        # other count is refused rather than silently ignored.
        if workers != 1:
            raise ConfigError(f"runs are single-threaded; workers must be 1, got {workers}")
        if inputs is None:
            inputs = random_inputs(self.statement, seed)
        result = run_statement(self.statement, self.machine, self.distributions,
                               inputs, self.schedule, label=self.name)
        return result, inputs


def random_inputs(stmt: TensorIndexStmt, seed: int = 0) -> dict:
    """Small-integer inputs, deterministic in the seed."""
    rng = random.Random(seed)
    out = {}
    out_name = stmt.lhs.tensor.name
    for name in sorted(stmt.tensors()):
        if name == out_name:
            continue
        var = stmt.tensors()[name]
        t = DenseTensor(var.dims)  # before drawing: a shape too large fails here
        t.data.reshape(-1)[:] = rng.choices(range(-4, 5), k=t.volume)
        out[name] = t
    return out


# text to a run, for registry rows and custom command-line runs alike

def parse_sized(text: str, extents) -> TensorIndexStmt:
    """Parse statement text with every index at `extents` if it is an int,
    else with `extents` listed in the statement's var_order (lhs indices,
    then reduction indices by first use)."""
    if isinstance(extents, int):
        return parse_statement(text, defaultdict(lambda: extents))
    names = parse_statement(text, defaultdict(lambda: 1)).var_order
    if len(extents) != len(names):
        raise ConfigError(f"--dims lists {len(extents)} extents for indices {list(names)}")
    return parse_statement(text, dict(zip(names, extents)))


def bind_distributions(stmt: TensorIndexStmt, machine: Machine, specs) -> dict:
    """Tensor name -> its distribution on machine, from one format-language
    spec per tensor of the statement (`A: xy -> xy*`)."""
    out = {}
    tensors = stmt.tensors()
    for spec in specs:
        name, levels = parse_distribution(spec)
        if name not in tensors:
            raise ConfigError(f"--dist {spec!r} names {name or 'no tensor'}, "
                              f"statement uses {sorted(tensors)}")
        if name in out:
            raise ConfigError(f"--dist given twice for {name}")
        out[name] = TensorDistribution(tensors[name].dims, machine, levels)
    missing = sorted(set(tensors) - set(out))
    if missing:
        raise ConfigError(f"missing --dist for {', '.join(missing)}")
    return out


# the registry

def _square(name: str, g: tuple) -> dict:
    if g[0] != g[1]:
        raise NonSquareGrid(f"{name} needs a square grid, got {g[0]}x{g[1]}")
    return {}


def _cube(name: str, g: tuple) -> dict:
    if not g[0] == g[1] == g[2]:
        raise NonCubeGrid(f"{name} needs a cube, got {g[0]}x{g[1]}x{g[2]}")
    return {}


def _layers(name: str, g: tuple) -> dict:
    """Square slices whose side the depth divides. Each layer's {rounds}
    align with the inputs' home blocks: a round's reduction slice is exactly
    one block of width ceil(kk/gy)."""
    if g[0] != g[1]:
        raise NonSquareGrid(f"{name} needs square slices, got {g[0]}x{g[1]}")
    if g[1] % g[2]:
        raise BadGrid(f"depth {g[2]} must divide the slice side {g[1]}")
    return {"rounds": g[1] // g[2]}


class Registered(NamedTuple):
    """A REGISTRY row: a bundle written as text. The script's {g0}, {g1},
    ... are the machine's flat grid dims and {chunk} the chunk; `check`, if
    any, refuses a grid of the wrong shape and returns further placeholders.
    A machine given instead of the default must have its levels' shape."""
    statement: str
    dims: tuple            # default extents, in the statement's var_order
    default_machine: str   # machine text, e.g. "2x2" or "2x2/2"
    dists: tuple           # one format-language spec per tensor
    script: str            # schedule script, commands separated by ';'
    check: Callable = None

    @property
    def extents(self) -> int:
        return len(self.dims)

    @property
    def chunked(self) -> bool:
        return "{chunk}" in self.script

    def script_for(self, name: str, machine: Machine, chunk: int = 1) -> str:
        """The schedule script with the placeholders of machine and chunk filled."""
        g = machine.flat_dims
        more = self.check(name, g) if self.check else {}
        return self.script.format(chunk=chunk, **{f"g{d}": n for d, n in enumerate(g)}, **more)


# statement text of each named kernel: registry rows use their entry, and the
# command line's --kernel runs it
KERNELS = {
    "gemm": "C(i, j) = A(i, k) * B(k, j)",
    "ttv": "A(i, j) = B(i, j, k) * c(k)",
    "ttm": "Y(i, j, l) = B(i, j, k) * C(k, l)",
    "innerprod": "a = A(i, j) * B(i, j)",
    "mttkrp": "A(i, j) = B(i, k, l) * C(k, j) * D(l, j)",
}
_GEMM_ABC = "A(i, j) = B(i, k) * C(k, j)"  # gemm with its tensors renamed
_BLOCKS = ("A: xy -> xy", "B: xy -> xy", "C: xy -> xy")  # a block per processor of a 2D grid

REGISTRY = {
    # dense matrix multiply family
    # Stationary-C: A panels broadcast at task scope, B panels per k step.
    "summa": Registered(
        KERNELS["gemm"], (8, 8, 8), "2x2", _BLOCKS,
        "distribute i,j io,jo ii,ji {g0}x{g1}; split k ko ki {chunk}; reorder ko ii ji; "
        "communicate A jo; communicate B,C ko"),
    # Skewed systolic: A shifts along rows, B along columns, each step.
    "cannon": Registered(
        KERNELS["gemm"], (8, 8, 8), "2x2", _BLOCKS,
        "distribute i,j io,jo ii,ji {g0}x{g1}; divide k ko ki {g0}; reorder ko ii ji; "
        "communicate A,B ko; rotate ko io,jo kos", _square),
    # A broadcast once per task; B pulled skewed along columns per step.
    "pumma": Registered(
        KERNELS["gemm"], (8, 8, 8), "2x2", _BLOCKS,
        "distribute i,j io,jo ii,ji {g0}x{g1}; divide k ko ki {g0}; reorder ko ii ji; "
        "communicate A jo; communicate B,C ko; rotate ko io kos", _square),
    # 3D: inputs on cube faces, every task one block product, C reduced.
    "johnson": Registered(
        KERNELS["gemm"], (8, 8, 8), "2x2x2", ("A: xy -> x0y", "B: xy -> 0yx", "C: xy -> xy0"),
        "distribute i,j,k io,jo,ko ii,ji,ki {g0}x{g1}x{g2}; communicate A,B,C ko", _cube),
    # 2.5D: inputs replicated across depth, each layer shifts through its own
    # share of the reduction blocks, partial outputs reduced to the front
    # face. Depth cuts the round count; the replicas cost total memory.
    "solomonik": Registered(
        _GEMM_ABC, (8, 8, 8), "2x2x2", ("A: xy -> xy0", "B: xy -> xy*", "C: xy -> xy*"),
        "distribute i,j,k io,jo,ko ii,ji,ki {g0}x{g1}x{g2}; divide ki kio kii {rounds}; "
        "reorder kio ii ji; communicate B,C kio; rotate kio io,jo kios", _layers),
    # Factor each loop into a parallel part, the grid, and k also into
    # `chunk` sequential parts, which become in-task rounds.
    "cosma-like": Registered(
        _GEMM_ABC, (8, 8, 8), "2x2x1", ("A: xy -> xy0", "B: xy -> x0y", "C: xy -> 0yx"),
        "distribute i,j,k io,jo,ko ii,ji,ki {g0}x{g1}x{g2}; divide ki ks kl {chunk}; "
        "reorder ks ii ji; communicate C jo; communicate B ks"),
    # Two-level grid (g0 x g1 nodes of g2): rows split again inside each node.
    "summa-hier": Registered(
        KERNELS["gemm"], (8, 8, 8), "2x2/2",
        ("A: xy -> xy; xy -> x", "B: xy -> xy; xy -> x", "C: xy -> xy; xy -> x"),
        "divide i io ii {g0}; divide j jo ji {g1}; reorder io jo ii ji; "
        "divide ii iio iii {g2}; reorder io jo iio iii ji; "
        "distribute io; distribute jo; distribute iio; "
        "split k ko ki {chunk}; reorder ko iii ji; communicate A iio; communicate B,C ko"),
    # other kernels
    # Tensor times vector: rows distributed, vector replicated; no traffic.
    "ttv": Registered(
        KERNELS["ttv"], (6, 5, 4), "2", ("A: xy -> x", "B: xyz -> x", "c: x -> *"),
        "divide i io ii {g0}; distribute io; communicate c io"),
    # Tensor times matrix: rows distributed, the matrix replicated.
    "ttm": Registered(
        KERNELS["ttm"], (5, 4, 3, 6), "2", ("Y: xyz -> x", "B: xyz -> x", "C: xy -> *"),
        "divide i io ii {g0}; distribute io; communicate C io"),
    # Frobenius inner product; partials reduced to processor zero.
    "innerprod": Registered(
        KERNELS["innerprod"], (6, 5), "2", ("a: -> 0", "A: xy -> x", "B: xy -> x"),
        "divide i io ii {g0}; distribute io; communicate A,B io"),
    # B stays put on a 2D grid; factor matrices move; A reduced per row.
    "mttkrp": Registered(
        KERNELS["mttkrp"], (6, 4, 5, 3), "2x2",
        ("A: xy -> x0", "B: xyz -> xy", "C: xy -> 0x", "D: xy -> 00"),
        "divide i io ii {g0}; divide k ko ki {g1}; reorder io ko ii j ki l; "
        "distribute io; distribute ko; communicate C,D ko"),
}

ALGORITHMS = tuple(REGISTRY)


def bundle_from_config(name: str, machine: Machine = None, dims=None,
                       chunk: int = 1) -> AlgorithmBundle:
    """Build a registry algorithm from generic run options: the row's text
    is bound as a custom run's is, dims default to the row's and the machine
    to its default machine."""
    key = name.lower().replace("_", "-")
    if key not in REGISTRY:
        raise ConfigError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")
    row = REGISTRY[key]
    if chunk != 1 and not row.chunked:
        raise ConfigError(f"{key} takes no chunk, got {chunk}")
    default = parse_machine(row.default_machine)
    machine = machine or default
    if [len(lvl) for lvl in machine.levels] != [len(lvl) for lvl in default.levels]:
        raise ConfigError(f"{key} needs a machine shaped like {default}, got {machine}")
    dims = row.dims if dims is None else tuple(dims)
    if len(dims) != row.extents:
        raise ConfigError(f"{key} takes {row.extents} extents, got {len(dims)}")
    if chunk < 1:
        raise ConfigError(f"{key} needs a positive chunk, got {chunk}")
    if key == "cosma-like":
        # `divide ki ks kl {chunk}`: each round past a task's k extent is an empty step
        local = -(-dims[2] // machine.flat_dims[2])
        if chunk > local:
            raise ConfigError(f"{key} divides each task's k extent {local} into "
                              f"chunk rounds; chunk {chunk} is above it")
    sched = parse_schedule(row.script_for(key, machine, chunk))
    stmt = parse_sized(row.statement, dims)
    return AlgorithmBundle(key, machine, stmt, bind_distributions(stmt, machine, row.dists), sched)
