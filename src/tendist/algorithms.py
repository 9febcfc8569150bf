"""Ready-made distributed algorithm bundles and their registry.

A bundle is plain data: a name, a machine, a statement, per-tensor
distributions and a schedule, so it can be run and traced with one call.
Each builder below returns (machine, statement, distributions, schedule);
`_registered` names its bundle and enters it in REGISTRY, the table the
command line builds from.
"""

from __future__ import annotations

import functools
import inspect
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (
    BadGrid,
    ConfigError,
    NonCubeGrid,
    NonSquareGrid,
)
from .distribution import TensorDistribution
from .ir import TensorIndexStmt, parse_statement
from .machine import Machine, grid, make_machine, parse_machine
from .scheduling import Schedule, schedule
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


class Registered(NamedTuple):
    """A REGISTRY row. `build(*machine.flat_dims, dims=..., chunk=...)`
    makes the bundle; dims is passed only when given, chunk only when
    `chunked`. A machine given instead of the default must have its levels'
    shape."""
    build: Callable
    extents: int           # one per index of the statement
    default_machine: str   # machine text, e.g. "2x2" or "2x2/2"
    chunked: bool          # whether the chunk is an option


REGISTRY: dict = {}  # name -> Registered, in definition order

# statement text of each named kernel: the builders below parse their entry,
# and the command line's --kernel runs it
KERNELS = {
    "gemm": "C(i, j) = A(i, k) * B(k, j)",
    "ttv": "A(i, j) = B(i, j, k) * c(k)",
    "ttm": "Y(i, j, l) = B(i, j, k) * C(k, l)",
    "innerprod": "a = A(i, j) * B(i, j)",
    "mttkrp": "A(i, j) = B(i, k, l) * C(k, j) * D(l, j)",
}


def _registered(name: str, default_machine: str):
    """Make a builder return an AlgorithmBundle called `name` and enter it in
    REGISTRY. The row's extents count the builder's default dims, and it is
    chunked when the builder takes a chunk. Before it builds, the bundle
    refuses a grid dimension (a positional parameter) below 1, dims of
    another length and a chunk below 1, keyword arguments included."""
    def wrap(parts):
        sig = inspect.signature(parts)
        params = sig.parameters
        extents, chunked = len(params["dims"].default), "chunk" in params
        grid_names = [k for k, p in params.items() if p.kind == p.POSITIONAL_OR_KEYWORD]

        @functools.wraps(parts)
        def build(*args, **kwargs) -> AlgorithmBundle:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            given = bound.arguments
            gdims = tuple(given[k] for k in grid_names)
            if any(int(d) < 1 for d in gdims):
                raise BadGrid(f"grid dimensions must be positive, got {gdims}")
            if len(given["dims"]) != extents:
                raise ConfigError(f"{name} takes {extents} extents, got {len(given['dims'])}")
            if chunked and given["chunk"] < 1:
                raise ConfigError(f"{name} needs a positive chunk, got {given['chunk']}")
            return AlgorithmBundle(name, *parts(*args, **kwargs))
        REGISTRY[name] = Registered(build, extents, default_machine, chunked)
        return build
    return wrap


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


def _dists(stmt, machine, **formats) -> dict:
    """Tensor name -> its distribution under a list of format levels, each a
    (dimension names, machine roles) pair; dims come from the statement."""
    tensors = stmt.tensors()
    return {name: TensorDistribution(tensors[name].dims, machine,
                                     [(tuple(x), tuple(y)) for x, y in levels])
            for name, levels in formats.items()}


def _gemm(dims, out="C", a="A", b="B"):
    """The gemm kernel with its one-letter tensors C, A, B renamed."""
    m, n, kk = dims
    text = KERNELS["gemm"].translate(str.maketrans("CAB", out + a + b))
    return parse_statement(text, {"i": m, "j": n, "k": kk})


# dense matrix multiply family

_BLOCKS = [("xy", ("x", "y"))]  # a block per processor of a 2D grid


@_registered("summa", "2x2")
def summa(gx: int, gy: int, *, dims=(8, 8, 8), chunk: int = 1):
    """Stationary-C: A panels broadcast at task scope, B panels per k step."""
    machine = grid(gx, gy)
    stmt = _gemm(dims)
    sched = (schedule()
             .distribute_grid(("i", "j"), ("io", "jo"), ("ii", "ji"), (gx, gy))
             .split("k", "ko", "ki", chunk).reorder("ko", "ii", "ji")
             .communicate("A", "jo").communicate(("B", "C"), "ko"))
    return machine, stmt, _dists(stmt, machine, A=_BLOCKS, B=_BLOCKS, C=_BLOCKS), sched


@_registered("cannon", "2x2")
def cannon(gx: int, gy: int, *, dims=(8, 8, 8)):
    """Skewed systolic: A shifts along rows, B along columns, each step."""
    if gx != gy:
        raise NonSquareGrid(f"cannon needs a square grid, got {gx}x{gy}")
    g = gx
    machine = grid(g, g)
    stmt = _gemm(dims)
    sched = (schedule()
             .distribute_grid(("i", "j"), ("io", "jo"), ("ii", "ji"), (g, g))
             .divide("k", "ko", "ki", g).reorder("ko", "ii", "ji")
             .communicate(("A", "B"), "ko")
             .rotate("ko", ("io", "jo"), "kos"))
    return machine, stmt, _dists(stmt, machine, A=_BLOCKS, B=_BLOCKS, C=_BLOCKS), sched


@_registered("pumma", "2x2")
def pumma(gx: int, gy: int, *, dims=(8, 8, 8)):
    """A broadcast once per task; B pulled skewed along columns per step."""
    if gx != gy:
        raise NonSquareGrid(f"pumma needs a square grid, got {gx}x{gy}")
    machine = grid(gx, gy)
    stmt = _gemm(dims)
    sched = (schedule()
             .distribute_grid(("i", "j"), ("io", "jo"), ("ii", "ji"), (gx, gy))
             .divide("k", "ko", "ki", gx).reorder("ko", "ii", "ji")
             .communicate("A", "jo").communicate(("B", "C"), "ko")
             .rotate("ko", ("io",), "kos"))
    return machine, stmt, _dists(stmt, machine, A=_BLOCKS, B=_BLOCKS, C=_BLOCKS), sched


@_registered("johnson", "2x2x2")
def johnson(gx: int, gy: int, gz: int, *, dims=(8, 8, 8)):
    """3D: inputs on cube faces, every task one block product, C reduced."""
    if not gx == gy == gz:
        raise NonCubeGrid(f"johnson needs a cube, got {gx}x{gy}x{gz}")
    g = gx
    machine = grid(g, g, g)
    stmt = _gemm(dims)
    dists = _dists(stmt, machine, A=[("xy", ("x", 0, "y"))], B=[("xy", (0, "y", "x"))],
                   C=[("xy", ("x", "y", 0))])
    sched = (schedule()
             .distribute_grid(("i", "j", "k"), ("io", "jo", "ko"),
                              ("ii", "ji", "ki"), (g, g, g))
             .communicate(("A", "B", "C"), "ko"))
    return machine, stmt, dists, sched


@_registered("solomonik", "2x2x2")
def solomonik(gx: int, gy: int, gz: int, *, dims=(8, 8, 8)):
    """2.5D: inputs replicated across depth, each layer shifts through its
    own share of the reduction blocks, partial outputs reduced to the front
    face. Depth cuts the round count; the replicas cost total memory."""
    if gx != gy:
        raise NonSquareGrid(f"solomonik needs square slices, got {gx}x{gy}")
    if gy % gz:
        raise BadGrid(f"depth {gz} must divide the slice side {gy}")
    machine = grid(gx, gy, gz)
    stmt = _gemm(dims, "A", "B", "C")
    dists = _dists(stmt, machine, A=[("xy", ("x", "y", 0))], B=[("xy", ("x", "y", "*"))],
                   C=[("xy", ("x", "y", "*"))])
    # rounds per layer align with the inputs' home blocks: each round's
    # reduction slice is exactly one block of width ceil(kk/gy)
    rounds = gy // gz
    sched = (schedule()
             .distribute_grid(("i", "j", "k"), ("io", "jo", "ko"),
                              ("ii", "ji", "ki"), (gx, gy, gz))
             .divide("ki", "kio", "kii", rounds).reorder("kio", "ii", "ji")
             .communicate(("B", "C"), "kio")
             .rotate("kio", ("io", "jo"), "kios"))
    return machine, stmt, dists, sched


@_registered("cosma-like", "2x2x1")
def cosma_like(pi: int, pj: int, pk: int, *, dims=(8, 8, 8), chunk: int = 1):
    """Factor each loop into a parallel part, the grid, and k also into
    `chunk` sequential parts, which become in-task rounds."""
    machine = grid(pi, pj, pk)
    stmt = _gemm(dims, "A", "B", "C")
    dists = _dists(stmt, machine, A=[("xy", ("x", "y", 0))], B=[("xy", ("x", 0, "y"))],
                   C=[("xy", (0, "y", "x"))])
    sched = (schedule()
             .distribute_grid(("i", "j", "k"), ("io", "jo", "ko"),
                              ("ii", "ji", "ki"), (pi, pj, pk))
             .divide("ki", "ks", "kl", chunk)
             .reorder("ks", "ii", "ji")
             .communicate("C", "jo").communicate("B", "ks"))
    return machine, stmt, dists, sched


@_registered("summa-hier", "2x2/2")
def summa_hier(gx: int = 2, gy: int = 2, k: int = 2, *, dims=(8, 8, 8), chunk: int = 1):
    """Two-level grid (gx x gy nodes of k): rows split again inside each node."""
    machine = make_machine([(gx, gy), (k,)])
    stmt = _gemm(dims)
    two_level = _BLOCKS + [("xy", ("x",))]
    sched = (schedule()
             .divide("i", "io", "ii", gx).divide("j", "jo", "ji", gy)
             .reorder("io", "jo", "ii", "ji")
             .divide("ii", "iio", "iii", k)
             .reorder("io", "jo", "iio", "iii", "ji")
             .distribute("io").distribute("jo").distribute("iio")
             .split("k", "ko", "ki", chunk).reorder("ko", "iii", "ji")
             .communicate("A", "iio").communicate(("B", "C"), "ko"))
    return machine, stmt, _dists(stmt, machine, A=two_level, B=two_level, C=two_level), sched


# other kernels

@_registered("ttv", "2")
def ttv(g: int, *, dims=(6, 5, 4)):
    """Tensor times vector: rows distributed, vector replicated; no traffic."""
    di, dj, dk = dims
    machine = grid(g)
    stmt = parse_statement(KERNELS["ttv"], {"i": di, "j": dj, "k": dk})
    dists = _dists(stmt, machine, A=[("xy", ("x",))], B=[("xyz", ("x",))],
                   c=[("x", ("*",))])
    sched = (schedule()
             .divide("i", "io", "ii", g).distribute("io")
             .communicate("c", "io"))
    return machine, stmt, dists, sched


@_registered("ttm", "2")
def ttm(g: int, *, dims=(5, 4, 3, 6)):
    """Tensor times matrix: rows distributed, the matrix replicated."""
    di, dj, dl, dk = dims
    machine = grid(g)
    stmt = parse_statement(KERNELS["ttm"], {"i": di, "j": dj, "k": dk, "l": dl})
    dists = _dists(stmt, machine, Y=[("xyz", ("x",))], B=[("xyz", ("x",))],
                   C=[("xy", ("*",))])
    sched = (schedule()
             .divide("i", "io", "ii", g).distribute("io")
             .communicate("C", "io"))
    return machine, stmt, dists, sched


@_registered("innerprod", "2")
def innerprod(g: int, *, dims=(6, 5)):
    """Frobenius inner product; partials reduced to processor zero."""
    di, dj = dims
    machine = grid(g)
    stmt = parse_statement(KERNELS["innerprod"], {"i": di, "j": dj})
    dists = _dists(stmt, machine, a=[("", (0,))], A=[("xy", ("x",))], B=[("xy", ("x",))])
    sched = (schedule()
             .divide("i", "io", "ii", g).distribute("io")
             .communicate(("A", "B"), "io"))
    return machine, stmt, dists, sched


@_registered("mttkrp", "2x2")
def mttkrp(g1: int, g2: int, *, dims=(6, 4, 5, 3)):
    """B stays put on a 2D grid; factor matrices move; A reduced per row."""
    di, dj, dk, dl = dims
    machine = grid(g1, g2)
    stmt = parse_statement(KERNELS["mttkrp"], {"i": di, "j": dj, "k": dk, "l": dl})
    dists = _dists(stmt, machine, A=[("xy", ("x", 0))], B=[("xyz", ("x", "y"))],
                   C=[("xy", (0, "x"))], D=[("xy", (0, 0))])
    sched = (schedule()
             .divide("i", "io", "ii", g1).divide("k", "ko", "ki", g2)
             .reorder("io", "ko", "ii", "j", "ki", "l")
             .distribute("io").distribute("ko")
             .communicate(("C", "D"), "ko"))
    return machine, stmt, dists, sched


# the command line's entry point

ALGORITHMS = tuple(REGISTRY)


def bundle_from_config(name: str, machine: Machine = None, dims=None,
                       chunk: int = 1) -> AlgorithmBundle:
    """Build a registry algorithm from generic run options."""
    key = name.lower().replace("_", "-")
    if key not in REGISTRY:
        raise ConfigError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")
    build, _, default_machine, chunked = REGISTRY[key]
    if chunk != 1 and not chunked:
        raise ConfigError(f"{key} takes no chunk, got {chunk}")
    kwargs = {"dims": tuple(dims)} if dims else {}
    if chunked:
        kwargs["chunk"] = chunk
    default = parse_machine(default_machine)
    machine = machine or default
    if [len(lvl) for lvl in machine.levels] != [len(lvl) for lvl in default.levels]:
        raise ConfigError(f"{key} needs a machine shaped like {default}, got {machine}")
    return build(*machine.flat_dims, **kwargs)
