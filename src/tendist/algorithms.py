"""Ready-made distributed algorithm bundles.

Each bundle packs a statement, a machine, per-tensor distributions, and a
schedule, so it can be run and traced with one call. Signature callables
check the communication pattern a bundle is supposed to produce and return
a list of violations (empty when the trace matches).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    BadGrid,
    ConfigError,
    FactorMismatch,
    NonCubeGrid,
    NonSquareGrid,
)
from .distribution import TensorDistribution
from .ir import TensorIndexStmt, parse_statement
from .machine import Machine, grid, make_machine
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
    signature: object = None  # callable(trace) -> list of problem strings
    description: str = ""

    @property
    def input_names(self) -> list:
        out_name = self.statement.lhs.tensor.name
        return sorted(n for n in self.statement.tensors() if n != out_name)

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
        t = DenseTensor(var.dims)
        flat = t.data.reshape(-1)
        for i in range(t.volume):
            flat[i] = float(rng.randint(-4, 4))
        out[name] = t
    return out


def _check_grid(*dims) -> None:
    if any(int(d) < 1 for d in dims):
        raise BadGrid(f"grid dimensions must be positive, got {dims}")


def _d(dims, machine, *levels) -> TensorDistribution:
    return TensorDistribution(dims, machine, [(tuple(x), tuple(y)) for x, y in levels])


def _gemm(dims, out="C", a="A", b="B"):
    m, n, kk = dims
    return parse_statement(f"{out}(i, j) = {a}(i, k) * {b}(k, j)",
                           {"i": m, "j": n, "k": kk})


# dense matrix multiply family

def summa(gx: int, gy: int, *, dims=(8, 8, 8), chunk: int = 1) -> AlgorithmBundle:
    """Stationary-C: A panels broadcast at task scope, B panels per k step."""
    _check_grid(gx, gy)
    m, n, kk = dims
    machine = grid(gx, gy)
    stmt = _gemm(dims)
    dists = {
        "A": _d((m, kk), machine, ("xy", ("x", "y"))),
        "B": _d((kk, n), machine, ("xy", ("x", "y"))),
        "C": _d((m, n), machine, ("xy", ("x", "y"))),
    }
    sched = (schedule()
             .divide("i", "io", "ii", gx).divide("j", "jo", "ji", gy)
             .reorder("io", "jo", "ii", "ji")
             .distribute("io").distribute("jo")
             .split("k", "ko", "ki", chunk).reorder("ko", "ii", "ji")
             .communicate("A", "jo").communicate(("B", "C"), "ko"))
    return AlgorithmBundle("summa", machine, stmt, dists, sched,
                           description="2D grid, owner-computes C")


def cannon(gx: int, gy: int, *, dims=(8, 8, 8)) -> AlgorithmBundle:
    """Skewed systolic: A shifts along rows, B along columns, each step."""
    if gx != gy:
        raise NonSquareGrid(f"cannon needs a square grid, got {gx}x{gy}")
    _check_grid(gx, gy)
    g = gx
    m, n, kk = dims
    machine = grid(g, g)
    stmt = _gemm(dims)
    dists = {
        "A": _d((m, kk), machine, ("xy", ("x", "y"))),
        "B": _d((kk, n), machine, ("xy", ("x", "y"))),
        "C": _d((m, n), machine, ("xy", ("x", "y"))),
    }
    sched = (schedule()
             .divide("i", "io", "ii", g).divide("j", "jo", "ji", g)
             .reorder("io", "jo", "ii", "ji")
             .distribute("io").distribute("jo")
             .divide("k", "ko", "ki", g).reorder("ko", "ii", "ji")
             .communicate(("A", "B"), "ko")
             .rotate("ko", ("io", "jo"), "kos"))
    return AlgorithmBundle("cannon", machine, stmt, dists, sched,
                           signature=_cannon_signature(g),
                           description="square grid, neighbor shifts")


def pumma(gx: int, gy: int, *, dims=(8, 8, 8)) -> AlgorithmBundle:
    """A broadcast once per task; B pulled skewed along columns per step."""
    if gx != gy:
        raise NonSquareGrid(f"pumma needs a square grid, got {gx}x{gy}")
    _check_grid(gx, gy)
    m, n, kk = dims
    machine = grid(gx, gy)
    stmt = _gemm(dims)
    dists = {
        "A": _d((m, kk), machine, ("xy", ("x", "y"))),
        "B": _d((kk, n), machine, ("xy", ("x", "y"))),
        "C": _d((m, n), machine, ("xy", ("x", "y"))),
    }
    sched = (schedule()
             .divide("i", "io", "ii", gx).divide("j", "jo", "ji", gy)
             .reorder("io", "jo", "ii", "ji")
             .distribute("io").distribute("jo")
             .divide("k", "ko", "ki", gx).reorder("ko", "ii", "ji")
             .communicate("A", "jo").communicate(("B", "C"), "ko")
             .rotate("ko", ("io",), "kos"))
    return AlgorithmBundle("pumma", machine, stmt, dists, sched,
                           signature=_pumma_signature(gx),
                           description="broadcast one, shift the other")


def johnson(gx: int, gy: int, gz: int, *, dims=(8, 8, 8)) -> AlgorithmBundle:
    """3D: inputs on cube faces, every task one block product, C reduced."""
    if not gx == gy == gz:
        raise NonCubeGrid(f"johnson needs a cube, got {gx}x{gy}x{gz}")
    _check_grid(gx)
    g = gx
    m, n, kk = dims
    machine = grid(g, g, g)
    stmt = _gemm(dims)
    dists = {
        "A": _d((m, kk), machine, ("xy", ("x", 0, "y"))),
        "B": _d((kk, n), machine, ("xy", (0, "y", "x"))),
        "C": _d((m, n), machine, ("xy", ("x", "y", 0))),
    }
    sched = (schedule()
             .distribute_grid(("i", "j", "k"), ("io", "jo", "ko"),
                              ("ii", "ji", "ki"), (g, g, g))
             .communicate(("A", "B", "C"), "ko"))
    return AlgorithmBundle("johnson", machine, stmt, dists, sched,
                           signature=_johnson_signature(g),
                           description="replication-free 3D block product")


def solomonik(gx: int, gy: int, gz: int, *, dims=(8, 8, 8)) -> AlgorithmBundle:
    """2.5D: inputs replicated across depth, each layer shifts through its
    own share of the reduction blocks, partial outputs reduced to the front
    face. Depth cuts the round count; the replicas cost total memory."""
    if gx != gy:
        raise NonSquareGrid(f"solomonik needs square slices, got {gx}x{gy}")
    if gy % gz:
        raise BadGrid(f"depth {gz} must divide the slice side {gy}")
    _check_grid(gx, gy, gz)
    m, n, kk = dims
    machine = grid(gx, gy, gz)
    stmt = parse_statement("A(i, j) = B(i, k) * C(k, j)",
                           {"i": m, "j": n, "k": kk})
    dists = {
        "A": _d((m, n), machine, ("xy", ("x", "y", 0))),
        "B": _d((m, kk), machine, ("xy", ("x", "y", "*"))),
        "C": _d((kk, n), machine, ("xy", ("x", "y", "*"))),
    }
    # rounds per layer align with the inputs' home blocks: each round's
    # reduction slice is exactly one block of width ceil(kk/gy)
    rounds = gy // gz
    sched = (schedule()
             .divide("i", "io", "ii", gx).divide("j", "jo", "ji", gy)
             .divide("k", "ko", "ki", gz)
             .reorder("io", "jo", "ko", "ii", "ji", "ki")
             .distribute("io").distribute("jo").distribute("ko")
             .divide("ki", "kio", "kii", rounds).reorder("kio", "ii", "ji")
             .communicate(("B", "C"), "kio")
             .rotate("kio", ("io", "jo"), "kios"))
    return AlgorithmBundle("solomonik", machine, stmt, dists, sched,
                           description="replicated inputs, depth-split k")


def cosma_like(par, seq, *, dims=(8, 8, 8)) -> AlgorithmBundle:
    """Factor each loop into a parallel and a sequential part; parallel
    factors form the grid, the sequential k factor becomes in-task rounds."""
    par, seq = tuple(int(p) for p in par), tuple(int(s) for s in seq)
    if len(par) != 3 or len(seq) != 3:
        raise FactorMismatch(f"need 3 parallel and 3 sequential factors, "
                             f"got {par} and {seq}")
    if any(p < 1 for p in par) or any(s < 1 for s in seq):
        raise FactorMismatch(f"factors must be positive, got {par} and {seq}")
    _check_grid(*par)
    pi, pj, pk = par
    si, sj, sk = seq
    m, n, kk = dims
    machine = grid(pi, pj, pk)
    stmt = parse_statement("A(i, j) = B(i, k) * C(k, j)",
                           {"i": m, "j": n, "k": kk})
    dists = {
        "A": _d((m, n), machine, ("xy", ("x", "y", 0))),
        "B": _d((m, kk), machine, ("xy", ("x", 0, "y"))),
        "C": _d((kk, n), machine, ("xy", (0, "y", "x"))),
    }
    sched = (schedule()
             .divide("i", "io", "ii", pi).divide("j", "jo", "ji", pj)
             .divide("k", "ko", "ki", pk)
             .reorder("io", "jo", "ko", "ii", "ji", "ki")
             .distribute("io").distribute("jo").distribute("ko")
             .divide("ii", "is", "il", si).divide("ji", "js", "jl", sj)
             .divide("ki", "ks", "kl", sk)
             .reorder("ks", "is", "il", "js", "jl")
             .communicate("C", "jo").communicate("B", "ks"))
    return AlgorithmBundle("cosma-like", machine, stmt, dists, sched,
                           description="parallel/sequential loop factors")


def summa_hier(*, dims=(8, 8, 8), chunk: int = 1) -> AlgorithmBundle:
    """Two-level grid (2x2 nodes of 2): rows split again inside each node."""
    m, n, kk = dims
    machine = make_machine([(2, 2), (2,)])
    stmt = _gemm(dims)
    two_level = [("xy", ("x", "y")), ("xy", ("x",))]
    dists = {
        "A": _d((m, kk), machine, *two_level),
        "B": _d((kk, n), machine, *two_level),
        "C": _d((m, n), machine, *two_level),
    }
    sched = (schedule()
             .divide("i", "io", "ii", 2).divide("j", "jo", "ji", 2)
             .reorder("io", "jo", "ii", "ji")
             .divide("ii", "iio", "iii", 2)
             .reorder("io", "jo", "iio", "iii", "ji")
             .distribute("io").distribute("jo").distribute("iio")
             .split("k", "ko", "ki", chunk).reorder("ko", "iii", "ji")
             .communicate("A", "iio").communicate(("B", "C"), "ko"))
    return AlgorithmBundle("summa-hier", machine, stmt, dists, sched,
                           description="node grid with in-node row split")


# other kernels

def ttv(g: int, *, dims=(6, 5, 4)) -> AlgorithmBundle:
    """Tensor times vector: rows distributed, vector replicated; no traffic."""
    _check_grid(g)
    di, dj, dk = dims
    machine = grid(g)
    stmt = parse_statement("A(i, j) = B(i, j, k) * c(k)",
                           {"i": di, "j": dj, "k": dk})
    dists = {
        "A": _d((di, dj), machine, ("xy", ("x",))),
        "B": _d((di, dj, dk), machine, ("xyz", ("x",))),
        "c": _d((dk,), machine, ("x", ("*",))),
    }
    sched = (schedule()
             .divide("i", "io", "ii", g).distribute("io")
             .communicate("c", "io"))
    return AlgorithmBundle("ttv", machine, stmt, dists, sched,
                           signature=_silent_signature(),
                           description="communication-free row layout")


def ttm(g: int, *, dims=(5, 4, 6, 3)) -> AlgorithmBundle:
    """Tensor times matrix: rows distributed, the matrix replicated."""
    _check_grid(g)
    di, dj, dk, dl = dims
    machine = grid(g)
    stmt = parse_statement("Y(i, j, l) = B(i, j, k) * C(k, l)",
                           {"i": di, "j": dj, "k": dk, "l": dl})
    dists = {
        "Y": _d((di, dj, dl), machine, ("xyz", ("x",))),
        "B": _d((di, dj, dk), machine, ("xyz", ("x",))),
        "C": _d((dk, dl), machine, ("xy", ("*",))),
    }
    sched = (schedule()
             .divide("i", "io", "ii", g).distribute("io")
             .communicate("C", "io"))
    return AlgorithmBundle("ttm", machine, stmt, dists, sched,
                           signature=_silent_signature(),
                           description="replicated matrix, local products")


def innerprod(g: int, *, dims=(6, 5)) -> AlgorithmBundle:
    """Frobenius inner product; partials reduced to processor zero."""
    _check_grid(g)
    di, dj = dims
    machine = grid(g)
    stmt = parse_statement("a = A(i, j) * B(i, j)", {"i": di, "j": dj})
    dists = {
        "a": _d((), machine, ("", (0,))),
        "A": _d((di, dj), machine, ("xy", ("x",))),
        "B": _d((di, dj), machine, ("xy", ("x",))),
    }
    sched = (schedule()
             .divide("i", "io", "ii", g).distribute("io")
             .communicate(("A", "B"), "io"))
    return AlgorithmBundle("innerprod", machine, stmt, dists, sched,
                           signature=_innerprod_signature(g),
                           description="local partials, scalar fan-in")


def mttkrp(g1: int, g2: int, *, dims=(6, 4, 5, 3)) -> AlgorithmBundle:
    """B stays put on a 2D grid; factor matrices move; A reduced per row."""
    _check_grid(g1, g2)
    di, dj, dk, dl = dims
    machine = grid(g1, g2)
    stmt = parse_statement("A(i, j) = B(i, k, l) * C(k, j) * D(l, j)",
                           {"i": di, "j": dj, "k": dk, "l": dl})
    dists = {
        "A": _d((di, dj), machine, ("xy", ("x", 0))),
        "B": _d((di, dk, dl), machine, ("xyz", ("x", "y"))),
        "C": _d((dk, dj), machine, ("xy", (0, "x"))),
        "D": _d((dl, dj), machine, ("xy", (0, 0))),
    }
    sched = (schedule()
             .divide("i", "io", "ii", g1).divide("k", "ko", "ki", g2)
             .reorder("io", "ko", "ii", "j", "ki", "l")
             .distribute("io").distribute("ko")
             .communicate(("C", "D"), "ko"))
    return AlgorithmBundle("mttkrp", machine, stmt, dists, sched,
                           signature=_mttkrp_signature(g1, g2),
                           description="stationary 3-tensor, reduced rows")


# trace signatures

def _cannon_signature(g):
    def check(trace) -> list:
        problems = []
        steady = [e for e in trace.events_of(kind="copy", phase="compute")
                  if e.timestep > 0]
        if not steady:
            problems.append("no steady-state transfers")
        for e in steady:
            di, dj = e.dst
            if e.tensor == "A" and e.src != (di, (dj + 1) % g):
                problems.append(f"A step {e.timestep}: {e.src}->{e.dst}")
            if e.tensor == "B" and e.src != ((di + 1) % g, dj):
                problems.append(f"B step {e.timestep}: {e.src}->{e.dst}")
        if trace.events_of(kind="reduce"):
            problems.append("unexpected reductions")
        return problems
    return check


def _pumma_signature(g):
    def check(trace) -> list:
        problems = []
        for e in trace.events_of(kind="copy", phase="compute", tensor="A"):
            if e.timestep > 0:
                problems.append(f"A moved again at step {e.timestep}")
            if e.src[0] != e.dst[0]:
                problems.append(f"A crossed rows: {e.src}->{e.dst}")
        for e in trace.events_of(kind="copy", phase="compute", tensor="B"):
            if e.src[1] != e.dst[1]:
                problems.append(f"B left its column: {e.src}->{e.dst}")
        return problems
    return check


def _johnson_signature(g):
    def check(trace) -> list:
        problems = []
        if trace.num_steps != 1:
            problems.append(f"expected one step, got {trace.num_steps}")
        fan_in: dict = {}
        for e in trace.events_of(kind="reduce"):
            fan_in[e.dst] = fan_in.get(e.dst, 0) + 1
        for dst, cnt in sorted(fan_in.items()):
            if dst[2] != 0:
                problems.append(f"reduction into off-face {dst}")
            if cnt != g - 1:
                problems.append(f"{dst} got {cnt} partials, expected {g - 1}")
        return problems
    return check


def _innerprod_signature(g):
    def check(trace) -> list:
        problems = []
        reduces = trace.events_of(kind="reduce")
        if len(reduces) != g - 1:
            problems.append(f"{len(reduces)} reductions, expected {g - 1}")
        for e in reduces:
            if e.dst != (0,):
                problems.append(f"reduction into {e.dst}")
        if trace.events_of(kind="copy", phase="compute"):
            problems.append("unexpected copies")
        return problems
    return check


def _mttkrp_signature(g1, g2):
    def check(trace) -> list:
        problems = []
        for e in trace.events_of(kind="copy", phase="compute", tensor="B"):
            problems.append(f"B moved: {e.src}->{e.dst}")
        reduces = trace.events_of(kind="reduce")
        if len(reduces) != g1 * (g2 - 1):
            problems.append(f"{len(reduces)} reductions, expected {g1 * (g2 - 1)}")
        for e in reduces:
            if e.dst != (e.src[0], 0):
                problems.append(f"partial left its row: {e.src}->{e.dst}")
        return problems
    return check


def _silent_signature():
    def check(trace) -> list:
        noisy = trace.events_of(phase="compute")
        return [f"{e.tensor}: {e.src}->{e.dst}" for e in noisy]
    return check


# CLI-facing registry

ALGORITHMS = ("summa", "cannon", "pumma", "johnson", "solomonik",
              "cosma-like", "summa-hier", "ttv", "ttm", "innerprod", "mttkrp")


def dim_count(name: str) -> int:
    """How many extents a registry algorithm's dims take, one per index."""
    return {"ttm": 4, "mttkrp": 4, "innerprod": 2}.get(name, 3)


def _flat(machine: Machine, want: int, name: str):
    if machine.num_levels != 1 or len(machine.flat_dims) != want:
        raise ConfigError(f"{name} needs a flat {want}D machine, got {machine}")
    return machine.flat_dims


def bundle_from_config(name: str, machine: Machine = None, dims=None,
                       chunk: int = 1) -> AlgorithmBundle:
    """Build a registry algorithm from generic run options."""
    key = name.lower().replace("_", "-")
    if dims and len(dims) != dim_count(key):
        raise ConfigError(f"{name} takes {dim_count(key)} extents, got {len(dims)}")
    gemm_dims = tuple(dims) if dims else (8, 8, 8)
    if key == "summa":
        gx, gy = _flat(machine or grid(2, 2), 2, key)
        return summa(gx, gy, dims=gemm_dims, chunk=chunk)
    if key == "cannon":
        gx, gy = _flat(machine or grid(2, 2), 2, key)
        return cannon(gx, gy, dims=gemm_dims)
    if key == "pumma":
        gx, gy = _flat(machine or grid(2, 2), 2, key)
        return pumma(gx, gy, dims=gemm_dims)
    if key == "johnson":
        gx, gy, gz = _flat(machine or grid(2, 2, 2), 3, key)
        return johnson(gx, gy, gz, dims=gemm_dims)
    if key == "solomonik":
        gx, gy, gz = _flat(machine or grid(2, 2, 2), 3, key)
        return solomonik(gx, gy, gz, dims=gemm_dims)
    if key == "cosma-like":
        par = _flat(machine or grid(2, 2, 1), 3, key)
        return cosma_like(par, (1, 1, max(1, chunk)), dims=gemm_dims)
    if key == "summa-hier":
        if machine is not None and machine != make_machine([(2, 2), (2,)]):
            raise ConfigError(f"summa-hier runs on the 2x2/2 machine, got {machine}")
        return summa_hier(dims=gemm_dims, chunk=chunk)
    if key == "ttv":
        (g,) = _flat(machine or grid(2), 1, key)
        return ttv(g, dims=tuple(dims) if dims else (6, 5, 4))
    if key == "ttm":
        (g,) = _flat(machine or grid(2), 1, key)
        return ttm(g, dims=tuple(dims) if dims else (5, 4, 6, 3))
    if key == "innerprod":
        (g,) = _flat(machine or grid(2), 1, key)
        return innerprod(g, dims=tuple(dims) if dims else (6, 5))
    if key == "mttkrp":
        g1, g2 = _flat(machine or grid(2, 2), 2, key)
        return mttkrp(g1, g2, dims=tuple(dims) if dims else (6, 4, 5, 3))
    raise ConfigError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")
