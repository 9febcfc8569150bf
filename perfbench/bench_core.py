"""Workloads, the ledger gate and one timed iteration of the tendist benchmark.

Every iteration goes through the public API the CLI uses
(bundle.run -> trace.stats -> verify_result) and is checked three ways:
the output must equal an independent numpy einsum of the inputs, it must
pass verify_result (the sequential reference), and the ledger must hash to
the digest pinned below. The ledger does not depend on input values, so one
pin per workload holds for every seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    machine: tuple
    n: int
    chunk: int
    einsum: str        # independent numpy reference for the output
    operands: tuple    # input tensor names in einsum order
    events: int
    elements: int
    steps: int
    high_water: int
    digest: str        # sha256 of ledger_blob(); see ledger_digest()


# Pins were taken from the unmodified simulator. A change to any of them is
# a change in the simulated behaviour, not a speed-up.
WORKLOADS = {
    w.name: w for w in (
        # processor-count axis: replay dominates (every fetched piece is
        # intersected with every color, _pick_source scans every processor).
        # 8x8 with chunk 1 keeps one run near 0.6 s and replay above 90% of
        # it, so a run holds enough samples for its fastest to ride out host
        # noise.
        Workload("summa-wide", "summa", (8, 8), 16, 1, "ik,kj->ij", ("A", "B"),
                 events=1344, elements=3584, steps=16, high_water=48,
                 digest="466bafcdc95682149b7e3cbd13a3443936f712da1ccaf153c3aaa264f9d5bf63"),
        # tensor-extent axis: the numeric interpreter dominates, one step,
        # output is a reduce write-back; n=40 keeps one run near 0.6 s
        Workload("johnson-cube", "johnson", (4, 4, 4), 40, 1, "ik,kj->ij", ("A", "B"),
                 events=144, elements=14400, steps=1, high_water=400,
                 digest="a13bb89f3567ac7696531dac73c5a8926505ec0da89ec8941f0011072d143e58"),
        # replay and numeric split about evenly; sources are previous-step
        # holders after rotate, not the home
        Workload("cannon-shift", "cannon", (8, 8), 32, 1, "ik,kj->ij", ("A", "B"),
                 events=896, elements=14336, steps=8, high_water=128,
                 digest="3cf22a7d8815a45abeca2e971e68404b1ace1548cf67f96ffe8323a6869ef220"),
    )
}


def import_tendist():
    """Import tendist from this checkout's src/, never from elsewhere."""
    if not (SRC_DIR / "tendist" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tendist sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import tendist
    if Path(tendist.__file__).resolve().parent != SRC_DIR / "tendist":
        raise SystemExit(f"perfbench: imported tendist from {tendist.__file__}")
    return tendist


def build(tendist, wl: Workload, seed: int):
    """The CLI's set-up path: bundle_from_config, then random_inputs(seed)."""
    machine = tendist.machine.grid(*wl.machine)
    bundle = tendist.algorithms.bundle_from_config(
        wl.algorithm, machine, (wl.n, wl.n, wl.n), wl.chunk)
    inputs = tendist.algorithms.random_inputs(bundle.statement, seed)
    return bundle, inputs


def ledger_blob(events: list, stats: dict) -> bytes:
    """Canonical bytes of the event list plus stats (config=None)."""
    rows = [[e.timestep, list(e.src), list(e.dst), e.tensor,
             list(e.rect.lo), list(e.rect.hi), e.elements, e.kind, e.phase]
            for e in events]
    return json.dumps({"events": rows, "stats": stats}, sort_keys=True,
                      separators=(",", ":")).encode()


def ledger_digest(events: list, stats: dict) -> str:
    return hashlib.sha256(ledger_blob(events, stats)).hexdigest()


def ledger_counts(stats: dict) -> dict:
    return {
        "events": stats["totals"]["messages"],
        "elements": stats["totals"]["elements"],
        "steps": stats["num_steps"],
        "high_water": stats["memory_high_water"]["overall"],
    }


def ledger_problems(wl: Workload, events: list, stats: dict) -> list:
    """Differences between a run's ledger and the workload's pins."""
    problems = []
    for key, got in ledger_counts(stats).items():
        want = getattr(wl, key)
        if got != want:
            problems.append(f"{key} {got} != pinned {want}")
    digest = ledger_digest(events, stats)
    if digest != wl.digest:
        problems.append(f"ledger digest {digest} != pinned {wl.digest}")
    return problems


def value_problems(wl: Workload, inputs: dict, output) -> list:
    # imported here so that setup_probe counts numpy's import in setup_s
    import numpy as np
    want = np.einsum(wl.einsum, *(inputs[n].data for n in wl.operands))
    # small-integer inputs: every partial sum is exact in float64
    if not np.array_equal(output.data, want):
        return [f"output differs from numpy einsum {wl.einsum}"]
    return []


def _spin() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def pin_quietest_cpu(cpus: set) -> None:
    """Pin this process to the CPU of `cpus` that runs a short spin fastest.

    On a shared host other tenants slow one virtual CPU at a time, for
    seconds; running each iteration on the currently quieter one keeps those
    episodes out of most samples. Does nothing with a single CPU.
    """
    if len(cpus) < 2:
        return
    best = None
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        t = min(_spin() for _ in range(3))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})


# Host-speed calibration. Other tenants of a shared host slow it for
# stretches of a minute or more, longer than a run, and then even a run's
# fastest iteration is slow. A fixed pure-Python pass, timed between
# iterations, slows with it: it mixes the kinds of work the simulator does
# (integer arithmetic, dict lookups on tuple keys, allocation of small
# dicts, lists and tuples) in about equal parts. run_s and verify_s are
# reported as seconds on a host whose fastest pass takes CAL_NOMINAL_S, the
# pass's fastest time on the quiet 2-vCPU host the benchmark was tuned on.
CAL_NOMINAL_S = 0.0068
CAL_PASSES = 8  # timed passes before each iteration; the fastest counts
_CAL_TABLE = {(i, j): (i * j, (i, j)) for i in range(60) for j in range(60)}
_CAL_KEYS = list(_CAL_TABLE)


def calibration_pass() -> float:
    """Seconds one calibration pass takes; the work never changes."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    for _ in range(8):
        for key in _CAL_KEYS:
            value = _CAL_TABLE[key]
            acc += value[0] + len(value[1])
    objs = [{"k": (i, i + 1), "v": [i, i]} for i in range(8_000)]
    acc += sum(len(o["v"]) + o["k"][0] for o in objs)
    return time.perf_counter() - t0


def calibrate() -> float:
    """The fastest of CAL_PASSES calibration passes."""
    return min(calibration_pass() for _ in range(CAL_PASSES))


@dataclass
class Sample:
    run_s: float
    verify_s: float
    problems: list
    stats: dict


def iteration(tendist, wl: Workload, bundle, inputs, span=None) -> Sample:
    """One checked run. `span(name)` is a context manager when tracing."""
    gc.collect()  # start each run from the heap a fresh process would have
    with span("bench.run") if span else nullcontext():
        t0 = time.perf_counter()
        result, _ = bundle.run(inputs=inputs, workers=1)
        stats = result.trace.stats()
        t1 = time.perf_counter()
    problems = []
    with span("bench.verify") if span else nullcontext():
        t2 = time.perf_counter()
        try:
            tendist.simulator.verify_result(bundle.statement, inputs, result)
        except tendist.errors.VerifyFail as exc:
            problems.append(f"verify_result: {exc}")
        t3 = time.perf_counter()
    problems += value_problems(wl, inputs, result.output)
    problems += ledger_problems(wl, result.trace.events, stats)
    return Sample(t1 - t0, t3 - t2, problems, stats)


def quartiles(values: list) -> tuple:
    """(p25, median, p75); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def provenance(seed: int, workload: str, trace: int) -> dict:
    import platform
    import numpy
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "workers": 1,
    }


def git_sha():
    """HEAD read straight from .git; None outside a git checkout."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, so results outside git stay traceable."""
    h = hashlib.sha256()
    for path in sorted((SRC_DIR / "tendist").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
