"""Deterministic execution of distributed statements: tasks, events, memory.

execute() launches one task per processor from the leading distributed loops,
replays communication in lockstep timesteps, runs the numeric work per task,
and commits write-backs. The replay takes each missing piece from last step's
temporary holder (so shifting algorithms come out as neighbor traffic), then
a launch temporary holder, then the first home that is not the receiver.
redistribute() replays a placement statement the same way, so later
receivers of a replicated piece get it from an earlier one. Event order is
machine enumeration order throughout, so traces are identical run to run.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .cin import (
    Communicate,
    Distribute,
    Forall,
    Place,
    Reduce,
    forall_chain,
    interpret,
    leaf_accesses,
    lower_to_cin,
    rebuild_chain,
    relation_defs,
    relations_of,
    unit_env,
    var_interval,
    with_relations,
)
from .distribution import HyperRect, TensorDistribution, lower_placement, subtract_rects
from .errors import (
    ConfigError,
    ExtentMismatch,
    GridMismatch,
    MissingDistribution,
    MissingInput,
    NonAffineAccess,
    OOBAccess,
    OverlappingWrites,
    VerifyFail,
    WriteToReplica,
)
from .ir import Access, IndexVar, TensorIndexStmt, TensorVar, sequential_evaluate
from .machine import Machine
from .tensors import DenseTensor


# interval bounds for loop nests

def access_rect(access: Access, env: dict, defs: dict):
    """Index box one access touches under interval env; None when empty."""
    lo, hi = [], []
    for v in access.indices:
        if not isinstance(v, IndexVar):
            raise NonAffineAccess(f"access index {v!r} is not a plain variable")
        a, b = var_interval(v.name, env, defs)
        lo.append(a)
        hi.append(b)
    rect = HyperRect(tuple(lo), tuple(hi))
    if rect.is_empty and rect.lo:
        return None
    dims = access.tensor.dims
    for a, b, d in zip(rect.lo, rect.hi, dims):
        if a < 0 or b > d:
            raise OOBAccess(f"{access.tensor.name} rows {rect} outside dims {dims}")
    return rect


# events and traces

@dataclass(frozen=True)
class CommEvent:
    """One aggregate transfer: src sends this rect of tensor to dst."""

    timestep: int
    src: tuple
    dst: tuple
    tensor: str
    rect: HyperRect
    elements: int
    kind: str  # "copy" | "reduce"
    phase: str  # "compute" | "placement"


@dataclass(frozen=True)
class TaskInfo:
    coord: tuple
    env: dict = field(hash=False, compare=False, default_factory=dict)
    out_rect: object = None


@dataclass(frozen=True)
class Requirement:
    """Debug record: what one task needed for one step, before sourcing."""

    coord: tuple
    step: int
    tensor: str
    rect: HyperRect
    scope: str  # "launch" | "step"


class ExecutionTrace:
    """Accumulated events, launches, and per-processor memory high-water."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.events: list = []
        self.launches: list = []
        self.requirements: list = []
        self.num_steps = 0
        self.memory = {p: 0 for p in machine.enumerate()}

    def bump_memory(self, coord, elements: int) -> None:
        if elements > self.memory[coord]:
            self.memory[coord] = elements

    @property
    def high_water(self) -> int:
        return max(self.memory.values(), default=0)

    def events_of(self, kind=None, phase=None, tensor=None, step=None) -> list:
        out = []
        for e in self.events:
            if kind is not None and e.kind != kind:
                continue
            if phase is not None and e.phase != phase:
                continue
            if tensor is not None and e.tensor != tensor:
                continue
            if step is not None and e.timestep != step:
                continue
            out.append(e)
        return out

    @property
    def total_messages(self) -> int:
        return len(self.events)

    @property
    def total_elements(self) -> int:
        return sum(e.elements for e in self.events)

    def per_edge(self) -> list:
        agg: dict = {}
        for e in self.events:
            key = (e.src, e.dst)
            m, el = agg.get(key, (0, 0))
            agg[key] = (m + 1, el + e.elements)
        rank = self.machine.rank_of
        out = []
        for (src, dst) in sorted(agg, key=lambda k: (rank(k[0]), rank(k[1]))):
            m, el = agg[(src, dst)]
            out.append({"src": list(src), "dst": list(dst), "messages": m, "elements": el})
        return out

    def per_step(self) -> list:
        agg: dict = {}
        for e in self.events:
            if e.phase != "compute":
                continue
            m, el = agg.get(e.timestep, (0, 0))
            agg[e.timestep] = (m + 1, el + e.elements)
        out = []
        for s in range(self.num_steps):
            m, el = agg.get(s, (0, 0))
            out.append({"step": s, "messages": m, "elements": el})
        return out

    def stats(self, config=None) -> dict:
        def tally(events):
            return {"messages": len(events), "elements": sum(e.elements for e in events)}

        copies = self.events_of(kind="copy")
        reduces = self.events_of(kind="reduce")
        out = {
            "schema": 1,
            "config": dict(config or {}),
            "machine": str(self.machine),
            "num_steps": self.num_steps,
            "totals": {
                "messages": self.total_messages,
                "elements": self.total_elements,
                "copy_messages": len(copies),
                "copy_elements": sum(e.elements for e in copies),
                "reduce_messages": len(reduces),
                "reduce_elements": sum(e.elements for e in reduces),
            },
            "phases": {
                "placement": tally(self.events_of(phase="placement")),
                "compute": tally(self.events_of(phase="compute")),
            },
            "per_edge": self.per_edge(),
            "per_step": self.per_step(),
            "memory_high_water": {
                "overall": self.high_water,
                "per_processor": [
                    {"processor": list(p), "elements": self.memory[p]}
                    for p in self.machine.enumerate()
                ],
            },
            "launches": list(self.launches),
        }
        if self.machine.num_levels > 1:
            end0 = self.machine.level_slices()[0][1]
            intra = [e for e in self.events if e.src[:end0] == e.dst[:end0]]
            inter = [e for e in self.events if e.src[:end0] != e.dst[:end0]]
            out["levels"] = {
                "intra_node": tally(intra),
                "inter_node": tally(inter),
            }
        return out


def write_edge_csv(trace: ExecutionTrace, path) -> None:
    """Per-edge aggregate as CSV: src,dst,messages,elements."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "messages", "elements"])
        for row in trace.per_edge():
            w.writerow([
                "x".join(str(c) for c in row["src"]),
                "x".join(str(c) for c in row["dst"]),
                row["messages"],
                row["elements"],
            ])


# regions

class Region:
    """One tensor's canonical values plus who holds which piece."""

    def __init__(self, name: str, tensor: DenseTensor, dist: TensorDistribution):
        self.name = name
        self.tensor = tensor
        self.dist = dist
        self.residency = dist.residency()

    def held_at(self, coord) -> list:
        return self.residency.get(coord, [])


class RegionStore:
    """All regions on one machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.regions: dict = {}

    def place(self, name: str, tensor: DenseTensor, dist: TensorDistribution) -> Region:
        """Create a region already distributed; no transfers are recorded."""
        if dist.machine != self.machine:
            raise ConfigError(f"distribution machine {dist.machine} is not the store's {self.machine}")
        if tensor.dims != dist.tensor_dims:
            raise ConfigError(f"{name} has dims {tensor.dims}, distribution wants {dist.tensor_dims}")
        region = Region(name, tensor.copy(), dist)
        self.regions[name] = region
        return region

    def persistent_volume(self, coord) -> int:
        return sum(r.volume for reg in self.regions.values() for r in reg.held_at(coord))

    def __contains__(self, name) -> bool:
        return name in self.regions

    def __getitem__(self, name) -> Region:
        if name not in self.regions:
            raise MissingDistribution(f"tensor {name} has no placed region")
        return self.regions[name]


def redistribute(store: RegionStore, name: str, new_dist: TensorDistribution,
                 trace: ExecutionTrace) -> None:
    """Move a region to a new distribution, recording placement-phase events.

    Replays the new distribution's placement statement against the current
    holders. Old copies are dropped afterwards; the transfer moment (old plus
    fetched pieces live together) sets the memory high-water.
    """
    region = store[name]
    if region.dist.tensor_dims != new_dist.tensor_dims:
        raise ConfigError(f"redistribution changes dims {region.dist.tensor_dims} "
                          f"-> {new_dist.tensor_dims}")
    if new_dist.machine != store.machine:
        raise ConfigError("redistribution must stay on one machine")
    placement = lower_placement(TensorVar(name, new_dist.tensor_dims), new_dist)
    first = len(trace.events)
    _replay(lower_to_tasks(placement, store), store, trace)
    region.dist = new_dist
    region.residency = new_dist.residency()
    trace.launches.append({
        "phase": "placement", "kind": "redistribute", "tensor": name,
        "elements": sum(e.elements for e in trace.events[first:]),
        "to": new_dist.describe(),
    })


# lowering a scheduled statement to a task launch

@dataclass
class LaunchPlan:
    machine: Machine
    launch_vars: list       # leading distributed Foralls, outermost first
    task_loops: list        # the Foralls below them, outermost first
    leaf: object            # Assign | Reduce
    relations: tuple
    defs: dict
    intervals: dict         # loop var -> (lo, hi)
    step_var: object        # Forall | None
    num_steps: int
    fetch_plan: list        # (tensor name, accesses tuple, scope)
    out_name: str           # None for a Place leaf, as are the two below
    out_kind: str           # "copy" | "reduce"
    out_access: Access
    tasks: list             # TaskInfo, machine enumeration order


def lower_to_tasks(stmt, store: RegionStore) -> LaunchPlan:
    machine = store.machine
    rels = relations_of(stmt)
    defs = relation_defs(rels)
    chain, leaf = forall_chain(stmt)
    dist_names = {r.var for r in rels if isinstance(r, Distribute)}

    group = list(itertools.takewhile(lambda f: f.var in dist_names, chain))
    task_loops = chain[len(group):]
    if not group:
        raise GridMismatch("statement has no leading distributed loops")
    stray = dist_names & {f.var for f in task_loops}
    if stray:
        raise GridMismatch(f"distributed loops {sorted(stray)} are not outermost")
    flat = machine.flat_dims
    if len(group) != len(flat):
        raise GridMismatch(
            f"{len(group)} distributed loops for machine {machine} with "
            f"{len(flat)} dimensions")
    for f, d in zip(group, flat):
        full = f.lo == 0 and f.hi == d
        pinned = f.extent == 1 and 0 <= f.lo < d
        if not (full or pinned):
            raise GridMismatch(
                f"loop {f.var} spans [{f.lo},{f.hi}) over a machine dimension "
                f"of extent {d}")

    if isinstance(leaf, Place):  # no output: the placed tensor is fetched
        out_access = out_name = out_kind = None
    else:
        out_access = leaf.lhs
        out_name = out_access.tensor.name
        out_kind = "reduce" if isinstance(leaf, Reduce) else "copy"

    accesses = leaf_accesses(leaf)
    names = sorted({a.tensor.name for a in accesses})
    for n in names:
        if n not in store:
            raise MissingDistribution(f"tensor {n} has no placed region")
    if out_kind == "copy" and store[out_name].dist.replicated:
        raise WriteToReplica(
            f"{out_name} is replicated; plain writes would diverge the copies")

    comms = [r for r in rels if isinstance(r, Communicate)]
    seq_comm_vars = {c.var for c in comms} - dist_names
    step_var = next((f for f in task_loops if f.var in seq_comm_vars), None)
    num_steps = step_var.extent if step_var is not None else 1

    intervals = {f.var: (f.lo, f.hi) for f in chain}

    accs_by_name: dict = {}
    for acc in accesses:
        lst = accs_by_name.setdefault(acc.tensor.name, [])
        if acc.var_names not in [a.var_names for a in lst]:
            lst.append(acc)
    fetch_plan = []
    for n in names:
        if n == out_name:
            continue
        named = [c for c in comms if n in c.tensors]
        if named and named[0].var in dist_names:
            scope = "launch"
        elif step_var is not None:
            scope = "step"
        else:
            scope = "launch"
        fetch_plan.append((n, tuple(accs_by_name[n]), scope))

    tasks = []
    for coord in itertools.product(*(range(f.lo, f.hi) for f in group)):
        env = {f.var: c for f, c in zip(group, coord)}
        rect = out_access and access_rect(out_access, {**intervals, **unit_env(env)}, defs)
        tasks.append(TaskInfo(coord, env, rect))

    if out_kind == "copy":
        for a, b in itertools.combinations(tasks, 2):
            if a.out_rect is None or b.out_rect is None:
                continue
            if a.out_rect.intersect(b.out_rect) is not None:
                raise OverlappingWrites(
                    f"tasks {a.coord} and {b.coord} both write "
                    f"{a.out_rect.intersect(b.out_rect)} of {out_name}")

    return LaunchPlan(machine, group, task_loops, leaf, rels, defs, intervals,
                      step_var, num_steps, fetch_plan, out_name, out_kind,
                      out_access, tasks)


# execution

def _rects_of(entries: list, tensor: str) -> list:
    return [r for (n, r) in entries if n == tensor]


def _pick_source(tensor, piece, p, procs_home, prev_temps, launch_temps, order):
    for temps in (prev_temps, launch_temps):
        for q in order:
            if q == p:
                continue
            for r in _rects_of(temps.get(q, []), tensor):
                if r.contains(piece):
                    return q
    for q in procs_home:
        if q != p:
            return q
    return None


def _numeric_task(plan: LaunchPlan, task: TaskInfo, read_store: dict) -> DenseTensor:
    pinned = [Forall(f.var, c, c + 1, None) for f, c in zip(plan.launch_vars, task.coord)]
    body = rebuild_chain(pinned + plan.task_loops, plan.leaf)
    result = interpret(with_relations(body, plan.relations), read_store)
    return result[plan.out_name]


def _replay(plan: LaunchPlan, store: RegionStore, trace: ExecutionTrace) -> None:
    """Ledger every transfer of one launch and bump memory, step by step.

    Each task's needs are cut down by what it already holds, split along the
    owning distribution's pieces, and sourced by _pick_source. Memory at each
    step counts resident pieces, the output buffer and every live temporary.
    """
    order = list(store.machine.enumerate())
    events = trace.events
    phase = "placement" if isinstance(plan.leaf, Place) else "compute"
    launch_temps: dict = {}
    prev_temps: dict = {}
    persist = {p: store.persistent_volume(p) for p in order}
    buffers = {t.coord: (t.out_rect.volume if t.out_rect is not None else 0)
               for t in plan.tasks}

    def fetch(task, tensor, rect, step, scope, cur_temps):
        region = store[tensor]
        p = task.coord
        held = list(region.held_at(p))
        held += _rects_of(launch_temps.get(p, []), tensor)
        held += _rects_of(prev_temps.get(p, []), tensor)
        held += _rects_of(cur_temps.get(p, []), tensor)
        sink = launch_temps if scope == "launch" else cur_temps
        for piece in subtract_rects([rect], held):
            for color in region.dist.colors():
                part = piece.intersect(region.dist.piece_bounds(color))
                if part is None:
                    continue
                src = _pick_source(tensor, part, p, region.dist.processors_of(color),
                                   prev_temps, launch_temps, order)
                if src is not None:
                    events.append(CommEvent(step, src, p, tensor, part,
                                            part.volume, "copy", phase))
                sink.setdefault(p, []).append((tensor, part))

    for s in range(plan.num_steps):
        cur_temps: dict = {}
        for task in plan.tasks:
            launch_ivals = {**plan.intervals, **unit_env(task.env)}
            step_ivals = dict(launch_ivals)
            if plan.step_var is not None:
                step_ivals[plan.step_var.var] = (s, s + 1)
            for tensor, accs, scope in plan.fetch_plan:
                if scope == "launch" and s > 0:
                    continue
                # launch-scope needs span every step; step scope pins one
                ivals = launch_ivals if scope == "launch" else step_ivals
                seen = []
                for acc in accs:
                    rect = access_rect(acc, ivals, plan.defs)
                    if rect is None or rect in seen:
                        continue
                    seen.append(rect)
                    trace.requirements.append(
                        Requirement(task.coord, s, tensor, rect, scope))
                    fetch(task, tensor, rect, s, scope, cur_temps)
        for p in order:
            vol = persist[p] + buffers.get(p, 0)
            vol += sum(r.volume for (_, r) in launch_temps.get(p, []))
            vol += sum(r.volume for (_, r) in prev_temps.get(p, []))
            vol += sum(r.volume for (_, r) in cur_temps.get(p, []))
            trace.bump_memory(p, vol)
        prev_temps = cur_temps


def execute(stmt, store: RegionStore, *, trace: ExecutionTrace = None,
            label: str = None):
    """Run one scheduled statement: communication ledger plus numeric commit.

    Phase one replays all transfers (`_replay`). Phase two computes every
    task's numeric contribution and commits assignments and reductions to
    the canonical tensors, recording write-back events where the executor is
    not the home. A placement statement is refused: it runs through
    `redistribute`.
    """
    if trace is None:
        trace = ExecutionTrace(store.machine)
    plan = lower_to_tasks(stmt, store)
    if isinstance(plan.leaf, Place):
        raise ConfigError("placement statements run through place()/redistribute()")
    _replay(plan, store, trace)
    out_region = store[plan.out_name]
    events = trace.events

    read_store = {n: store[n].tensor for n in (t for t, _, _ in plan.fetch_plan)}
    read_store[plan.out_name] = out_region.tensor
    partials = [_numeric_task(plan, t, read_store) for t in plan.tasks]

    last = plan.num_steps - 1
    canon = out_region.tensor.data
    for task, partial in zip(plan.tasks, partials):
        rect = task.out_rect
        if rect is None:
            continue
        sl = rect.slices()
        if plan.out_kind == "reduce":
            canon[sl] += partial.data[sl]
        else:
            canon[sl] = partial.data[sl]
        for color in out_region.dist.colors():
            part = rect.intersect(out_region.dist.piece_bounds(color))
            if part is None:
                continue
            procs = out_region.dist.processors_of(color)
            targets = procs if plan.out_kind == "copy" else procs[:1]
            for h in targets:
                if h != task.coord:
                    events.append(CommEvent(last, task.coord, h, plan.out_name,
                                            part, part.volume, plan.out_kind,
                                            "compute"))

    if plan.out_kind == "reduce" and out_region.dist.replicated:
        # replicas beyond the home are stale after a reduction; drop them
        for color in out_region.dist.colors():
            procs = out_region.dist.processors_of(color)
            bounds = out_region.dist.piece_bounds(color)
            for q in procs[1:]:
                out_region.residency[q] = [
                    r for r in out_region.residency.get(q, []) if r != bounds]

    trace.num_steps = max(trace.num_steps, plan.num_steps)
    trace.launches.append({
        "phase": "compute",
        "label": label or plan.out_name,
        "tasks": len(plan.tasks),
        "steps": plan.num_steps,
    })
    return trace


# running whole statements

@dataclass
class RunResult:
    output: DenseTensor
    output_name: str
    trace: ExecutionTrace
    store: RegionStore


def run_statement(stmt, machine: Machine, distributions: dict, inputs: dict,
                  schedule=None, *, label: str = None) -> RunResult:
    """Place inputs, apply the schedule, execute, and return the output.

    stmt may be a tensor index statement (lowered first) or an already
    scheduled loop statement. distributions and inputs map tensor names;
    the output region starts as zeros under its distribution.
    """
    if isinstance(stmt, TensorIndexStmt):
        cin = lower_to_cin(stmt)
    else:
        cin = stmt
    if schedule is not None:
        cin = schedule.apply(cin)

    accesses = leaf_accesses(forall_chain(cin)[1])
    out_name = accesses[0].tensor.name  # a Place leaf is refused by execute
    var_dims = {acc.tensor.name: acc.tensor.dims for acc in accesses}

    store = RegionStore(machine)
    for name in sorted(var_dims):
        if name not in distributions:
            raise MissingDistribution(f"no distribution for {name}")
        if name == out_name:
            continue
        if name not in inputs:
            raise MissingInput(f"no input tensor for {name}")
        if inputs[name].dims != var_dims[name]:
            raise ExtentMismatch(
                f"{name}: statement wants dims {var_dims[name]}, "
                f"input has {inputs[name].dims}")
        store.place(name, inputs[name], distributions[name])
    store.place(out_name, DenseTensor(var_dims[out_name]), distributions[out_name])

    trace = ExecutionTrace(machine)
    execute(cin, store, trace=trace, label=label)
    return RunResult(store[out_name].tensor, out_name, trace, store)


def verify_result(stmt, inputs: dict, result: RunResult, atol: float = 1e-9) -> None:
    """Compare a run against the single-memory reference evaluation.

    The output must have NaNs exactly where the reference does; everywhere
    else, elements that differ (an infinity against anything else included)
    must lie within `atol`.
    """
    expected = sequential_evaluate(stmt, inputs)
    got = result.output
    if expected.dims != got.dims:
        raise VerifyFail(f"output dims {got.dims} != reference {expected.dims}")
    nan = np.isnan(expected.data)
    if not np.array_equal(nan, np.isnan(got.data)):
        raise VerifyFail("output NaNs differ from the reference's")
    off = ~nan & (expected.data != got.data)
    err = float(np.max(np.abs(expected.data[off] - got.data[off]))) if off.any() else 0.0
    if err > atol:
        raise VerifyFail(f"max deviation {err} above {atol}")
