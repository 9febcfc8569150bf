"""Deterministic execution of distributed statements: tasks, events, memory.

execute() launches one task per processor from the leading distributed loops,
resolved as lanes (each access's rects for every task at once), replays
communication in lockstep timesteps, runs the numeric work in one
interpret call per launch, one wave of tasks at a time, and commits
write-backs. The replay takes each missing
piece from last step's temporary holder (so shifting algorithms come out as
neighbor traffic), then a launch temporary holder, then the piece's home,
which keeps it resident and so is never the receiver.
redistribute() replays a placement statement the same way, so later
receivers of a replicated piece get it from an earlier one. Event order is
machine enumeration order throughout, so traces are identical run to run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .cin import (
    Communicate,
    Distribute,
    Place,
    Reduce,
    interpret,
    lane_boxes,
    lane_env,
    leaf_accesses,
    lower_to_cin,
    reached_vars,
    relation_defs,
)
from .distribution import HyperRect, TensorDistribution, lower_placement, subtract_rects
from .errors import (
    ConfigError,
    ExtentMismatch,
    GridMismatch,
    MissingDistribution,
    MissingInput,
    OOBAccess,
    OverlappingWrites,
    VerifyFail,
    WriteToReplica,
)
from .ir import Access, Add, Const, Mul, TensorIndexStmt, TensorVar, sequential_evaluate
from .machine import Machine
from .tensors import DenseTensor


# interval bounds for loop nests

def _task_rects(access: Access, env: dict, defs: dict) -> tuple:
    """Index box one access touches at each point of launch env `env` (its
    launch loops as lanes), in task order, None where it is empty; and the
    lanes' lo and hi, two int64 arrays of tasks x order."""
    lo, hi = lane_boxes(access.indices, env, defs)
    empty = (lo >= hi).any(axis=1)
    rects = [None if e else HyperRect(tuple(a), tuple(b))
             for e, a, b in zip(empty.tolist(), lo.tolist(), hi.tolist())]
    bad = ~empty & ((lo < 0) | (hi > access.tensor.dims)).any(axis=1)
    if bad.any():
        raise OOBAccess(f"{access.tensor.name} rows {rects[int(np.argmax(bad))]} "
                        f"outside dims {access.tensor.dims}")
    return rects, lo, hi


# events and traces

# events and launches are plain slotted records: a run builds one per
# transfer and per task, and a frozen dataclass costs about five times as
# much to build; callers treat them as values all the same
@dataclass(slots=True)
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


@dataclass(slots=True)
class TaskInfo:
    coord: tuple
    out_rect: object


class ExecutionTrace:
    """The ledger: events, launches and per-processor memory high-water.
    `stats()` is its only summary and derives `num_steps` and the overall
    high-water itself."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.events: list = []
        self.launches: list = []
        self.memory = {p: 0 for p in machine.enumerate()}

    def canonical_rows(self) -> list:
        """The ledger's one row format, one row per event in event order:
        [timestep, src, dst, tensor, rect lo, rect hi, elements, kind, phase],
        coordinates as lists, so each row is plain JSON."""
        return [[e.timestep, list(e.src), list(e.dst), e.tensor, list(e.rect.lo),
                 list(e.rect.hi), e.elements, e.kind, e.phase] for e in self.events]

    def stats(self, config=None) -> dict:
        """The ledger's only summary, from plain passes over `events` as they
        are now. `num_steps` (the most steps of any compute launch, else 0)
        and the overall high-water are derived here, not stored."""
        events = self.events

        def tally(elements):
            return {"messages": len(elements), "elements": sum(elements)}

        num_steps = max((launch["steps"] for launch in self.launches
                         if launch["phase"] == "compute"), default=0)
        # (src, dst) -> (messages, elements), sorted below into enumeration
        # order; the same per compute step, with rows for steps < num_steps
        edges, steps = {}, dict.fromkeys(range(num_steps), (0, 0))
        for e in events:
            key = e.src, e.dst
            m, el = edges.get(key, (0, 0))
            edges[key] = (m + 1, el + e.elements)
            if e.phase == "compute":
                m, el = steps.get(e.timestep, (0, 0))
                steps[e.timestep] = (m + 1, el + e.elements)
        copies = [e.elements for e in events if e.kind == "copy"]
        reduces = [e.elements for e in events if e.kind == "reduce"]
        out = {
            "schema": 1,
            "config": dict(config or {}),
            "machine": str(self.machine),
            "num_steps": num_steps,
            "totals": {"messages": len(events), "elements": sum(e.elements for e in events),
                       "copy_messages": len(copies), "copy_elements": sum(copies),
                       "reduce_messages": len(reduces), "reduce_elements": sum(reduces)},
            "phases": {
                "placement": tally([e.elements for e in events if e.phase == "placement"]),
                "compute": tally([e.elements for e in events if e.phase == "compute"]),
            },
            "per_edge": [{"src": src, "dst": dst, "messages": m, "elements": el}
                         for (src, dst), (m, el) in sorted(edges.items())],
            "per_step": [{"step": s, "messages": m, "elements": el}
                         for s, (m, el) in steps.items() if s < num_steps],
            "memory_high_water": {
                "overall": max(self.memory.values(), default=0),
                "per_processor": [{"processor": p, "elements": self.memory[p]}
                                  for p in self.machine.enumerate()],
            },
            "launches": [dict(launch) for launch in self.launches],
        }
        if self.machine.num_levels > 1:
            end0 = len(self.machine.levels[0])
            intra = [e.elements for e in events if e.src[:end0] == e.dst[:end0]]
            inter = [e.elements for e in events if e.src[:end0] != e.dst[:end0]]
            out["levels"] = {"intra_node": tally(intra), "inter_node": tally(inter)}
        return out


# regions

class Region:
    """One tensor's canonical values plus who holds which piece."""

    def __init__(self, tensor: DenseTensor, dist: TensorDistribution):
        self.tensor = tensor
        self.dist = dist
        self.residency = dist.residency()


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
        self.regions[name] = Region(tensor.copy(), dist)
        return self.regions[name]

    def persistent_volume(self, coord) -> int:
        return sum(r.volume for reg in self.regions.values() for r in reg.residency[coord])

    def __contains__(self, name) -> bool:
        return name in self.regions

    def __getitem__(self, name) -> Region:
        if name not in self.regions:
            raise MissingDistribution(f"tensor {name} has no placed region")
        return self.regions[name]


def _check_trace(store: RegionStore, trace: ExecutionTrace) -> None:
    if trace.machine != store.machine:
        raise ConfigError(f"a trace of machine {trace.machine} cannot record a run "
                          f"on {store.machine}")


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
    _check_trace(store, trace)
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
    stmt: object            # the lowered LoopNest
    launch_vars: tuple      # its leading distributed Foralls, outermost first
    defs: dict
    env: dict               # every loop at its range, the launch loops as lanes
    step_var: object        # Forall | None
    num_steps: int
    fetch_plan: list        # (access, scope): the rhs accesses as written, by tensor name
    out_name: str           # None for a Place leaf, as are the two below
    out_kind: str           # "copy" | "reduce"
    out_access: Access
    tasks: list             # TaskInfo, machine enumeration order


def lower_to_tasks(stmt, store: RegionStore) -> LaunchPlan:
    machine = store.machine
    rels, leaf = stmt.relations, stmt.leaf
    defs = relation_defs(rels)
    dist_names = {r.var for r in rels if isinstance(r, Distribute)}

    group = tuple(itertools.takewhile(lambda f: f.var in dist_names, stmt.loops))
    task_loops = stmt.loops[len(group):]
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

    fetch_plan = []
    for n in names:
        if n == out_name:
            continue
        named = [c for c in comms if n in c.tensors]
        by_launch = bool(named) and named[0].var in dist_names
        scope = "launch" if by_launch or step_var is None else "step"
        fetch_plan += [(a, scope) for a in accesses if a.tensor.name == n]

    env = {f.var: (f.lo, f.hi) for f in task_loops}
    env.update(lane_env([(f.var, f.lo, f.hi) for f in group]))
    coords = itertools.product(*(range(f.lo, f.hi) for f in group))
    out_rects = _task_rects(out_access, env, defs)[0] if out_access else itertools.repeat(None)
    tasks = [TaskInfo(coord, rect) for coord, rect in zip(coords, out_rects)]

    pair = _overlap(tasks) if out_kind == "copy" else None
    if pair is not None:
        a, b = pair
        raise OverlappingWrites(f"tasks {a.coord} and {b.coord} both write "
                                f"{a.out_rect.intersect(b.out_rect)} of {out_name}")

    return LaunchPlan(stmt, group, defs, env, step_var, num_steps,
                      fetch_plan, out_name, out_kind, out_access, tasks)


# execution

class _Temps:
    """One scope's temporaries: (tensor, color) -> [(holder, rect)] in task
    order, which is machine enumeration order; (holder, tensor) -> [rect];
    holder -> volume over all tensors. Each temporary is one color's part of
    a piece and colors are disjoint, so only a part's own color can hold it."""

    def __init__(self):
        self.by_color, self.by_holder, self.volume = {}, {}, {}

    def add(self, p, tensor, color, rect, volume) -> None:
        self.by_color.setdefault((tensor, color), []).append((p, rect))
        self.by_holder.setdefault((p, tensor), []).append(rect)
        self.volume[p] = self.volume.get(p, 0) + volume


def _missing(region, tensor, p, need, one, among, temps) -> list:
    """The parts of `need` that p holds neither as a resident piece nor as
    one of the temporaries `temps` (launch, previous step, current step), as
    (color, part, homes) in piece table order.

    `one` is the table index of the one piece `need` meets, else None. Pieces
    tile the tensor and colors are disjoint, so such a need lies inside that
    piece: when p holds the piece nothing is missing, and when p holds no
    temporary of the tensor every rect it holds is another color's piece,
    disjoint from the need, so the need itself is the one part. Otherwise the
    need is cut by everything p holds and the rest split along the pieces,
    `among` (the need's row of the `meets` array, or None for every color)
    naming the colors to scan.
    """
    if one is not None:
        color, bounds, homes = region.dist.pieces[one]
        if bounds in region.residency[p]:
            return []
    held = [r for t in temps for r in t.by_holder.get((p, tensor), ())]
    if one is not None and not held:
        return [(color, need, homes)]
    if among is not None:
        among = among.tolist()
    return [part for piece in subtract_rects([need], region.residency[p] + held)
            for part in region.dist.parts(piece, among)]


def _pick_source(part, p, homes, prev_holders, launch_holders):
    """The sender of `part` to p: a holder of it among last step's
    temporaries, then the launch's, else the piece's first home, which keeps
    the piece resident and so is never p."""
    for holders in (prev_holders, launch_holders):
        for q, r in holders:
            if q != p and r.contains(part):
                return q
    return homes[0]


def _overlap(tasks):
    """The first two tasks whose output rects share a point, the earlier
    task first, or None: a sweep along the first axis with plain
    comparisons. Tasks without a rect are skipped; 0-d rects always meet."""
    live = sorted((t.out_rect.lo, k) for k, t in enumerate(tasks) if t.out_rect is not None)
    for n, (_, k) in enumerate(live):
        a = tasks[k].out_rect
        for _, m in live[n + 1:]:
            b = tasks[m].out_rect
            if a.lo and b.lo[0] >= a.hi[0]:
                break
            if all(al < bh and bl < ah
                   for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi)):
                return tasks[min(k, m)], tasks[max(k, m)]
    return None


def _waves(plan: LaunchPlan, dims: tuple) -> list:
    """The launch's tasks as waves (pins, at) for `interpret`: pins maps the
    launch loops a wave pins to their values, and at lists the flat
    positions, in a C-order tensor of `dims`, of the output rects of the
    wave's tasks, which skip tasks without one.

    A wave pins the launch loops the output access does not reach through
    the relations and keeps the others as ordinary loops, so an output rect
    depends only on those others and every wave writes the same rects: one
    `at` serves them all. When one wave's rects are pairwise disjoint, so
    are every wave's, and the tasks writing any one element differ only in
    pinned loops: waves in order of their pins (first seen in task order)
    meet each element in task order. Otherwise every launch loop is pinned,
    one task per wave.
    """
    reached = reached_vars(plan.out_access.indices, plan.defs)
    by_pins: dict = {}
    for task in plan.tasks:
        pins = {f.var: c for f, c in zip(plan.launch_vars, task.coord) if f.var not in reached}
        by_pins.setdefault(tuple(pins.values()), (pins, []))[1].append(task)
    grid = np.arange(math.prod(dims)).reshape(dims)

    def flat(tasks):
        return np.concatenate([grid[t.out_rect.slices()].reshape(-1) for t in tasks
                               if t.out_rect is not None] or [np.empty(0, np.intp)])

    first = next(iter(by_pins.values()))[1]
    if _overlap(first) is None:
        at = flat(first)
        return [(pins, at) for pins, _ in by_pins.values()]
    return [({f.var: c for f, c in zip(plan.launch_vars, t.coord)}, flat([t]))
            for t in plan.tasks]


def _write_back(plan: LaunchPlan, dist: TensorDistribution, events: list) -> None:
    """Record, task by task, a write-back of each part of each task's output
    rect to its piece's home, its first holder, unless that is the task: a
    copy has no other (lower_to_tasks refuses a replicated one), and a
    reduction's partials meet there. A reduction's fan-in writes one rect,
    so one memo per launch looks each distinct rect's homes up once."""
    memo: dict = {}
    for task in plan.tasks:
        rect = task.out_rect
        if rect is None:
            continue
        if rect not in memo:
            memo[rect] = list(dist.parts(rect))
        for _, part, holders in memo[rect]:
            if holders[0] != task.coord:
                events.append(CommEvent(plan.num_steps - 1, task.coord, holders[0],
                                        plan.out_name, part, part.volume, plan.out_kind,
                                        "compute"))


def _replay(plan: LaunchPlan, store: RegionStore, trace: ExecutionTrace) -> None:
    """Ledger every transfer of one launch and bump memory, step by step,
    then each task's write-back in task order.

    Each task's needs, the non-empty rects of its fetch-plan entries in plan
    order, are cut down by what it already holds (so a rect the task fetched
    before sends nothing), split along the owning distribution's pieces
    (`_missing`), and sourced by _pick_source from the holders of each
    part's color. A launch-scope entry is resolved at step 0 into every
    task's lanes, and one tasks x colors mask (`meets`) of those lanes
    against the piece bounds names the colors each task's need meets: the
    pieces the need is cut into meet no others, so `parts` scans only
    those, and a need that meets one piece is answered from that piece
    alone, with neither a cut nor a lookup, unless the task holds a
    temporary of the tensor. Step-scope pieces are looked up over every
    color. Memory at each step counts
    resident pieces, the output buffer and every live temporary. No
    transfer depends on values, so the ledger is whole before any numeric
    work runs.
    """
    order = list(store.machine.enumerate())
    events = trace.events
    phase = "placement" if isinstance(plan.stmt.leaf, Place) else "compute"
    launch_temps = _Temps()
    prev_temps = _Temps()
    persist = {p: store.persistent_volume(p) for p in order}
    buffers = {t.coord: (t.out_rect.volume if t.out_rect is not None else 0)
               for t in plan.tasks}

    env = dict(plan.env)  # the step loop pinned to each step in turn
    for s in range(plan.num_steps):
        cur_temps = _Temps()
        temps = (launch_temps, prev_temps, cur_temps)
        if plan.step_var is not None:
            env[plan.step_var.var] = (s, s + 1)
        # each entry resolved once for all tasks, with the temporaries it
        # fills; launch-scope needs span every step and carry their meet
        # mask and, per task, the one piece met (else None); step scope pins
        # one step
        needs = []
        for a, scope in plan.fetch_plan:
            region = store[a.tensor.name]
            if scope == "step":
                rects = _task_rects(a, env, plan.defs)[0]
                unmasked = [None] * len(rects)
                needs.append((region, a.tensor.name, rects, unmasked, unmasked, cur_temps))
            elif s == 0:
                rects, lo, hi = _task_rects(a, plan.env, plan.defs)
                mask = region.dist.meets(lo, hi)
                ones = [first if count == 1 else None for count, first in
                        zip(mask.sum(axis=1).tolist(), mask.argmax(axis=1).tolist())]
                needs.append((region, a.tensor.name, rects, ones, mask, launch_temps))
        # each part a task lacks (`_missing`), sent by `_pick_source` from
        # the holders of its color; its volume is computed once for its
        # event, its temporary and the memory count
        for k, task in enumerate(plan.tasks):
            p = task.coord
            for region, tensor, rects, ones, mask, sink in needs:
                if rects[k] is None:
                    continue
                for color, part, homes in _missing(region, tensor, p, rects[k], ones[k],
                                                   mask[k], temps):
                    key = tensor, color
                    src = _pick_source(part, p, homes,
                                       prev_temps.by_color.get(key, []),
                                       launch_temps.by_color.get(key, []))
                    volume = part.volume
                    events.append(CommEvent(s, src, p, tensor, part, volume, "copy", phase))
                    sink.add(p, tensor, color, part, volume)
        for p in order:
            vol = persist[p] + buffers.get(p, 0)
            for t in temps:
                vol += t.volume.get(p, 0)
            trace.memory[p] = max(trace.memory[p], vol)
        prev_temps = cur_temps
    if plan.out_name is not None:
        _write_back(plan, store[plan.out_name].dist, events)


def execute(stmt, store: RegionStore, *, trace: ExecutionTrace = None,
            label: str = None):
    """Run one scheduled statement: communication ledger plus numeric commit.

    Phase one replays all transfers (`_replay`), the write-backs to homes
    that are not the executor included. Phase two runs the tasks' numeric
    work as one interpret call per launch: the walker compiles the leaf and
    resolves its names once, then runs the waves (`_waves`) in turn, folding
    each wave's output rects into the canonical output through one flat
    index before the next wave runs. So one full-size output buffer is
    alive at a time and every element gets the float64 adds of the per-task
    calls in task order. A placement statement is refused: it runs through
    `redistribute`.
    """
    if trace is None:
        trace = ExecutionTrace(store.machine)
    _check_trace(store, trace)
    plan = lower_to_tasks(stmt, store)
    if isinstance(plan.stmt.leaf, Place):
        raise ConfigError("placement statements run through place()/redistribute()")
    _replay(plan, store, trace)
    out_region = store[plan.out_name]

    read_store = {a.tensor.name: store[a.tensor.name].tensor for a, _ in plan.fetch_plan}
    if plan.out_name in (a.tensor.name for a in leaf_accesses(plan.stmt.leaf)[1:]):
        # the commits below change the output; the rhs reads its old values
        read_store[plan.out_name] = out_region.tensor.copy()
    interpret(plan.stmt, read_store, waves=_waves(plan, out_region.tensor.dims),
              into=out_region.tensor)

    if plan.out_kind == "reduce" and out_region.dist.replicated:
        # replicas beyond the home are stale after a reduction; drop them
        for _, bounds, procs in out_region.dist.pieces:
            for q in procs[1:]:
                out_region.residency[q] = [
                    r for r in out_region.residency[q] if r != bounds]

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
    trace: ExecutionTrace
    store: RegionStore


def run_statement(stmt, machine: Machine, distributions: dict, inputs: dict,
                  schedule=None, *, label: str = None) -> RunResult:
    """Place inputs, apply the schedule, execute, and return the output.

    stmt may be a tensor index statement (lowered first) or an already
    scheduled loop statement. distributions and inputs map tensor names;
    the output region starts as zeros under its distribution, so a value
    for it in inputs is refused.
    """
    if isinstance(stmt, TensorIndexStmt):
        cin = lower_to_cin(stmt)
    else:
        cin = stmt
    if schedule is not None:
        cin = schedule.apply(cin)

    accesses = leaf_accesses(cin.leaf)
    out_name = accesses[0].tensor.name  # a Place leaf is refused by execute
    if out_name in inputs and not isinstance(cin.leaf, Place):
        raise ConfigError(f"inputs hold a value for the output {out_name}, "
                          f"which a run starts at zeros")
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
    return RunResult(store[out_name].tensor, trace, store)


# unit roundoff of float64, the u of the a-priori bound verify_result uses
UNIT_ROUNDOFF = 2.0 ** -53


def _magnitudes(expr):
    """`expr` with every constant replaced by its absolute value."""
    if isinstance(expr, Const):
        return Const(abs(expr.value))
    if isinstance(expr, (Add, Mul)):
        return type(expr)(_magnitudes(expr.lhs), _magnitudes(expr.rhs))
    return expr


def _operations(expr) -> int:
    """The `+` and `*` nodes of `expr`."""
    if isinstance(expr, (Add, Mul)):
        return 1 + _operations(expr.lhs) + _operations(expr.rhs)
    return 0


def verify_result(stmt, inputs: dict, result: RunResult) -> None:
    """Compare a run against the single-memory reference evaluation.

    The output must have NaNs exactly where the reference does; everywhere
    else, an element that differs must be finite on both sides and lie
    within the a-priori bound for a sum of products evaluated in any order
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.1):
    each side is within gamma_k * sum|terms| of the exact value, gamma_k =
    k*u / (1 - k*u), so the two differ by at most twice that. sum|terms| is
    the reference evaluated on the absolute values of the inputs and
    constants, and k counts the reduction points per element plus the
    rhs's `+` and `*` operations. The bound is computed only when some
    element differs. An output missing from `inputs` starts at the zeros
    the run starts from.
    """
    out = stmt.lhs.tensor
    inputs = {out.name: DenseTensor(out.dims), **inputs}
    expected = sequential_evaluate(stmt, inputs)
    got = result.output
    if expected.dims != got.dims:
        raise VerifyFail(f"output dims {got.dims} != reference {expected.dims}")
    nan = np.isnan(expected.data)
    if not np.array_equal(nan, np.isnan(got.data)):
        raise VerifyFail("output NaNs differ from the reference's")
    off = ~nan & (expected.data != got.data)
    if not off.any():
        return
    magnitude = sequential_evaluate(
        replace(stmt, rhs=_magnitudes(stmt.rhs)),
        {name: DenseTensor(t.dims, np.abs(t.data)) for name, t in inputs.items()})
    k = math.prod(stmt.extents[v] for v in stmt.reduction_vars) + _operations(stmt.rhs)
    gamma = k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)
    err = np.abs(expected.data[off] - got.data[off])
    bound = 2 * gamma * magnitude.data[off]
    bad = ~(np.isfinite(err) & (err <= bound))
    if bad.any():
        worst = int(np.argmax(np.where(bad, err - bound, -np.inf)))
        raise VerifyFail(f"max deviation {float(err[worst])} above its bound "
                         f"{float(bound[worst])}")
