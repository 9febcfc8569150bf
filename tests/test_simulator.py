import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tendist import (
    CommEvent,
    DenseTensor,
    ExecutionTrace,
    HyperRect,
    RegionStore,
    TensorDistribution,
    bundle_from_config,
    execute,
    grid,
    interpret,
    lower_placement,
    lower_to_cin,
    lower_to_tasks,
    parse_distribution,
    parse_machine,
    parse_schedule,
    parse_statement,
    random_inputs,
    redistribute,
    run_statement,
    sequential_evaluate,
    var_interval,
    verify_result,
)
import tendist.cin as cin_module
import tendist.distribution as distribution
import tendist.simulator as simulator
from tendist.algorithms import REGISTRY
from tendist.cin import (
    Assign,
    Distribute,
    Divide,
    Forall,
    LoopNest,
    Rotate,
    Split,
    lane_env,
)
from tendist.errors import (
    ConfigError,
    ExtentMismatch,
    GridMismatch,
    MissingDistribution,
    MissingInput,
    NonAffineAccess,
    OOBAccess,
    OverlappingWrites,
    UnboundVariable,
    VerifyFail,
    WriteToReplica,
)
from tendist.ir import TensorVar


# interval and rect arithmetic

def test_var_interval_direct_and_split():
    defs = {"k": Split("k", "ko", "ki", 2, 5)}
    assert var_interval("ko", {"ko": (0, 3)}, defs) == (0, 3)
    assert var_interval("k", {"ko": (0, 3), "ki": (0, 2)}, defs) == (0, 5)
    assert var_interval("k", {"ko": (1, 2), "ki": (0, 2)}, defs) == (2, 4)
    # ragged tail: last chunk is clipped at the extent
    assert var_interval("k", {"ko": (2, 3), "ki": (0, 2)}, defs) == (4, 5)
    assert var_interval("k", {"ko": (2, 2), "ki": (0, 2)}, defs) == (0, 0)


def test_var_interval_divide_uses_block():
    defs = {"i": Divide("i", "io", "ii", 2, 6)}
    assert var_interval("i", {"io": (1, 2), "ii": (0, 3)}, defs) == (3, 6)


def test_var_interval_rotate():
    defs = {"k": Rotate("k", ("io",), "ks", 4)}
    assert var_interval("k", {"ks": (1, 2), "io": (1, 2)}, defs) == (2, 3)
    assert var_interval("k", {"ks": (3, 4), "io": (3, 4)}, defs) == (2, 3)  # wraps
    # a spanning result interval degrades to the whole extent
    assert var_interval("k", {"ks": (0, 4), "io": (1, 2)}, defs) == (0, 4)
    assert var_interval("k", {"ks": (2, 2), "io": (0, 1)}, defs) == (0, 0)


def test_var_interval_unbound():
    with pytest.raises(UnboundVariable):
        var_interval("q", {}, {})


def test_task_rects():
    A = TensorVar("A", (5, 4))
    acc = A("i", "j")

    def rects(*args):
        return simulator._task_rects(*args)[0]

    assert rects(acc, {"i": (0, 2), "j": (1, 3)}, {}) == [HyperRect((0, 1), (2, 3))]
    assert rects(acc, {"i": (0, 2), "j": (2, 2)}, {}) == [None]
    # the lanes the rects come from, as tasks x order
    _, lo, hi = simulator._task_rects(acc, lane_env([("i", 0, 2), ("j", 2, 4)]), {})
    assert lo.tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]] and hi.tolist() == [
        [1, 3], [1, 4], [2, 3], [2, 4]]
    with pytest.raises(OOBAccess, match=r"A rows \[4,6\)x\[0,1\) outside dims \(5, 4\)"):
        rects(acc, {"i": (4, 6), "j": (0, 1)}, {})
    # lanes: one rect per point of the lane grid in C order, None where a
    # ragged divide leaves a lane empty
    env = {"ii": (0, 2), "j": (1, 3), **lane_env([("io", 0, 3)])}
    assert rects(acc, env, {"i": Divide("i", "io", "ii", 3, 4)}) == [
        HyperRect((0, 1), (2, 3)), HyperRect((2, 1), (4, 3)), None]
    assert rects(acc, lane_env([("i", 1, 3), ("j", 2, 4)]), {}) == [
        HyperRect((i, j), (i + 1, j + 1)) for i in (1, 2) for j in (2, 3)]
    # the first lane out of bounds in C order is named
    with pytest.raises(OOBAccess, match=r"A rows \[1,2\)x\[4,5\)"):
        rects(acc, lane_env([("i", 1, 3), ("j", 2, 5)]), {})
    assert rects(TensorVar("a", ())(), lane_env([("i", 0, 3)]), {}) == [HyperRect((), ())] * 3


def test_constant_index_is_refused_before_lower_to_tasks():
    # the access refuses it when it is built, so lowering never meets an
    # index without a name
    A, B = TensorVar("A", (4,)), TensorVar("B", (4,))
    machine = grid(2)
    store = RegionStore(machine)
    for name in "AB":
        store.place(name, DenseTensor((4,)), _block((4,), machine))
    with pytest.raises(NonAffineAccess, match="access index 0 is not a plain variable"):
        lower_to_tasks(LoopNest((Forall("i", 0, 2),), Assign(A("i"), B(0)),
                                (Distribute("i"),)), store)


# a small broadcast-style run with every number pinned down

def _block(dims, machine):
    names = ("x", "y", "z")[: len(dims)]
    return TensorDistribution(dims, machine, [(names, names)])


def _gemm_setup(n=4):
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)",
                           {"i": n, "j": n, "k": n})
    machine = grid(2, 2)
    dists = {name: _block((n, n), machine) for name in ("A", "B", "C")}
    sched = parse_schedule("divide i io ii 2; divide j jo ji 2; reorder io jo ii ji; "
                           "distribute io; distribute jo; split k ko ki 2; reorder ko ii ji; "
                           "communicate A jo; communicate B,C ko")
    rng = np.random.default_rng(7)
    inputs = {name: DenseTensor((n, n), rng.integers(-3, 4, (n, n)).astype(float))
              for name in ("A", "B")}
    return stmt, machine, dists, inputs, sched


def test_broadcast_run_matches_reference():
    stmt, machine, dists, inputs, sched = _gemm_setup()
    res = run_statement(stmt, machine, dists, inputs, sched)
    verify_result(stmt, inputs, res)
    want = sequential_evaluate(stmt, inputs)
    assert np.array_equal(res.output.data, want.data)


def test_broadcast_run_traffic_anchor():
    stmt, machine, dists, inputs, sched = _gemm_setup()
    trace = run_statement(stmt, machine, dists, inputs, sched).trace
    stats = trace.stats()
    assert stats["totals"]["messages"] == 8
    assert stats["totals"]["elements"] == 32
    assert stats["num_steps"] == 2
    assert stats["memory_high_water"]["overall"] == 24
    # the stationary tensor is fetched once at launch, the streamed one per step
    assert [e.timestep for e in trace.events if e.tensor == "A"] == [0] * 4
    assert sorted(e.timestep for e in trace.events if e.tensor == "B") == [0, 0, 1, 1]
    assert [e for e in trace.events if e.tensor == "C"] == []
    assert CommEvent(0, (0, 1), (0, 0), "A", HyperRect((0, 2), (2, 4)),
                     4, "copy", "compute") in trace.events


def test_broadcast_run_event_hygiene():
    stmt, machine, dists, inputs, sched = _gemm_setup()
    result = run_statement(stmt, machine, dists, inputs, sched)
    trace = result.trace
    for e in trace.events:
        assert e.src != e.dst
        assert e.elements == e.rect.volume > 0
        assert e.kind == "copy" and e.phase == "compute"
        assert e.src in trace.memory and e.dst in trace.memory
    # A is fetched once per task at launch scope, B once per k step
    plan = lower_to_tasks(sched.apply(lower_to_cin(stmt)), result.store)
    assert {acc.tensor.name: scope for acc, scope in plan.fetch_plan} == {
        "A": "launch", "B": "step"}


def test_stats_schema_and_consistency():
    stmt, machine, dists, inputs, sched = _gemm_setup()
    trace = run_statement(stmt, machine, dists, inputs, sched).trace
    stats = trace.stats({"label": "unit"})
    assert set(stats) == {"schema", "config", "machine", "num_steps", "totals",
                          "phases", "per_edge", "per_step",
                          "memory_high_water", "launches"}
    assert stats["machine"] == "2x2"
    assert stats["totals"] == {"messages": 8, "elements": 32,
                               "copy_messages": 8, "copy_elements": 32,
                               "reduce_messages": 0, "reduce_elements": 0}
    assert stats["phases"]["placement"] == {"messages": 0, "elements": 0}
    assert stats["phases"]["compute"] == {"messages": 8, "elements": 32}
    assert stats["per_step"] == [{"step": 0, "messages": 6, "elements": 24},
                                 {"step": 1, "messages": 2, "elements": 8}]
    assert sum(r["elements"] for r in stats["per_edge"]) == 32
    assert sum(r["messages"] for r in stats["per_edge"]) == 8
    assert stats["memory_high_water"]["overall"] == 24
    assert len(stats["memory_high_water"]["per_processor"]) == 4
    assert stats["launches"] == [{"phase": "compute", "label": "C",
                                  "tasks": 4, "steps": 2}]
    assert "levels" not in stats  # single-level machine


def test_events_are_values_that_replace_and_compare():
    # what the benchmark's tampered-event self-test needs of the event type
    stmt, machine, dists, inputs, sched = _gemm_setup()
    trace = run_statement(stmt, machine, dists, inputs, sched).trace
    again = run_statement(stmt, machine, dists, inputs, sched).trace
    assert trace.events == again.events
    rows, per_edge = trace.canonical_rows(), trace.stats()["per_edge"]
    first = trace.events[0]
    other = next(e.src for e in trace.events if e.src not in (first.src, first.dst))
    trace.events[0] = replace(first, src=other)
    assert trace.events[0].src == other and first.src != other
    assert trace.events[0].rect == first.rect and trace.events[1:] == again.events[1:]
    assert trace.events != again.events
    assert trace.canonical_rows() != rows
    assert trace.stats()["per_edge"] != per_edge


def same_step_relays(rows) -> int:
    """Rows whose sender received a containing rect of the same tensor
    earlier in the same timestep, counted from the rows alone."""
    received, relays = {}, 0
    for step, src, dst, tensor, lo, hi, *_ in rows:
        held = received.get((step, tuple(src), tensor), ())
        relays += any(all(a <= c and d <= b for a, b, c, d in zip(hlo, hhi, lo, hi))
                      for hlo, hhi in held)
        received.setdefault((step, tuple(dst), tensor), []).append((lo, hi))
    return relays


def test_same_step_relays_needs_a_containing_receipt_of_that_step_and_tensor():
    home = [0, [0], [1], "A", [0], [4], 4, "copy", "compute"]
    relay = [0, [1], [2], "A", [1], [3], 2, "copy", "compute"]
    assert same_step_relays([home, relay]) == 1
    assert same_step_relays([relay, home]) == 0
    assert same_step_relays([home, [1] + relay[1:]]) == 0
    assert same_step_relays([home, relay[:3] + ["B"] + relay[4:]]) == 0
    assert same_step_relays([home, relay[:4] + [[3], [5]] + relay[6:]]) == 0


@pytest.mark.parametrize("name, machine, n, relays, events", [
    ("summa", (8, 8), 16, 384, 1344),
    ("johnson", (4, 4, 4), 16, 64, 144),
    ("pumma", (4, 4), 16, 32, 96),
    ("cosma-like", (4, 4, 2), 16, 16, 64),
    ("cannon", (8, 8), 32, 0, 896),
    ("solomonik", (4, 4, 2), 16, 0, 112),
])
def test_same_step_relays_stay_pinned(name, machine, n, relays, events):
    # the relay rule that a ledger checker must decide is pinned at what the
    # replay does today
    rows = bundle_from_config(name, grid(*machine), (n,) * 3).run()[0].trace.canonical_rows()
    assert (same_step_relays(rows), len(rows)) == (relays, events)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_verify_bound_scales_with_the_data(name):
    # correct runs on standard-normal inputs verify at every scale, summed
    # in any order; a relative 1e-6 change to the output element of largest
    # magnitude fails at every scale
    bundle = bundle_from_config(name)
    stmt = bundle.statement
    out = stmt.lhs.tensor.name
    rng = np.random.default_rng(7)
    for scale in (1e-12, 1.0, 1e4, 1e8):
        inputs = {t: DenseTensor(v.dims, rng.standard_normal(v.dims) * scale)
                  for t, v in stmt.tensors().items() if t != out}
        result, _ = bundle.run(inputs=inputs)
        verify_result(stmt, inputs, result)
        data = result.output.data
        at = np.unravel_index(np.argmax(np.abs(data)), data.shape)
        data[at] *= 1 + 1e-6
        with pytest.raises(VerifyFail):
            verify_result(stmt, inputs, result)


def test_stats_hands_out_copies_of_the_launches():
    stmt, machine, dists, inputs, sched = _gemm_setup()
    trace = run_statement(stmt, machine, dists, inputs, sched).trace
    first = trace.stats()
    trace.stats()["launches"][0]["label"] = "changed"
    assert trace.stats() == first
    assert trace.launches[0]["label"] == "C"


def test_tasks_commit_one_at_a_time():
    # one full-size partial output alive, not one per task (64 x 32 KB);
    # a short reduction keeps the traced run fast
    bundle = bundle_from_config("johnson", grid(4, 4, 4), (64, 64, 4))
    inputs = random_inputs(bundle.statement, 0)
    tracemalloc.start()
    try:
        bundle.run(inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def test_rhs_reading_its_output_sees_pre_statement_values():
    # task 0 commits y[0:2] before task 1 reads y[0:2]
    stmt = parse_statement("y(i) = x(j) * y(j)", {"i": 4, "j": 4})
    machine = grid(2)
    vec = TensorDistribution((4,), machine, [(("x",), ("x",))])
    store = RegionStore(machine)
    store.place("x", DenseTensor((4,), [1.0, -2.0, 3.0, 0.5]), vec)
    store.place("y", DenseTensor((4,), [4.0, 1.0, 2.0, 2.0]), vec)
    cin = parse_schedule("divide i io ii 2; distribute io").apply(lower_to_cin(stmt))
    execute(cin, store)
    # each y(i) gains x . y = 9 over the old y, not over task 0's commit
    assert store["y"].tensor.data.tolist() == [13.0, 10.0, 11.0, 11.0]


# numeric waves

def _wide_inputs(stmt, seed):
    """Normal draws scaled by 10^[-8, 8), so a change of add order shows."""
    rng = np.random.default_rng(seed)
    out_name = stmt.lhs.tensor.name
    return {name: DenseTensor(var.dims, rng.standard_normal(var.dims)
                              * 10.0 ** rng.integers(-8, 8, size=var.dims))
            for name, var in sorted(stmt.tensors().items()) if name != out_name}


def _per_task_reference(cin, machine, dists, inputs):
    """One interpret call per task with every launch loop pinned, each
    task's output rect folded in task order."""
    store = RegionStore(machine)
    for name, dist in dists.items():
        store.place(name, inputs.get(name, DenseTensor(dist.tensor_dims)), dist)
    plan = lower_to_tasks(cin, store)
    ref = np.zeros(store[plan.out_name].dist.tensor_dims)
    for task in plan.tasks:
        if task.out_rect is None:
            continue
        pinned = tuple(Forall(f.var, c, c + 1) for f, c in zip(plan.launch_vars, task.coord))
        stmt = replace(plan.stmt, loops=pinned + plan.stmt.loops[len(pinned):])
        partial = interpret(stmt, inputs)[plan.out_name].data
        sl = task.out_rect.slices()
        if plan.out_kind == "reduce":
            ref[sl] += partial[sl]
        else:
            ref[sl] = partial[sl]
    return ref


def _recording_waves(monkeypatch):
    """The number of waves of each interpret call the simulator makes."""
    waves = []

    def recorded(*args, **kwargs):
        waves.append(len(kwargs["waves"]))
        return interpret(*args, **kwargs)

    monkeypatch.setattr(simulator, "interpret", recorded)
    return waves


# each bundle at its defaults, plus johnson with three waves (a sum of two
# partials commutes, so only a third one shows the wave order) and johnson
# 4x4x4 at n=3, whose tasks with io or jo at 3 have no output rect; a
# machine entry other than None is the rest of bundle_from_config's arguments
@pytest.mark.parametrize("name, machine", [(n, None) for n in REGISTRY]
                         + [("johnson", (grid(3, 3, 3),)), ("johnson", (grid(4, 4, 4), (3, 3, 3)))])
def test_waves_match_per_task_calls_bit_for_bit(name, machine):
    bundle = bundle_from_config(name, *(machine or ()))
    cin = bundle.schedule.apply(lower_to_cin(bundle.statement))
    for seed in range(2):
        inputs = _wide_inputs(bundle.statement, seed)
        ref = _per_task_reference(cin, bundle.machine, bundle.distributions, inputs)
        result = run_statement(bundle.statement, bundle.machine, bundle.distributions,
                               inputs, bundle.schedule)
        assert result.output.data.tobytes() == ref.tobytes()


def test_one_interpret_call_per_launch(monkeypatch):
    waves = _recording_waves(monkeypatch)
    bundle_from_config("summa", grid(4, 4)).run()
    assert waves == [1]  # the output reaches both launch loops
    waves.clear()
    bundle_from_config("johnson", grid(2, 2, 2)).run()
    assert waves == [2]  # C(i, j) does not reach ko: one wave per ko


def test_overlapping_wave_falls_back_to_one_wave_per_task(monkeypatch):
    # C(i) reaches ko through the rotate, but both tasks write all of C
    stmt = parse_statement("C(i) = A(i, k)", {"i": 4, "k": 4})
    machine = grid(2)
    dists = {"C": TensorDistribution((4,), machine, parse_distribution("C: i -> *")[1]),
             "A": TensorDistribution((4, 4), machine, parse_distribution("A: ik -> k")[1])}
    sched = parse_schedule("divide k ko ki 2; reorder ko i ki; distribute ko; rotate i ko is")
    inputs = _wide_inputs(stmt, 0)
    waves = _recording_waves(monkeypatch)
    result = run_statement(stmt, machine, dists, inputs, sched)
    assert waves == [2]
    ref = _per_task_reference(sched.apply(lower_to_cin(stmt)), machine, dists, inputs)
    assert result.output.data.tobytes() == ref.tobytes()


def test_numeric_phase_resolves_each_name_a_fixed_number_of_times(monkeypatch):
    # the walker resolves a launch's names once, whatever its waves (johnson
    # 2x2x2 makes 2, 4x4x4 makes 4) and passes (1 per wave at 2x2x2 n=20
    # and 4x4x4 n=40, 64 at 4x4x4 n=160); resolving them per pass made 18,
    # 36 and 2,304 var_interval calls
    counts, numeric = [], [False]
    resolve, run_interpret = cin_module.var_interval, simulator.interpret

    def counted(name, env, defs):
        counts[-1] += numeric[0]
        return resolve(name, env, defs)

    def interpreting(*args, **kwargs):
        numeric[0] = True
        try:
            return run_interpret(*args, **kwargs)
        finally:
            numeric[0] = False

    monkeypatch.setattr(cin_module, "var_interval", counted)
    monkeypatch.setattr(simulator, "interpret", interpreting)
    for machine, n in (((2, 2, 2), 20), ((4, 4, 4), 40), ((4, 4, 4), 160)):
        counts.append(0)
        bundle_from_config("johnson", grid(*machine), (n, n, n), 1).run()
    assert counts[0] > 0 and len(set(counts)) == 1, counts


def test_source_search_is_per_color(monkeypatch):
    # summa on 8x8: a row or column broadcast leaves one piece with up to 7
    # earlier receivers, so a source search that walks every processor's
    # temporaries makes about 100 containment tests per event
    calls = [0]
    contains = HyperRect.contains

    def counted(self, other):
        calls[0] += 1
        return contains(self, other)

    monkeypatch.setattr(HyperRect, "contains", counted)
    result, _ = bundle_from_config("summa", grid(8, 8), (16, 16, 16), 1).run()
    assert len(result.trace.events) == 1344
    assert calls[0] <= 3 * len(result.trace.events)


def test_write_back_looks_up_each_output_block_once(monkeypatch):
    # johnson's g tasks along k write one C block, so g**3 tasks write g**2
    # blocks; summa's tasks each write their own
    out, calls = [None], [0]
    parts = TensorDistribution.parts

    def counted(self, rect, among=None):
        calls[0] += self is out[0]
        return parts(self, rect, among)

    monkeypatch.setattr(TensorDistribution, "parts", counted)
    for bundle, lookups in ((bundle_from_config("johnson", grid(2, 2, 2)), 4),
                            (bundle_from_config("johnson", grid(3, 3, 3), (9, 9, 9)), 9),
                            (bundle_from_config("summa", grid(3, 3), (6, 6, 6), 1), 9)):
        out[0], calls[0] = bundle.distributions["C"], 0
        bundle.run()
        assert calls[0] == lookups


@pytest.mark.parametrize("name, machine, n", [
    ("johnson", (4, 4, 4), 40), ("johnson", (8, 8, 8), 16), ("mttkrp", (2, 2), None)])
def test_launch_scope_run_looks_up_no_rect_twice(monkeypatch, name, machine, n):
    # every fetch of these runs is at launch scope and every need meets one
    # piece, so the fetches answer from the meet mask and make no lookup at
    # all; only the write-back scans the whole piece table, once per
    # distinct output rect. johnson 4x4x4 n=40 made 112 whole-table lookups
    # of 48 distinct pairs before one memo served the launch
    plans, masked, whole = [], [], []
    lower, parts = simulator.lower_to_tasks, TensorDistribution.parts

    def lowering(stmt, store):
        plans.append(lower(stmt, store))
        return plans[-1]

    def recorded(self, rect, among=None):
        (whole if among is None else masked).append((id(self), rect))
        return parts(self, rect, among)

    monkeypatch.setattr(simulator, "lower_to_tasks", lowering)
    monkeypatch.setattr(TensorDistribution, "parts", recorded)
    dims = None if n is None else (n,) * REGISTRY[name].extents
    bundle = bundle_from_config(name, grid(*machine), dims, 1)
    bundle.run()
    assert {scope for plan in plans for _, scope in plan.fetch_plan} == {"launch"}
    outputs = {id(bundle.distributions[plan.out_name]) for plan in plans}
    assert not masked
    assert whole and len(set(whole)) == len(whole)
    assert {d for d, _ in whole} <= outputs


def _count_intersects(monkeypatch):
    """Count HyperRect.intersect calls by where they come from: inside
    `subtract_rects`, inside `_write_back`, or elsewhere (the piece lookups
    of fetch); also counts the `subtract_rects` calls."""
    counts = {"subtract": 0, "write_back": 0, "lookup": 0, "subtract_calls": 0}
    inside = ["lookup"]
    intersect, subtract, write_back = (HyperRect.intersect, simulator.subtract_rects,
                                       simulator._write_back)

    def counted(self, other):
        counts[inside[-1]] += 1
        return intersect(self, other)

    def within(name, fn):
        def wrapper(*args):
            counts["subtract_calls"] += name == "subtract"
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(HyperRect, "intersect", counted)
    monkeypatch.setattr(simulator, "subtract_rects", within("subtract", subtract))
    monkeypatch.setattr(simulator, "_write_back", within("write_back", write_back))
    return counts


@pytest.mark.parametrize("name, machine, n, calls", [
    ("johnson", (4, 4, 4), 40, 256), ("johnson", (8, 8, 8), 16, 4096),
    ("mttkrp", (2, 2), None, 4)])
def test_launch_scope_fetches_intersect_only_the_colors_their_need_meets(
        monkeypatch, name, machine, n, calls):
    # every fetch of these runs is at launch scope and each need meets one
    # piece: the need is held (its piece is resident) or is itself the one
    # part, so fetches make no HyperRect.intersect call and never cut by
    # what is held. Every call is the write-back's scan of the distinct
    # output rects. Scanning every color per need made 800 and 12,416 calls
    # on johnson 4x4x4 n=40 and 8x8x8 n=16, and lookups filtered by the
    # meet mask 384 and 5,120; mttkrp made 16
    counts = _count_intersects(monkeypatch)
    dims = None if n is None else (n,) * REGISTRY[name].extents
    bundle_from_config(name, grid(*machine), dims, 1).run()
    assert counts == {"subtract": 0, "write_back": calls, "lookup": 0, "subtract_calls": 0}


def test_launch_needs_over_several_pieces_scan_only_the_colors_they_meet(monkeypatch):
    # summa's A row panels are launch-scope needs that meet 8 pieces each,
    # so they take the cut-and-split path, scanning only their meet mask's
    # colors; its B needs are step scope and scan every color
    plans, among_seen = [], set()
    lower, parts, intersect = (simulator.lower_to_tasks, TensorDistribution.parts,
                               HyperRect.intersect)

    def lowering(stmt, store):
        plans.append(lower(stmt, store))
        return plans[-1]

    def recorded(self, rect, among=None):
        if among is not None:
            among_seen.add((id(self), tuple(among)))
        return parts(self, rect, among)

    monkeypatch.setattr(simulator, "lower_to_tasks", lowering)
    monkeypatch.setattr(TensorDistribution, "parts", recorded)
    counts = _count_intersects(monkeypatch)
    bundle = bundle_from_config("summa", grid(8, 8), (16, 16, 16), 1)
    bundle.run()
    assert counts["subtract_calls"] > 0
    (plan,) = plans
    need_meets = set()
    for a, scope in plan.fetch_plan:
        if scope == "launch":
            d = bundle.distributions[a.tensor.name]
            for rect in simulator._task_rects(a, plan.env, plan.defs)[0]:
                if rect is not None:
                    need_meets.add((id(d), tuple(
                        intersect(rect, b) is not None for _, b, _ in d.pieces)))
    assert among_seen and among_seen <= need_meets
    assert {sum(among) for _, among in among_seen} == {8}


def test_step_scope_and_write_back_scans_stay_pinned(monkeypatch):
    # a trip-wire for the scans the launch-scope meet mask leaves alone:
    # step-scope lookups scan every color, subtract_rects cuts each need by
    # what is held, and the write-back scans every color per distinct output
    # rect. These counts are the benchmark's pinned intersect_calls, and
    # they move on purpose when the benchmark stops counting subtraction
    # and the remaining scans are masked (ROADMAP item 1 PRs A and B)
    counts = _count_intersects(monkeypatch)
    bundle_from_config("cannon", grid(8, 8), (32, 32, 32), 1).run()
    assert counts == {"subtract": 1696, "write_back": 4096, "lookup": 57344,
                      "subtract_calls": 1024}
    assert sum(counts[k] for k in ("subtract", "write_back", "lookup")) == 63136
    for k in counts:
        counts[k] = 0
    bundle_from_config("summa", grid(8, 8), (16, 16, 16), 1).run()
    assert sum(counts[k] for k in ("subtract", "write_back", "lookup")) == 64208


def test_piece_table_is_built_once_per_distribution(monkeypatch):
    # the color scans of fetch and _commit read each distribution's piece
    # table; rebuilding bounds and holders per scanned color made 68,800
    # piece_bounds and 1,600 processors_of calls on this run
    calls = {"piece_bounds": 0, "processors_of": 0}
    for name in calls:
        method = getattr(TensorDistribution, name)

        def counted(self, color, name=name, method=method):
            calls[name] += 1
            return method(self, color)

        monkeypatch.setattr(TensorDistribution, name, counted)
    bundle = bundle_from_config("summa", grid(8, 8), (16, 16, 16), 1)
    result, _ = bundle.run()
    assert len(result.trace.events) == 1344
    colors = sum(len(d.pieces) for d in bundle.distributions.values())
    assert colors == 192
    assert calls["piece_bounds"] <= colors and calls["processors_of"] <= colors


def test_stats_rows_reuse_coordinate_tuples():
    result, _ = bundle_from_config("summa", grid(8, 8), (16, 16, 16), 1).run()
    trace = result.trace
    trace.stats()
    tracemalloc.start()
    try:
        stats = trace.stats()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 294 KB when every row built fresh lists and sorted edges by rank keys
    assert peak < 200_000
    edge = stats["per_edge"][0]
    assert any(edge["src"] is e.src for e in trace.events)
    row = stats["memory_high_water"]["per_processor"][0]
    assert row["processor"] is trace.machine.enumerate()[0]


def _stats_from_rows(trace) -> dict:
    """Every ledger figure of `stats()` recomputed from `canonical_rows()`
    and `launches` alone; per-edge rows are ordered by machine enumeration
    index rather than by coordinates."""
    rows = trace.canonical_rows()
    rank = {p: k for k, p in enumerate(trace.machine.enumerate())}

    def tally(picked):
        return {"messages": len(picked), "elements": sum(r[6] for r in picked)}

    def edge(r):
        return tuple(r[1]), tuple(r[2])

    steps = max([launch["steps"] for launch in trace.launches
                 if launch["phase"] == "compute"], default=0)
    copies, reduces = ([r for r in rows if r[7] == kind] for kind in ("copy", "reduce"))
    compute = [r for r in rows if r[8] == "compute"]
    want = {
        "num_steps": steps,
        "totals": {**tally(rows),
                   "copy_messages": len(copies), "copy_elements": tally(copies)["elements"],
                   "reduce_messages": len(reduces),
                   "reduce_elements": tally(reduces)["elements"]},
        "phases": {phase: tally([r for r in rows if r[8] == phase])
                   for phase in ("placement", "compute")},
        "per_edge": [{"src": src, "dst": dst,
                      **tally([r for r in rows if edge(r) == (src, dst)])}
                     for src, dst in sorted({edge(r) for r in rows},
                                            key=lambda e: (rank[e[0]], rank[e[1]]))],
        "per_step": [{"step": s, **tally([r for r in compute if r[0] == s])}
                     for s in range(steps)],
    }
    if trace.machine.num_levels > 1:
        node = len(trace.machine.levels[0])
        want["levels"] = {
            "intra_node": tally([r for r in rows if r[1][:node] == r[2][:node]]),
            "inter_node": tally([r for r in rows if r[1][:node] != r[2][:node]]),
        }
    return want


def _redistributed_then_run():
    """One trace holding a placement launch and then a compute launch, both
    at step 0: A arrives in rows on column 0, moves to blocks, then feeds
    the broadcast gemm."""
    stmt, machine, dists, inputs, sched = _gemm_setup()
    store = RegionStore(machine)
    store.place("A", inputs["A"], TensorDistribution((4, 4), machine, [(("x", "y"), ("x", 0))]))
    store.place("B", inputs["B"], dists["B"])
    store.place("C", DenseTensor((4, 4)), dists["C"])
    trace = ExecutionTrace(machine)
    redistribute(store, "A", dists["A"], trace)
    return execute(sched.apply(lower_to_cin(stmt)), store, trace=trace)


def _relayed_placement():
    machine = grid(3, 3)
    old, new = (TensorDistribution((5, 7), machine, parse_distribution(text)[1])
                for text in ("xy -> xy", "xy -> **"))
    store = RegionStore(machine)
    store.place("T", DenseTensor((5, 7)), old)
    trace = ExecutionTrace(machine)
    redistribute(store, "T", new, trace)
    return trace


STATS_ORACLE_CASES = {
    **{f"{name}-default": lambda name=name: bundle_from_config(name).run()[0].trace
       for name in REGISTRY},
    **{f"{name}-n7": lambda name=name, row=row: bundle_from_config(
        name, dims=(7,) * row.extents).run()[0].trace for name, row in REGISTRY.items()},
    "summa-hier-4x2/2-n12": lambda: bundle_from_config(
        "summa-hier", parse_machine("4x2/2"), (12, 12, 12)).run()[0].trace,
    "placement-relay": _relayed_placement,
    "placement-then-compute": _redistributed_then_run,
}


@pytest.mark.parametrize("case", sorted(STATS_ORACLE_CASES))
def test_stats_match_an_oracle_over_the_rows(case):
    trace = STATS_ORACLE_CASES[case]()
    stats = trace.stats()
    want = _stats_from_rows(trace)
    assert {k: stats[k] for k in want} == want
    assert ("levels" in stats) == (trace.machine.num_levels > 1)
    # memory is not a ledger figure: the overall high-water is the largest
    # per-processor row, and the rows are `memory` in enumeration order
    rows = stats["memory_high_water"]["per_processor"]
    assert rows == [{"processor": p, "elements": trace.memory[p]}
                    for p in trace.machine.enumerate()]
    assert stats["memory_high_water"]["overall"] == max(r["elements"] for r in rows)


def test_stats_oracle_cases_reach_every_branch():
    # the placement-then-compute case puts placement rows at a compute
    # step, and summa-hier has traffic on both sides of the level split
    mixed = STATS_ORACLE_CASES["placement-then-compute"]().stats()
    assert mixed["phases"]["placement"]["messages"] > 0 and mixed["num_steps"] == 2
    assert STATS_ORACLE_CASES["placement-relay"]().stats()["num_steps"] == 0
    levels = STATS_ORACLE_CASES["summa-hier-4x2/2-n12"]().stats()["levels"]
    assert levels["intra_node"] != levels["inter_node"]


def test_stats_reads_the_events_as_they_are_now():
    # perfbench's dropped-event check pops an event from `trace.events` and
    # expects the next stats() to miss it
    trace = bundle_from_config("summa").run()[0].trace
    before = trace.stats()
    gone = trace.events.pop(5)
    after = trace.stats()
    assert after["totals"]["messages"] == before["totals"]["messages"] - 1

    def edges(stats):
        return {(r["src"], r["dst"]): r["messages"] for r in stats["per_edge"]}

    want = edges(before)
    want[gone.src, gone.dst] -= 1
    assert edges(after) == {key: m for key, m in want.items() if m}


def test_verify_catches_tampering():
    stmt, machine, dists, inputs, sched = _gemm_setup()
    res = run_statement(stmt, machine, dists, inputs, sched)
    res.output.data[0, 0] += 1.0
    with pytest.raises(VerifyFail):
        verify_result(stmt, inputs, res)
    with pytest.raises(VerifyFail, match=r"output dims \(4, 2\) != reference \(4, 4\)"):
        verify_result(stmt, inputs, replace(res, output=DenseTensor((4, 2))))


def test_verify_catches_nan_and_inf():
    stmt, machine, dists, inputs, sched = _gemm_setup()
    for bad in (np.nan, np.inf):
        res = run_statement(stmt, machine, dists, inputs, sched)
        res.output.data[0, 0] = bad
        with pytest.raises(VerifyFail):
            verify_result(stmt, inputs, res)


def test_verify_accepts_nan_where_the_reference_has_it():
    stmt, machine, dists, inputs, sched = _gemm_setup()
    inputs["A"].data[1, 2] = np.nan
    inputs["B"].data[0, 3] = np.inf
    res = run_statement(stmt, machine, dists, inputs, sched)
    assert np.isnan(res.output.data).any()
    verify_result(stmt, inputs, res)


def test_verify_reads_the_output_from_inputs_when_given():
    # the run starts C at zeros and refuses a C in `inputs`; the reference
    # starts at zeros only when `inputs` holds no C, so a nonzero C there
    # fails verify against a zero-start run
    stmt = parse_statement("C(i) = C(i) + A(i)", {"i": 5})
    machine = grid(2)
    rows = TensorDistribution((5,), machine, [(("x",), ("x",))])
    inputs = {"A": DenseTensor((5,), [1, -2, 3, 4, -5])}
    sched = parse_schedule("divide i io ii 2; distribute io; communicate A io")
    res = run_statement(stmt, machine, {"A": rows, "C": rows}, inputs, sched)
    assert res.output.data.tolist() == [1, -2, 3, 4, -5]
    verify_result(stmt, inputs, res)
    with_c = {**inputs, "C": DenseTensor((5,), [7] * 5)}
    with pytest.raises(ConfigError, match="output C"):
        run_statement(stmt, machine, {"A": rows, "C": rows}, with_c, sched)
    with pytest.raises(VerifyFail):
        verify_result(stmt, with_c, res)


# placement-phase movement

def _row_then_block():
    machine = grid(2, 2)
    old = TensorDistribution((4, 4), machine, [(("x", "y"), ("x", 0))])
    new = TensorDistribution((4, 4), machine, [(("x", "y"), ("x", "y"))])
    return machine, old, new


def test_redistribute_moves_exactly_the_missing_pieces():
    machine, old, new = _row_then_block()
    store = RegionStore(machine)
    data = DenseTensor((4, 4), np.arange(16, dtype=float).reshape(4, 4))
    store.place("T", data, old)
    trace = ExecutionTrace(machine)
    redistribute(store, "T", new, trace)
    assert trace.events == [
        CommEvent(0, (0, 0), (0, 1), "T", HyperRect((0, 2), (2, 4)), 4,
                  "copy", "placement"),
        CommEvent(0, (1, 0), (1, 1), "T", HyperRect((2, 2), (4, 4)), 4,
                  "copy", "placement"),
    ]
    assert store["T"].dist is new
    assert store["T"].residency == new.residency()
    assert np.array_equal(store["T"].tensor.data, data.data)
    # transfer moment: old copy and fetched piece coexist
    assert trace.memory[(0, 0)] == 8
    assert trace.memory[(0, 1)] == 4
    assert trace.launches[0]["kind"] == "redistribute"
    assert trace.launches[0]["elements"] == 8


def test_redistribute_rejects_shape_or_machine_change():
    machine, old, _ = _row_then_block()
    store = RegionStore(machine)
    store.place("T", DenseTensor((4, 4)), old)
    trace = ExecutionTrace(machine)
    bad_dims = TensorDistribution((4, 2), machine,
                                  [(("x", "y"), ("x", "y"))])
    with pytest.raises(ConfigError):
        redistribute(store, "T", bad_dims, trace)
    other = grid(4)
    bad_machine = TensorDistribution((4, 4), other, [(("x", "y"), ("x",))])
    with pytest.raises(ConfigError):
        redistribute(store, "T", bad_machine, trace)


@pytest.mark.parametrize("dims", [(2, 2), (5, 5)])
def test_a_trace_of_another_machine_is_refused(dims):
    # a smaller trace has no memory row for some processors, a larger one
    # would report processors the run never had; both are refused up front
    bundle = bundle_from_config("summa", grid(4, 4))
    inputs = random_inputs(bundle.statement)
    store = RegionStore(bundle.machine)
    for name, dist in bundle.distributions.items():
        store.place(name, inputs.get(name, DenseTensor(dist.tensor_dims)), dist)
    stmt = bundle.schedule.apply(lower_to_cin(bundle.statement))
    trace = ExecutionTrace(grid(*dims))
    with pytest.raises(ConfigError, match=f"trace of machine {dims[0]}x{dims[1]}"):
        execute(stmt, store, trace=trace)
    new = TensorDistribution((8, 8), bundle.machine, parse_distribution("A: xy -> x0")[1])
    with pytest.raises(ConfigError, match="cannot record a run on 4x4"):
        redistribute(store, "A", new, trace)
    assert trace.events == [] and trace.launches == []


# Ledgers of redistribute, one event per "src>dst rect" (processor
# coordinates as digits), then the per-processor memory high-water in
# machine order. The relay cases serve a piece that two processors lack to
# the second from the first one's launch temporary.
REDISTRIBUTIONS = {
    "row-to-block": ((4, 4), "2x2", "xy -> x0", "xy -> xy",
                     ["00>01 [0,2)x[2,4)", "10>11 [2,4)x[2,4)"], [8, 4, 8, 4]),
    "block-to-row": ((4, 4), "2x2", "xy -> xy", "xy -> x0",
                     ["01>00 [0,2)x[2,4)", "11>10 [2,4)x[2,4)"], [8, 4, 8, 4]),
    "transposed": ((4, 4), "2x2", "xy -> xy", "xy -> yx",
                   ["10>01 [2,4)x[0,2)", "01>10 [0,2)x[2,4)"], [4, 8, 8, 4]),
    "fixed-to-partition": (
        (4, 4), "2x2", "xy -> 11", "xy -> xy",
        ["11>00 [0,2)x[0,2)", "11>01 [0,2)x[2,4)", "11>10 [2,4)x[0,2)"],
        [4, 4, 4, 16]),
    "partition-to-fixed": (
        (4, 4), "2x2", "xy -> xy", "xy -> 10",
        ["00>10 [0,2)x[0,2)", "01>10 [0,2)x[2,4)", "11>10 [2,4)x[2,4)"],
        [4, 4, 16, 4]),
    "ragged": (
        (5, 7), "2x3", "xy -> xy", "xy -> yx",
        ["01>00 [0,2)x[3,4)", "10>01 [3,4)x[0,3)", "11>01 [3,4)x[3,4)",
         "00>01 [2,3)x[0,3)", "10>02 [4,5)x[0,3)", "11>02 [4,5)x[3,4)",
         "01>10 [0,2)x[4,6)", "02>10 [0,2)x[6,7)", "01>11 [2,3)x[4,6)",
         "02>11 [2,3)x[6,7)", "12>11 [3,4)x[6,7)", "11>12 [4,5)x[4,6)"],
        [11, 16, 7, 12, 10, 4]),
    "two-level": (
        (8, 8), "2x2/2", "xy -> xy; xy -> x", "xy -> yx; xy -> y",
        ["001>000 [2,4)x[0,2)", "000>001 [0,2)x[2,4)", "100>010 [4,6)x[0,2)",
         "101>010 [6,8)x[0,2)", "100>011 [4,6)x[2,4)", "101>011 [6,8)x[2,4)",
         "010>100 [0,2)x[4,6)", "011>100 [2,4)x[4,6)", "010>101 [0,2)x[6,8)",
         "011>101 [2,4)x[6,8)", "111>110 [6,8)x[4,6)", "110>111 [4,6)x[6,8)"],
        [12, 12, 16, 16, 16, 16, 12, 12]),
    "two-level-ragged": (
        (5, 7), "2x2/2", "xy -> xy; xy -> y", "xy -> xy; xy -> x",
        ["001>000 [0,2)x[2,4)", "000>001 [2,3)x[0,2)", "011>010 [0,2)x[6,7)",
         "010>011 [2,3)x[4,6)", "101>100 [3,5)x[2,4)", "111>110 [3,5)x[6,7)"],
        [10, 8, 8, 5, 8, 4, 6, 2]),
    "two-level-node-replica": (
        (8, 8), "2x2/2", "xy -> xy; xy -> x", "xy -> xy; xy -> *",
        ["001>000 [2,4)x[0,4)", "000>001 [0,2)x[0,4)", "011>010 [2,4)x[4,8)",
         "010>011 [0,2)x[4,8)", "101>100 [6,8)x[0,4)", "100>101 [4,6)x[0,4)",
         "111>110 [6,8)x[4,8)", "110>111 [4,6)x[4,8)"],
        [16] * 8),
    "relay-block-to-replica": (
        (4, 4), "2x2", "xy -> xy", "xy -> **",
        ["10>00 [2,4)x[0,2)", "11>00 [2,4)x[2,4)", "01>00 [0,2)x[2,4)",
         "00>01 [2,4)x[0,2)", "00>01 [2,4)x[2,4)", "00>01 [0,2)x[0,2)",
         "01>10 [0,2)x[0,2)", "00>10 [0,2)x[2,4)", "00>10 [2,4)x[2,4)",
         "01>11 [0,2)x[0,2)", "00>11 [0,2)x[2,4)", "00>11 [2,4)x[0,2)"],
        [16, 16, 16, 16]),
    "relay-ragged": (
        (5, 7), "2x3", "xy -> x0", "xy -> *y",
        ["10>00 [3,5)x[0,3)", "00>01 [0,3)x[3,6)", "10>01 [3,5)x[3,6)",
         "00>02 [0,3)x[6,7)", "10>02 [3,5)x[6,7)", "00>10 [0,3)x[0,3)",
         "01>11 [0,3)x[3,6)", "01>11 [3,5)x[3,6)", "02>12 [0,3)x[6,7)",
         "02>12 [3,5)x[6,7)"],
        [27, 15, 5, 23, 15, 5]),
}


@pytest.mark.parametrize("case", sorted(REDISTRIBUTIONS))
def test_redistribute_ledger(case):
    shape, machine_text, old_text, new_text, ledger, memory = REDISTRIBUTIONS[case]
    machine = parse_machine(machine_text)
    old, new = (TensorDistribution(shape, machine, parse_distribution(t)[1])
                for t in (old_text, new_text))
    store = RegionStore(machine)
    data = DenseTensor(shape, np.arange(np.prod(shape), dtype=float).reshape(shape))
    store.place("T", data, old)
    trace = ExecutionTrace(machine)
    redistribute(store, "T", new, trace)

    def digits(p):
        return "".join(map(str, p))

    assert [f"{digits(e.src)}>{digits(e.dst)} {e.rect}" for e in trace.events] == ledger
    assert {(e.timestep, e.tensor, e.kind, e.phase) for e in trace.events} == {
        (0, "T", "copy", "placement")}
    assert all(e.elements == e.rect.volume for e in trace.events)
    assert [trace.memory[p] for p in machine.enumerate()] == memory
    assert trace.launches == [{
        "phase": "placement", "kind": "redistribute", "tensor": "T",
        "elements": sum(e.elements for e in trace.events), "to": new.describe()}]
    assert trace.stats()["num_steps"] == 0
    assert store["T"].dist is new
    assert store["T"].residency == new.residency()
    assert np.array_equal(store["T"].tensor.data, data.data)
    with pytest.raises(MissingDistribution):
        redistribute(store, "U", new, trace)


def test_store_rejects_mismatches():
    machine = grid(2, 2)
    store = RegionStore(machine)
    dist = TensorDistribution((4, 4), machine, [(("x", "y"), ("x", "y"))])
    with pytest.raises(ConfigError):
        store.place("T", DenseTensor((4, 2)), dist)
    foreign = TensorDistribution((4, 4), grid(4),
                                 [(("x", "y"), ("x",))])
    with pytest.raises(ConfigError):
        store.place("T", DenseTensor((4, 4)), foreign)


# runtime rejections

def test_copy_into_replica_rejected():
    stmt = parse_statement("D(i, j) = A(i, j) + B(i, j)", {"i": 4, "j": 4})
    machine = grid(2, 2)
    block = TensorDistribution((4, 4), machine, [(("x", "y"), ("x", "y"))])
    repl = TensorDistribution((4, 4), machine, [(("x", "y"), ("x", "*"))])
    sched = parse_schedule("divide i io ii 2; divide j jo ji 2; reorder io jo ii ji; "
                           "distribute io; distribute jo")
    inputs = {"A": DenseTensor((4, 4)), "B": DenseTensor((4, 4))}
    with pytest.raises(WriteToReplica):
        run_statement(stmt, machine, {"A": block, "B": block, "D": repl},
                      inputs, sched)


def test_reduce_into_replica_is_fine():
    # partial sums land on the home replica; the stale copies are dropped
    stmt, machine, dists, inputs, sched = _gemm_setup()
    dists["C"] = TensorDistribution((4, 4), machine, [(("x", "y"), ("x", "*"))])
    res = run_statement(stmt, machine, dists, inputs, sched)
    verify_result(stmt, inputs, res)
    homes = res.store["C"].residency
    assert homes[(0, 1)] == [] and homes[(1, 1)] == []


def test_overlapping_copy_writes_rejected():
    D = TensorVar("D", (4, 4))
    A = TensorVar("A", (4, 4))
    leaf = Assign(D("i", "ji"), A("i", "ji"))
    loops = tuple(Forall(v, 0, 2) for v in ("io", "jo", "ii", "ji"))
    cin = LoopNest(loops, leaf, (
        Divide("i", "io", "ii", 2, 4),
        Divide("j", "jo", "ji", 2, 4),
        Distribute("io"), Distribute("jo"),
    ))
    machine = grid(2, 2)
    block = TensorDistribution((4, 4), machine, [(("x", "y"), ("x", "y"))])
    with pytest.raises(OverlappingWrites) as err:
        run_statement(cin, machine, {"A": block, "D": block},
                      {"A": DenseTensor((4, 4))})
    assert "both write" in str(err.value)


def test_scalar_copy_output_on_two_tasks_overlaps():
    # each task assigns the whole 0-d output, so the two writes collide
    a, A = TensorVar("a", ()), TensorVar("A", (2,))
    cin = LoopNest((Forall("i", 0, 2),), Assign(a(), A("i")), (Distribute("i"),))
    machine = grid(2)
    dists = {"a": TensorDistribution((), machine, [((), (0,))]),
             "A": TensorDistribution((2,), machine, [(("x",), ("x",))])}
    with pytest.raises(OverlappingWrites,
                       match=r"tasks \(0,\) and \(1,\) both write \[scalar\] of a"):
        run_statement(cin, machine, dists, {"A": DenseTensor((2,))})


def test_overlap_sweep_names_the_earlier_task_first():
    def task(k, lo=None, hi=None):
        return simulator.TaskInfo((k,), None if lo is None else HyperRect(lo, hi))

    # sorted by lower bound task 1 comes first; the pair is still (0, 1)
    tasks = [task(0, (1,), (5,)), task(1, (0,), (2,)), task(2)]
    assert simulator._overlap(tasks) == (tasks[0], tasks[1])
    assert simulator._overlap([task(0, (0, 0), (2, 2)), task(1, (2, 0), (4, 2)),
                               task(2, (0, 2), (2, 4))]) is None
    scalars = [task(0), task(1, (), ()), task(2, (), ())]
    assert simulator._overlap(scalars) == (scalars[1], scalars[2])
    assert simulator._overlap(scalars[:2]) is None


def test_grid_mismatch():
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)",
                           {"i": 4, "j": 4, "k": 4})
    inputs = {"A": DenseTensor((4, 4)), "B": DenseTensor((4, 4))}
    cases = [
        (grid(2, 2), parse_schedule("divide i io ii 2; reorder io ii; distribute io"),
         "1 distributed loops for machine 2x2 with 2 dimensions"),
        (grid(2), parse_schedule("divide i io ii 2; distribute ii"),
         "no leading distributed loops"),
        (grid(2), parse_schedule("divide i io ii 2; distribute io; distribute k"),
         r"distributed loops \['k'\] are not outermost"),
        (grid(2), parse_schedule("divide i io ii 3; distribute io"),
         r"loop io spans \[0,3\) over a machine dimension of extent 2"),
    ]
    for machine, sched, message in cases:
        names = ("x", "y")[:len(machine.flat_dims)]
        rows = TensorDistribution((4, 4), machine, [(("x", "y"), names)])
        with pytest.raises(GridMismatch, match=message):
            run_statement(stmt, machine, {n: rows for n in "ABC"}, inputs, sched)


def test_missing_pieces_rejected():
    stmt, machine, dists, inputs, sched = _gemm_setup()
    with pytest.raises(MissingDistribution):
        run_statement(stmt, machine, {"A": dists["A"]}, inputs, sched)
    with pytest.raises(MissingInput):
        run_statement(stmt, machine, dists, {"A": inputs["A"]}, sched)
    bad = dict(inputs)
    bad["B"] = DenseTensor((2, 2))
    with pytest.raises(ExtentMismatch):
        run_statement(stmt, machine, dists, bad, sched)
    store = RegionStore(machine)  # B and C never placed
    store.place("A", inputs["A"], dists["A"])
    with pytest.raises(MissingDistribution, match="tensor B has no placed region"):
        lower_to_tasks(sched.apply(lower_to_cin(stmt)), store)


def test_placement_statement_rejected():
    machine = grid(2, 2)
    block = _block((4, 4), machine)
    placement = lower_placement(TensorVar("A", (4, 4)), block)
    with pytest.raises(ConfigError, match="place"):
        run_statement(placement, machine, {"A": block}, {"A": DenseTensor((4, 4))})


# degenerate grid

def test_single_processor_grid_moves_nothing():
    stmt = parse_statement("b(i) = A(i, j) * c(j)", {"i": 3, "j": 3})
    machine = grid(1)
    one = TensorDistribution((3, 3), machine, [(("x", "y"), ("x",))])
    vec = TensorDistribution((3,), machine, [(("x",), ("x",))])
    sched = parse_schedule("divide i io ii 1; distribute io")
    inputs = {
        "A": DenseTensor((3, 3), np.arange(9, dtype=float).reshape(3, 3)),
        "c": DenseTensor((3,), [1.0, 0.0, 2.0]),
    }
    res = run_statement(stmt, machine, {"A": one, "c": vec, "b": vec},
                        inputs, sched)
    verify_result(stmt, inputs, res)
    assert res.trace.stats()["totals"]["messages"] == 0


# a launch resolved on lanes

def access_rect(access, env, defs):
    """Index box one access touches under interval env, one var_interval
    call per index; None when empty. The per-task resolution the launch's
    lanes replaced, kept here as the oracle."""
    ivs = [var_interval(v, env, defs) for v in access.indices]
    rect = HyperRect(tuple(a for a, _ in ivs), tuple(b for _, b in ivs))
    if rect.is_empty and rect.lo:
        return None
    dims = access.tensor.dims
    for a, b, d in zip(rect.lo, rect.hi, dims):
        if a < 0 or b > d:
            raise OOBAccess(f"{access.tensor.name} rows {rect} outside dims {dims}")
    return rect


def _per_task_resolution(plan):
    """Each task's out_rect, then the need rects the replay fetches in its
    order (steps, tasks, fetch-plan entries), each resolved on its own box:
    every loop at its range, the launch loops pinned to the task's
    coordinate, and a step-scope need's step pinned. Also counts the empty
    resolutions."""
    intervals = {f.var: (f.lo, f.hi) for f in plan.stmt.loops}
    boxes = [{**intervals, **{f.var: (c, c + 1) for f, c in zip(plan.launch_vars, t.coord)}}
             for t in plan.tasks]
    out = [plan.out_access and access_rect(plan.out_access, box, plan.defs) for box in boxes]
    needs, empty = [], out.count(None) if plan.out_access else 0
    for s in range(plan.num_steps):
        for box in boxes:
            for acc, scope in plan.fetch_plan:
                if scope == "launch" and s > 0:
                    continue
                at = box if scope == "launch" else {**box, plan.step_var.var: (s, s + 1)}
                rect = access_rect(acc, at, plan.defs)
                empty += rect is None
                if rect is not None:
                    needs.append(rect)
    return out, needs, empty


# every bundle at ragged extents on its default machine, and the ragged
# rotates: cannon and solomonik shift blocks of which some are empty
@pytest.mark.parametrize("name, machine, n", [(n, None, 7) for n in REGISTRY] + [
    ("cannon", "5x5", 7), ("solomonik", "4x4x2", 9), ("summa-hier", "4x2/2", 7)])
def test_launch_lanes_match_per_task_resolution(monkeypatch, name, machine, n):
    plans, needs = [], []
    lower, missing = simulator.lower_to_tasks, simulator._missing

    def lowering(stmt, store):
        plans.append(lower(stmt, store))
        return plans[-1]

    def asked(region, tensor, p, need, *rest):  # fetch asks what p lacks of each need
        needs.append(need)
        return missing(region, tensor, p, need, *rest)

    monkeypatch.setattr(simulator, "lower_to_tasks", lowering)
    monkeypatch.setattr(simulator, "_missing", asked)
    dims = (n,) * REGISTRY[name].extents
    bundle_from_config(name, machine and parse_machine(machine), dims).run()
    (plan,) = plans
    out, want, empty = _per_task_resolution(plan)
    assert [t.out_rect for t in plan.tasks] == out
    assert needs == want
    assert empty > 0 or machine is None


def test_one_piece_needs_get_the_parts_of_the_cut_and_split_path(monkeypatch):
    # a launch-scope need that meets one piece is answered from its meet
    # mask; cutting it by everything held and splitting it along every
    # color must give the same parts, on every bundle at ragged extents
    missing, kinds = simulator._missing, set()

    def both(region, tensor, p, need, one, among, temps):
        got = missing(region, tensor, p, need, one, among, temps)
        assert got == missing(region, tensor, p, need, None, None, temps)
        if one is not None:
            resident = region.dist.pieces[one][1] in region.residency[p]
            cut = any(t.by_holder.get((p, tensor)) for t in temps)
            kinds.add("resident" if resident else "cut" if cut else "one part")
        return got

    monkeypatch.setattr(simulator, "_missing", both)
    for name in REGISTRY:
        for n in (7, 13):
            bundle_from_config(name, None, (n,) * REGISTRY[name].extents).run()
    bundle_from_config("summa-hier", parse_machine("4x2/2"), (7, 7, 7)).run()
    # a second read of a fetched block finds it among the launch temporaries
    stmt = parse_statement("C(i, j) = A(i, j) * A(i, j)", {"i": 5, "j": 5})
    machine = grid(2, 2)
    dists = {name: TensorDistribution((5, 5), machine, parse_distribution(text)[1])
             for name, text in (("C", "xy -> xy"), ("A", "xy -> yx"))}
    run_statement(stmt, machine, dists, random_inputs(stmt, seed=3),
                  parse_schedule("distribute i,j io,jo ii,ji 2x2"))
    assert kinds == {"resident", "one part", "cut"}


def test_one_resolution_per_access_per_step(monkeypatch):
    # summa fetches A at launch scope and B once per k step, and one more
    # resolution gives every task's out_rect: 1 + 16 + 1 on any grid
    calls = [0]
    resolve = simulator.lane_boxes

    def counted(names, env, defs):
        calls[0] += 1
        return resolve(names, env, defs)

    monkeypatch.setattr(simulator, "lane_boxes", counted)
    monkeypatch.setattr(distribution, "lane_boxes", counted)
    for g in (4, 8):
        bundle = bundle_from_config("summa", grid(g, g), (16, 16, 16), 1)
        calls[0] = 0
        bundle.run()
        assert calls[0] == 18
