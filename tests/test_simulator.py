import csv

import numpy as np
import pytest

from tendist import (
    CommEvent,
    DenseTensor,
    ExecutionTrace,
    HyperRect,
    RegionStore,
    TensorDistribution,
    access_rect,
    grid,
    lower_placement,
    parse_distribution,
    parse_machine,
    parse_statement,
    redistribute,
    run_statement,
    schedule,
    sequential_evaluate,
    var_interval,
    verify_result,
    write_edge_csv,
)
from tendist.cin import Assign, Distribute, Divide, Forall, Rotate, Split, with_relations
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


def test_access_rect():
    A = TensorVar("A", (5, 4))
    acc = A("i", "j")
    assert access_rect(acc, {"i": (0, 2), "j": (1, 3)}, {}) == HyperRect((0, 1), (2, 3))
    assert access_rect(acc, {"i": (0, 2), "j": (2, 2)}, {}) is None
    with pytest.raises(OOBAccess):
        access_rect(acc, {"i": (4, 6), "j": (0, 1)}, {})
    with pytest.raises(NonAffineAccess):
        access_rect(TensorVar("A", (5,))(3), {}, {})


# a small broadcast-style run with every number pinned down

def _block(dims, machine):
    names = ("x", "y", "z")[: len(dims)]
    return TensorDistribution(dims, machine, [(names, names)])


def _gemm_setup(n=4):
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)",
                           {"i": n, "j": n, "k": n})
    machine = grid(2, 2)
    dists = {name: _block((n, n), machine) for name in ("A", "B", "C")}
    sched = (schedule()
             .divide("i", "io", "ii", 2).divide("j", "jo", "ji", 2)
             .reorder("io", "jo", "ii", "ji")
             .distribute("io").distribute("jo")
             .split("k", "ko", "ki", 2).reorder("ko", "ii", "ji")
             .communicate("A", "jo").communicate(("B", "C"), "ko"))
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
    assert trace.total_messages == 8
    assert trace.total_elements == 32
    assert trace.num_steps == 2
    assert trace.high_water == 24
    # the stationary tensor is fetched once at launch, the streamed one per step
    assert len(trace.events_of(tensor="A")) == 4
    assert all(e.timestep == 0 for e in trace.events_of(tensor="A"))
    assert len(trace.events_of(tensor="B", step=0)) == 2
    assert len(trace.events_of(tensor="B", step=1)) == 2
    assert trace.events_of(tensor="C") == []
    assert CommEvent(0, (0, 1), (0, 0), "A", HyperRect((0, 2), (2, 4)),
                     4, "copy", "compute") in trace.events


def test_broadcast_run_event_hygiene():
    stmt, machine, dists, inputs, sched = _gemm_setup()
    trace = run_statement(stmt, machine, dists, inputs, sched).trace
    for e in trace.events:
        assert e.src != e.dst
        assert e.elements == e.rect.volume > 0
        assert e.kind == "copy" and e.phase == "compute"
        assert e.src in trace.memory and e.dst in trace.memory
    reqs = [r for r in trace.requirements if r.tensor == "A"]
    assert reqs and all(r.scope == "launch" for r in reqs)
    assert {r.scope for r in trace.requirements if r.tensor == "B"} == {"step"}


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


def test_edge_csv(tmp_path):
    stmt, machine, dists, inputs, sched = _gemm_setup()
    trace = run_statement(stmt, machine, dists, inputs, sched).trace
    path = tmp_path / "edges.csv"
    write_edge_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["src", "dst", "messages", "elements"]
    assert len(rows) == 1 + len(trace.per_edge())
    assert rows[1][0].count("x") == 1  # coordinates joined as 0x1
    assert sum(int(r[3]) for r in rows[1:]) == 32


def test_verify_catches_tampering():
    stmt, machine, dists, inputs, sched = _gemm_setup()
    res = run_statement(stmt, machine, dists, inputs, sched)
    res.output.data[0, 0] += 1.0
    with pytest.raises(VerifyFail):
        verify_result(stmt, inputs, res)


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
    assert trace.num_steps == 0
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
    sched = (schedule()
             .divide("i", "io", "ii", 2).divide("j", "jo", "ji", 2)
             .reorder("io", "jo", "ii", "ji")
             .distribute("io").distribute("jo"))
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
    body = Forall("io", 0, 2, Forall("jo", 0, 2,
                  Forall("ii", 0, 2, Forall("ji", 0, 2, leaf))))
    cin = with_relations(body, (
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


def test_grid_mismatch():
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)",
                           {"i": 4, "j": 4, "k": 4})
    machine = grid(2, 2)
    block = TensorDistribution((4, 4), machine, [(("x", "y"), ("x", "y"))])
    sched = (schedule().divide("i", "io", "ii", 2)
             .reorder("io", "ii").distribute("io"))
    inputs = {"A": DenseTensor((4, 4)), "B": DenseTensor((4, 4))}
    with pytest.raises(GridMismatch):
        run_statement(stmt, machine, {n: block for n in "ABC"}, inputs, sched)


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
    sched = schedule().divide("i", "io", "ii", 1).distribute("io")
    inputs = {
        "A": DenseTensor((3, 3), np.arange(9, dtype=float).reshape(3, 3)),
        "c": DenseTensor((3,), [1.0, 0.0, 2.0]),
    }
    res = run_statement(stmt, machine, {"A": one, "c": vec, "b": vec},
                        inputs, sched)
    verify_result(stmt, inputs, res)
    assert res.trace.total_messages == 0
