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
    lower_to_cin,
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
