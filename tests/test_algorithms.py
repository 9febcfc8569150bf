import numpy as np
import pytest

from tendist import (
    ALGORITHMS,
    bundle_from_config,
    cannon,
    cosma_like,
    grid,
    innerprod,
    johnson,
    make_machine,
    mttkrp,
    pumma,
    random_inputs,
    sequential_evaluate,
    solomonik,
    summa,
    summa_hier,
    ttm,
    ttv,
    verify_result,
)
from tendist.errors import (
    BadGrid,
    ConfigError,
    FactorMismatch,
    NonCubeGrid,
    NonSquareGrid,
)


def run_and_check(bundle, seed=0):
    result, inputs = bundle.run(seed=seed)
    verify_result(bundle.statement, inputs, result)
    if bundle.signature is not None:
        assert bundle.signature(result.trace) == []
    return result


# every registry bundle computes the reference answer

@pytest.mark.parametrize("name", ALGORITHMS)
def test_registry_defaults_verify(name):
    run_and_check(bundle_from_config(name), seed=3)


@pytest.mark.parametrize("bundle_fn", [
    lambda: summa(2, 2, dims=(5, 7, 6), chunk=2),
    lambda: cannon(3, 3, dims=(7, 7, 5)),
    lambda: pumma(2, 2, dims=(5, 5, 3)),
    lambda: johnson(2, 2, 2, dims=(7, 5, 3)),
    lambda: solomonik(2, 2, 2, dims=(5, 7, 9)),
    lambda: cosma_like((2, 2, 1), (1, 1, 2), dims=(5, 4, 7)),
    lambda: summa_hier(dims=(7, 6, 5), chunk=3),
    lambda: ttv(3, dims=(7, 5, 4)),
    lambda: ttm(3, dims=(5, 4, 7, 3)),
    lambda: innerprod(3, dims=(7, 5)),
    lambda: mttkrp(2, 2, dims=(5, 3, 7, 2)),
])
def test_ragged_extents_verify(bundle_fn):
    """Block edges that do not divide evenly still compute exact answers."""
    bundle = bundle_fn()
    result, inputs = bundle.run(seed=11)
    verify_result(bundle.statement, inputs, result)


# frozen traffic anchors

def test_summa_anchor_4x2():
    result = run_and_check(summa(4, 2, dims=(8, 8, 8), chunk=2))
    trace = result.trace
    assert trace.num_steps == 4
    assert trace.total_messages == 32
    assert trace.total_elements == 256
    assert len(trace.events_of(tensor="A")) == 8
    assert len(trace.events_of(tensor="B")) == 24
    assert trace.high_water == 56
    # the stationary tensor moves only along grid rows, once
    for e in trace.events_of(tensor="A"):
        assert e.timestep == 0 and e.src[0] == e.dst[0]


def test_cannon_anchors():
    small = run_and_check(cannon(2, 2, dims=(4, 4, 4))).trace
    assert (small.total_messages, small.total_elements) == (8, 32)
    big = run_and_check(cannon(3, 3, dims=(6, 6, 6))).trace
    assert (big.total_messages, big.total_elements) == (36, 144)
    assert big.num_steps == 3
    # steady state is pure neighbor traffic
    for e in big.events_of(tensor="A"):
        if e.timestep > 0:
            assert e.src == (e.dst[0], (e.dst[1] + 1) % 3)
    for e in big.events_of(tensor="B"):
        if e.timestep > 0:
            assert e.src == ((e.dst[0] + 1) % 3, e.dst[1])


def test_pumma_matches_cannon_totals():
    p = run_and_check(pumma(3, 3, dims=(6, 6, 6))).trace
    c = run_and_check(cannon(3, 3, dims=(6, 6, 6))).trace
    assert p.total_elements == c.total_elements == 144
    assert p.num_steps == c.num_steps == 3


def test_johnson_anchor():
    result = run_and_check(johnson(2, 2, 2, dims=(8, 8, 8)))
    trace = result.trace
    assert trace.num_steps == 1
    copies = trace.events_of(kind="copy")
    reduces = trace.events_of(kind="reduce")
    assert len(copies) == 8
    assert len(reduces) == 4
    assert trace.total_elements == 192
    assert trace.high_water == 64
    for e in reduces:
        assert e.dst == (e.src[0], e.src[1], 0)


def test_summa_vs_johnson_tradeoff():
    """Same problem, same processor count: the 3D layout moves fewer
    elements but keeps more resident per processor."""
    s = run_and_check(summa(4, 2, dims=(8, 8, 8), chunk=2)).trace
    j = run_and_check(johnson(2, 2, 2, dims=(8, 8, 8))).trace
    assert j.total_elements < s.total_elements
    assert j.high_water > s.high_water


def test_solomonik_depth_tradeoff():
    """Depth cuts rounds and per-processor copy traffic; replication raises
    resident volume and reduction fan-in; total copy volume stays flat."""
    steps, copy_el, per_proc, reduce_el, resident = [], [], [], [], []
    for gz in (1, 2, 4):
        bundle = solomonik(4, 4, gz, dims=(8, 8, 8))
        result = run_and_check(bundle)
        trace = result.trace
        procs = list(bundle.machine.enumerate())
        steps.append(trace.num_steps)
        copies = trace.events_of(kind="copy")
        copy_el.append(sum(e.elements for e in copies))
        per_proc.append(sum(e.elements for e in copies) // len(procs))
        reduce_el.append(sum(e.elements
                             for e in trace.events_of(kind="reduce")))
        resident.append(sum(result.store.persistent_volume(p) for p in procs))
    assert steps == [4, 2, 1]
    assert copy_el == [384, 384, 384]
    assert per_proc == [24, 12, 6]
    assert reduce_el == [0, 64, 192]
    assert resident == [192, 320, 576]


def test_cosma_factors_reproduce_broadcast_traffic():
    """With square dims, the parallel/sequential factoring moves exactly the
    block volumes of the stationary-output broadcast schedule."""
    co = run_and_check(cosma_like((2, 2, 1), (1, 1, 2), dims=(4, 4, 4))).trace
    su = run_and_check(summa(2, 2, dims=(4, 4, 4), chunk=2)).trace
    assert co.total_elements == su.total_elements == 32
    assert ([s["elements"] for s in co.per_step()]
            == [s["elements"] for s in su.per_step()] == [24, 8])
    assert co.total_messages != su.total_messages  # coarser rects, fewer sends


def test_hierarchical_matches_flat():
    hier = run_and_check(summa_hier(dims=(8, 8, 8), chunk=2)).trace
    flat = run_and_check(summa(4, 2, dims=(8, 8, 8), chunk=2)).trace
    hs, fs = hier.stats(), flat.stats()
    assert hs["totals"] == fs["totals"]
    assert hs["memory_high_water"]["overall"] == 56
    levels = hs["levels"]
    assert (levels["intra_node"]["elements"] + levels["inter_node"]["elements"]
            == hs["totals"]["elements"])
    assert (levels["intra_node"]["messages"] + levels["inter_node"]["messages"]
            == hs["totals"]["messages"])
    assert levels["intra_node"]["messages"] > 0
    assert levels["inter_node"]["messages"] > 0
    assert "levels" not in fs


def test_ttv_and_ttm_are_communication_free():
    for bundle in (ttv(2), ttm(2)):
        trace = run_and_check(bundle).trace
        assert trace.events_of(phase="compute") == []


def test_innerprod_fan_in():
    trace = run_and_check(innerprod(4, dims=(8, 6))).trace
    reduces = trace.events_of(kind="reduce")
    assert len(reduces) == 3
    assert all(e.dst == (0,) and e.elements == 1 for e in reduces)


def test_mttkrp_keeps_big_tensor_stationary():
    trace = run_and_check(mttkrp(2, 2)).trace
    assert trace.events_of(tensor="B", phase="compute") == []
    reduces = trace.events_of(kind="reduce")
    assert len(reduces) == 2
    assert all(e.dst == (e.src[0], 0) for e in reduces)


# builder validation

def test_grid_shape_rejections():
    with pytest.raises(NonSquareGrid):
        cannon(2, 3)
    with pytest.raises(NonSquareGrid):
        pumma(2, 3)
    with pytest.raises(NonCubeGrid):
        johnson(2, 2, 3)
    with pytest.raises(NonSquareGrid):
        solomonik(2, 3, 1)
    with pytest.raises(BadGrid):
        solomonik(4, 4, 3)  # depth must divide the slice side
    with pytest.raises(BadGrid):
        summa(0, 2)
    with pytest.raises(FactorMismatch):
        cosma_like((2, 2), (1, 1, 1))
    with pytest.raises(FactorMismatch):
        cosma_like((2, 2, 0), (1, 1, 1))


def test_bundle_from_config():
    assert bundle_from_config("SUMMA").machine == grid(2, 2)
    assert bundle_from_config("cosma_like").name == "cosma-like"
    b = bundle_from_config("summa", machine=grid(4, 2), dims=(8, 8, 8), chunk=2)
    assert b.machine == grid(4, 2)
    assert bundle_from_config("johnson").machine == grid(2, 2, 2)
    assert bundle_from_config("ttv").machine == grid(2)
    with pytest.raises(ConfigError):
        bundle_from_config("strassen")
    with pytest.raises(ConfigError):
        bundle_from_config("summa", machine=grid(2, 2, 2))
    with pytest.raises(ConfigError):
        bundle_from_config("summa-hier", machine=grid(2, 2))
    with pytest.raises(ConfigError):
        bundle_from_config("ttv", dims=(4, 4))
    with pytest.raises(ConfigError):
        bundle_from_config("innerprod", dims=(4, 4, 4))
    assert (bundle_from_config("summa-hier").machine
            == make_machine([(2, 2), (2,)]))


def test_bundle_inputs_and_runs():
    bundle = summa(2, 2, dims=(4, 4, 4))
    assert bundle.input_names == ["A", "B"]
    ins = random_inputs(bundle.statement, seed=5)
    assert sorted(ins) == ["A", "B"]
    again = random_inputs(bundle.statement, seed=5)
    assert all(np.array_equal(ins[k].data, again[k].data) for k in ins)
    other = random_inputs(bundle.statement, seed=6)
    assert any(not np.array_equal(ins[k].data, other[k].data) for k in ins)
    result, used = bundle.run(ins)
    assert used is ins
    want = sequential_evaluate(bundle.statement, ins)
    assert np.array_equal(result.output.data, want.data)
    # runs are single-threaded: workers=1 is accepted, nothing else
    assert bundle.run(ins, workers=1)[0].trace.events == result.trace.events
    with pytest.raises(ConfigError):
        bundle.run(ins, workers=4)
