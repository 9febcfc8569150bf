from collections import Counter

import numpy as np
import pytest

from tendist import (
    ALGORITHMS,
    bundle_from_config,
    cannon,
    cosma_like,
    format_statement,
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
from tendist.algorithms import KERNELS, REGISTRY
from tendist.errors import (
    BadGrid,
    ConfigError,
    NonCubeGrid,
    NonSquareGrid,
)


def run_and_check(bundle, seed=0):
    result, inputs = bundle.run(seed=seed)
    verify_result(bundle.statement, inputs, result)
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
    lambda: cosma_like(2, 2, 1, chunk=2, dims=(5, 4, 7)),
    lambda: summa_hier(dims=(7, 6, 5), chunk=3),
    lambda: ttv(3, dims=(7, 5, 4)),
    lambda: ttm(3, dims=(5, 4, 3, 7)),
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
    stats = trace.stats()
    assert stats["num_steps"] == 4
    assert stats["totals"]["messages"] == 32
    assert stats["totals"]["elements"] == 256
    a = [e for e in trace.events if e.tensor == "A"]
    assert len(a) == 8
    assert len([e for e in trace.events if e.tensor == "B"]) == 24
    assert stats["memory_high_water"]["overall"] == 56
    # the stationary tensor moves only along grid rows, once
    for e in a:
        assert e.timestep == 0 and e.src[0] == e.dst[0]


def test_cannon_anchors():
    small = run_and_check(cannon(2, 2, dims=(4, 4, 4))).trace
    big = run_and_check(cannon(3, 3, dims=(6, 6, 6))).trace
    stats = {2: small.stats(), 3: big.stats()}
    totals = {g: st["totals"] for g, st in stats.items()}
    assert (totals[2]["messages"], totals[2]["elements"]) == (8, 32)
    assert (totals[3]["messages"], totals[3]["elements"]) == (36, 144)
    assert stats[3]["num_steps"] == 3
    # steady state is pure neighbor traffic, and nothing is reduced
    for g, trace in ((2, small), (3, big)):
        steady = [e for e in trace.events if e.kind == "copy" and e.timestep > 0]
        assert steady
        for e in steady:
            if e.tensor == "A":
                assert e.src == (e.dst[0], (e.dst[1] + 1) % g)
            else:
                assert e.src == ((e.dst[0] + 1) % g, e.dst[1])
        assert totals[g]["reduce_messages"] == 0


def test_pumma_matches_cannon_totals():
    p = run_and_check(pumma(3, 3, dims=(6, 6, 6))).trace
    ps, cs = p.stats(), run_and_check(cannon(3, 3, dims=(6, 6, 6))).trace.stats()
    assert ps["totals"]["elements"] == cs["totals"]["elements"] == 144
    assert ps["num_steps"] == cs["num_steps"] == 3
    # pumma's A moves once, within its row; B stays in its column
    for e in [e for e in p.events if e.tensor == "A"]:
        assert e.timestep == 0 and e.src[0] == e.dst[0]
    for e in [e for e in p.events if e.tensor == "B"]:
        assert e.src[1] == e.dst[1]


def test_johnson_anchor():
    result = run_and_check(johnson(2, 2, 2, dims=(8, 8, 8)))
    trace = result.trace
    stats = trace.stats()
    assert stats["num_steps"] == 1
    assert stats["totals"]["copy_messages"] == 8
    assert stats["totals"]["reduce_messages"] == 4
    assert stats["totals"]["elements"] == 192
    assert stats["memory_high_water"]["overall"] == 64
    for e in [e for e in trace.events if e.kind == "reduce"]:
        assert e.dst == (e.src[0], e.src[1], 0)


@pytest.mark.parametrize("name", ("summa", "cannon", "pumma", "johnson"))
@pytest.mark.parametrize("g", (2, 3, 4))
@pytest.mark.parametrize("blocks", (1, 2, 3))
def test_closed_form_traffic(name, g, blocks):
    """On evenly divided g x g (johnson: g x g x g) grids at chunk 1, each
    algorithm moves its closed-form volume: (copy messages, copy elements,
    reduce messages, reduce elements, steps)."""
    n = blocks * g
    machine = grid(g, g, g) if name == "johnson" else grid(g, g)
    trace = bundle_from_config(name, machine, (n, n, n), 1).run()[0].trace
    stats = trace.stats()
    t = stats["totals"]
    got = (t["copy_messages"], t["copy_elements"], t["reduce_messages"],
           t["reduce_elements"], stats["num_steps"])
    shifted = (2 * g * g * (g - 1), 2 * n * n * (g - 1), 0, 0, g)
    assert got == {
        "summa": (g * (g - 1) * (g + n), 2 * n * n * (g - 1), 0, 0, n),
        "cannon": shifted,
        "pumma": shifted,
        "johnson": (2 * g * g * (g - 1), 2 * n * n * (g - 1),
                    g * g * (g - 1), n * n * (g - 1), 1),
    }[name]
    if name == "johnson":  # every front-face processor sums g - 1 partials
        fan_in = Counter(e.dst for e in trace.events if e.kind == "reduce")
        assert fan_in == {(x, y, 0): g - 1 for x in range(g) for y in range(g)}


def test_summa_vs_johnson_tradeoff():
    """Same problem, same processor count: the 3D layout moves fewer
    elements but keeps more resident per processor."""
    s = run_and_check(summa(4, 2, dims=(8, 8, 8), chunk=2)).trace.stats()
    j = run_and_check(johnson(2, 2, 2, dims=(8, 8, 8))).trace.stats()
    assert j["totals"]["elements"] < s["totals"]["elements"]
    assert j["memory_high_water"]["overall"] > s["memory_high_water"]["overall"]


def test_solomonik_depth_tradeoff():
    """Depth cuts rounds and per-processor copy traffic; replication raises
    resident volume and reduction fan-in; total copy volume stays flat."""
    steps, copy_el, per_proc, reduce_el, resident = [], [], [], [], []
    for gz in (1, 2, 4):
        bundle = solomonik(4, 4, gz, dims=(8, 8, 8))
        result = run_and_check(bundle)
        stats = result.trace.stats()
        procs = list(bundle.machine.enumerate())
        steps.append(stats["num_steps"])
        copy_el.append(stats["totals"]["copy_elements"])
        per_proc.append(stats["totals"]["copy_elements"] // len(procs))
        reduce_el.append(stats["totals"]["reduce_elements"])
        resident.append(sum(result.store.persistent_volume(p) for p in procs))
    assert steps == [4, 2, 1]
    assert copy_el == [384, 384, 384]
    assert per_proc == [24, 12, 6]
    assert reduce_el == [0, 64, 192]
    assert resident == [192, 320, 576]


def test_cosma_factors_reproduce_broadcast_traffic():
    """With square dims, the parallel/sequential factoring moves exactly the
    block volumes of the stationary-output broadcast schedule."""
    co = run_and_check(cosma_like(2, 2, 1, chunk=2, dims=(4, 4, 4))).trace.stats()
    su = run_and_check(summa(2, 2, dims=(4, 4, 4), chunk=2)).trace.stats()
    assert co["totals"]["elements"] == su["totals"]["elements"] == 32
    assert ([s["elements"] for s in co["per_step"]]
            == [s["elements"] for s in su["per_step"]] == [24, 8])
    # coarser rects, fewer sends
    assert co["totals"]["messages"] != su["totals"]["messages"]


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


@pytest.mark.parametrize("gx, gy, k, n", [(4, 2, 2, 16), (2, 2, 3, 12), (4, 4, 2, 16)])
def test_summa_hier_takes_its_grid(gx, gy, k, n):
    # on evenly divided extents a gx x gy / k machine moves what flat summa
    # on (gx * k) x gy moves
    hier = run_and_check(summa_hier(gx, gy, k, dims=(n, n, n))).trace
    assert hier.machine == make_machine([(gx, gy), (k,)])
    flat = run_and_check(summa(gx * k, gy, dims=(n, n, n))).trace
    assert hier.stats()["totals"] == flat.stats()["totals"]
    built = bundle_from_config("summa-hier", make_machine([(gx, gy), (k,)]), (n, n, n))
    assert built.run(seed=0)[0].trace.events == hier.events


def test_registry_rows_name_their_default_machine():
    for name, row in REGISTRY.items():
        assert str(bundle_from_config(name).machine) == row.default_machine


def test_registry_rows_count_their_statements_extents():
    # a row's extents and chunked are read off its builder's signature
    for name, row in REGISTRY.items():
        assert row.extents == len(bundle_from_config(name).statement.extents)
    assert [n for n, row in REGISTRY.items() if row.chunked] == [
        "summa", "cosma-like", "summa-hier"]


def test_builders_take_dims_in_the_statements_index_order():
    # the order --dims uses for --kernel and --expr runs: ttm's l comes before k
    for name, row in REGISTRY.items():
        dims = (5, 6, 7, 8)[:row.extents]
        stmt = bundle_from_config(name, dims=dims).statement
        assert tuple(stmt.extents[v] for v in stmt.var_order) == dims, name


def test_ttv_and_ttm_are_communication_free():
    for bundle in (ttv(2), ttm(2)):
        trace = run_and_check(bundle).trace
        assert trace.stats()["phases"]["compute"]["messages"] == 0


def test_innerprod_fan_in():
    trace = run_and_check(innerprod(4, dims=(8, 6))).trace
    reduces = [e for e in trace.events if e.kind == "reduce"]
    assert len(reduces) == 3
    assert all(e.dst == (0,) and e.elements == 1 for e in reduces)
    assert [e for e in trace.events if e.kind == "copy" and e.phase == "compute"] == []


def test_mttkrp_keeps_big_tensor_stationary():
    trace = run_and_check(mttkrp(2, 2)).trace
    assert [e for e in trace.events if e.tensor == "B" and e.phase == "compute"] == []
    reduces = [e for e in trace.events if e.kind == "reduce"]
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
    with pytest.raises(BadGrid):
        cosma_like(2, 2, 0)
    with pytest.raises(ConfigError, match="needs a positive chunk, got 0"):
        bundle_from_config("cosma-like", chunk=0)
    # the registry wrapper checks the bound arguments, keywords included,
    # before a builder's own shape checks run
    with pytest.raises(BadGrid):
        solomonik(2, 2, 0)  # not a ZeroDivisionError from the depth check
    with pytest.raises(BadGrid):
        summa_hier(gx=0)
    with pytest.raises(BadGrid):
        cannon(-1, -2)  # non-positive before non-square
    with pytest.raises(ConfigError, match="johnson takes 3 extents, got 2"):
        johnson(2, 2, 2, dims=(4, 4))
    with pytest.raises(ConfigError, match="ttv takes 3 extents, got 4"):
        bundle_from_config("ttv", dims=(2, 2, 2, 2))


@pytest.mark.parametrize("build", [
    lambda chunk: summa(2, 2, chunk=chunk),
    lambda chunk: summa_hier(chunk=chunk),
    lambda chunk: cosma_like(2, 2, 1, chunk=chunk),
], ids=["summa", "summa-hier", "cosma-like"])
@pytest.mark.parametrize("chunk", (0, -3))
def test_builders_refuse_a_nonpositive_chunk(build, chunk):
    # refused when the bundle is built, not when its schedule is applied
    with pytest.raises(ConfigError, match=f"needs a positive chunk, got {chunk}"):
        build(chunk)


def test_bundles_state_their_kernel_table_entry():
    # one table of statement texts serves the builders and --kernel
    gemm_renamed = {"solomonik", "cosma-like"}  # C, A, B renamed A, B, C
    for name in REGISTRY:
        text = format_statement(bundle_from_config(name).statement)
        if name in gemm_renamed:
            assert text == "A(i, j) = B(i, k) * C(k, j)"
        else:
            assert text == KERNELS[name if name in KERNELS else "gemm"]


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
    # only summa, cosma-like and summa-hier take a chunk
    assert bundle_from_config("summa-hier", chunk=2).name == "summa-hier"
    for name in ("cannon", "pumma", "johnson", "solomonik",
                 "ttv", "ttm", "innerprod", "mttkrp"):
        assert bundle_from_config(name, chunk=1).name == name
        for chunk in (0, 4):
            with pytest.raises(ConfigError):
                bundle_from_config(name, chunk=chunk)
    assert (bundle_from_config("summa-hier").machine
            == make_machine([(2, 2), (2,)]))


def test_bundle_inputs_and_runs():
    bundle = summa(2, 2, dims=(4, 4, 4))
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
