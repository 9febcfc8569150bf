"""End-to-end acceptance checks, one per shipped guarantee.

Each test covers one user-facing promise of the package and finishes with a
single printed pass line, so a verbose run reads as a checklist.
"""

import itertools
import random

import numpy as np

from tendist import (
    HyperRect,
    TensorDistribution,
    bundle_from_config,
    grid,
    lower_to_cin,
    parse_statement,
    random_inputs,
    sequential_evaluate,
)
from tendist.cin import interpret
from tendist.cli import main
from tendist.errors import ConfigError, NotContiguousNest
from tendist.scheduling import divide, reorder, rotate, split


def test_criterion_01_partition_and_placement_maps():
    """A 2x2 tensor on a 2x2x2 machine with the last dim broadcast: the
    partition sends each coordinate to its own color, and each color lands
    on the two processors that share that face position."""
    machine = grid(2, 2, 2)
    dist = TensorDistribution((2, 2), machine, [(("x", "y"), ("x", "y", "*"))])
    # the colors each coordinate's unit rect meets
    partition = {pt: [c for c, _, _ in dist.parts(HyperRect(pt, (pt[0] + 1, pt[1] + 1)))]
                 for pt in itertools.product(range(2), range(2))}
    assert partition == {(0, 0): [(0, 0)], (0, 1): [(0, 1)],
                         (1, 0): [(1, 0)], (1, 1): [(1, 1)]}
    placement = {c: set(holders) for c, _, holders in dist.pieces}
    assert placement == {
        (0, 0): {(0, 0, 0), (0, 0, 1)},
        (0, 1): {(0, 1, 0), (0, 1, 1)},
        (1, 0): {(1, 0, 0), (1, 0, 1)},
        (1, 1): {(1, 1, 0), (1, 1, 1)},
    }
    print("criterion 01 partition and placement maps: PASS")


def test_criterion_02_schedules_preserve_semantics():
    """1000 random command chains never change the computed values."""
    statements = [
        parse_statement("C(i, j) = A(i, k) * B(k, j)",
                        {"i": 4, "j": 5, "k": 6}),
        parse_statement("A(i, j) = B(i, j, k) * c(k)",
                        {"i": 3, "j": 4, "k": 5}),
        parse_statement("Y(i, j, l) = B(i, j, k) * C(k, l)",
                        {"i": 3, "j": 2, "k": 4, "l": 3}),
    ]
    rng = random.Random(20260819)
    checked = 0
    for round_ in range(334):
        for stmt in statements:
            ins = random_inputs(stmt, seed=round_)
            baseline = interpret(lower_to_cin(stmt), ins)[stmt.lhs.tensor.name]
            cin = lower_to_cin(stmt)
            fresh = itertools.count()
            for _ in range(rng.randint(1, 5)):
                names = [f.var for f in cin.loops]
                kind = rng.choice(["split", "divide", "reorder", "rotate"])
                try:
                    if kind == "split":
                        n = next(fresh)
                        cin = split(cin, rng.choice(names),
                                    f"s{n}o", f"s{n}i", rng.randint(1, 3))
                    elif kind == "divide":
                        n = next(fresh)
                        cin = divide(cin, rng.choice(names),
                                     f"d{n}o", f"d{n}i", rng.randint(1, 3))
                    elif kind == "reorder":
                        if len(names) < 2:
                            continue
                        take = rng.randint(2, min(3, len(names)))
                        at = rng.randrange(len(names) - take + 1)
                        win = names[at:at + take]
                        rng.shuffle(win)
                        cin = reorder(cin, win)
                    else:
                        if len(names) < 2:
                            continue
                        at = rng.randrange(1, len(names))
                        n = next(fresh)
                        over = tuple(rng.sample(names[:at],
                                                rng.randint(1, min(2, at))))
                        cin = rotate(cin, names[at], over, f"r{n}")
                except (NotContiguousNest, ConfigError):
                    continue
            got = interpret(cin, ins)[stmt.lhs.tensor.name]
            assert np.array_equal(baseline.data, got.data)
            checked += 1
    assert checked == 1002
    print(f"criterion 02 schedules preserve semantics ({checked} chains): PASS")


def test_criterion_03_bundles_match_the_reference():
    """Every shipped algorithm reproduces the sequential answer bit for bit,
    on block-divisible and on ragged extents."""
    bundles = [
        bundle_from_config("summa", grid(2, 2), (8, 8, 8), 2),
        bundle_from_config("summa", grid(2, 2), (5, 7, 6), 2),
        bundle_from_config("cannon", grid(2, 2), (8, 8, 8)),
        bundle_from_config("cannon", grid(3, 3), (7, 7, 5)),
        bundle_from_config("pumma", grid(2, 2), (8, 8, 8)),
        bundle_from_config("pumma", grid(2, 2), (5, 5, 3)),
        bundle_from_config("johnson", grid(2, 2, 2), (8, 8, 8)),
        bundle_from_config("johnson", grid(2, 2, 2), (7, 5, 3)),
        bundle_from_config("solomonik", grid(2, 2, 2), (8, 8, 8)),
        bundle_from_config("solomonik", grid(2, 2, 2), (5, 7, 9)),
        bundle_from_config("cosma-like", grid(2, 2, 1), (8, 8, 8), 2),
        bundle_from_config("cosma-like", grid(2, 2, 1), (5, 4, 7), 2),
        bundle_from_config("summa-hier", dims=(8, 8, 8), chunk=2),
        bundle_from_config("summa-hier", dims=(7, 6, 5), chunk=3),
        bundle_from_config("ttv", grid(2)), bundle_from_config("ttv", grid(3), (7, 5, 4)),
        bundle_from_config("ttm", grid(2)), bundle_from_config("ttm", grid(3), (5, 4, 3, 7)),
        bundle_from_config("innerprod", grid(2)),
        bundle_from_config("innerprod", grid(3), (7, 5)),
        bundle_from_config("mttkrp", grid(2, 2)),
        bundle_from_config("mttkrp", grid(2, 2), (5, 3, 7, 2)),
    ]
    for bundle in bundles:
        result, inputs = bundle.run(seed=13)
        want = sequential_evaluate(bundle.statement, inputs)
        assert np.array_equal(result.output.data, want.data), bundle.name
    print(f"criterion 03 bundle outputs equal the reference "
          f"({len(bundles)} runs): PASS")


def test_criterion_04_systolic_neighbor_pattern():
    """After the skew, both operands travel only between fixed neighbors,
    one outbound transfer per operand per processor per step."""
    result, _ = bundle_from_config("cannon", grid(3, 3), (6, 6, 6)).run()
    copies = [e for e in result.trace.events if e.kind == "copy"]
    steady = [e for e in copies if e.timestep > 0]
    assert steady
    for e in steady:
        di, dj = e.dst
        if e.tensor == "A":
            assert e.src == (di, (dj + 1) % 3)
        else:
            assert e.tensor == "B"
            assert e.src == ((di + 1) % 3, dj)
    out_degree = {}
    for e in copies:
        out_degree.setdefault((e.tensor, e.timestep, e.src), set()).add(e.dst)
    assert max(len(v) for v in out_degree.values()) == 1
    assert result.trace.stats()["totals"]["reduce_messages"] == 0
    print("criterion 04 systolic neighbor pattern: PASS")


def _broadcast_copy_oracle(g, n, chunk):
    """Count transfers for the stationary-output schedule by brute force:
    one fetch per missing owner block of the row panel, plus one fetch per
    non-local reduction slab per step."""
    block = n // g
    steps = -(-n // chunk)
    events = 0
    for r in range(g):
        for c in range(g):
            events += sum(1 for cc in range(g) if cc != c)
            for s in range(steps):
                if (s * chunk) // block != r:
                    events += 1
    return events


def test_criterion_05_broadcast_counts():
    """Copy count matches an independent brute-force count, and each owner
    of a reduction slab sends to exactly one peer per step on a 2x2 grid."""
    result, _ = bundle_from_config("summa", grid(2, 2), (4, 4, 4), 2).run()
    trace = result.trace
    stats = trace.stats()
    assert stats["totals"]["copy_messages"] == _broadcast_copy_oracle(2, 4, 2) == 8
    for s in range(stats["num_steps"]):
        per_owner = {}
        for e in [e for e in trace.events if e.tensor == "B" and e.timestep == s]:
            per_owner.setdefault(e.src, set()).add(e.dst)
        assert per_owner and all(len(v) == 1 for v in per_owner.values())
    print("criterion 05 broadcast transfer counts: PASS")


def test_criterion_06_cube_reduction_shape():
    """On the 2-deep cube every output tile receives exactly one partial,
    and the finished output lives only on the front face."""
    result, _ = bundle_from_config("johnson", grid(2, 2, 2), (8, 8, 8)).run()
    fan_in = {}
    for e in [e for e in result.trace.events if e.kind == "reduce"]:
        assert e.dst[2] == 0
        fan_in[e.dst] = fan_in.get(e.dst, 0) + 1
    assert sorted(fan_in) == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    assert set(fan_in.values()) == {1}
    residency = result.store["C"].residency
    for proc, rects in residency.items():
        if proc[2] != 0:
            assert rects == []
    held = [p for p, rects in residency.items() if rects]
    assert held == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    print("criterion 06 cube reduction lands on the front face: PASS")


def test_criterion_07_memory_for_communication_tradeoff():
    """Same eight processors, same matrices: the cube variant moves fewer
    elements but holds more per processor."""
    flat = bundle_from_config("summa", grid(2, 4), (8, 8, 8)).run()[0].trace.stats()
    cube = bundle_from_config("johnson", grid(2, 2, 2), (8, 8, 8)).run()[0].trace.stats()
    elements = [st["totals"]["elements"] for st in (cube, flat)]
    memory = [st["memory_high_water"]["overall"] for st in (cube, flat)]
    assert elements[0] < elements[1]
    assert memory[0] > memory[1]
    print(f"criterion 07 tradeoff direction (elements {elements[0]}"
          f"<{elements[1]}, memory {memory[0]}>{memory[1]}): PASS")


def test_criterion_08_communication_free_kernels():
    """Row layouts with replicated small operands run with zero transfers."""
    for bundle in (bundle_from_config("ttv", grid(2)), bundle_from_config("ttm", grid(2))):
        result, inputs = bundle.run(seed=2)
        assert result.trace.stats()["phases"]["compute"]["messages"] == 0
        want = sequential_evaluate(bundle.statement, inputs)
        assert np.array_equal(result.output.data, want.data)
    print("criterion 08 communication-free kernels: PASS")


def test_criterion_09_schedule_changes_edges_not_values():
    """The shifted and the broadcast schedules move data along different
    edges yet produce identical outputs from identical inputs."""
    shifted = bundle_from_config("cannon", grid(2, 2), (4, 4, 4))
    broadcast = bundle_from_config("summa", grid(2, 2), (4, 4, 4), 2)
    inputs = random_inputs(shifted.statement, seed=21)
    a, _ = shifted.run(inputs)
    b, _ = broadcast.run(inputs)
    assert np.array_equal(a.output.data, b.output.data)

    def edges(trace):
        return {(e.tensor, e.timestep, e.src, e.dst) for e in trace.events}

    assert edges(a.trace) != edges(b.trace)
    print("criterion 09 edges differ, values agree: PASS")


def test_criterion_10_placement_lowering_golden(capsys):
    """The explain view prints the canonical loop form of a row placement."""
    code = main(["--expr", "S(x, y) = T(x, y) + 0", "--n", "4",
                 "--machine", "2",
                 "--dist", "S: xy -> x", "--dist", "T: xy -> x",
                 "--explain"])
    out = capsys.readouterr().out
    assert code == 0
    want = ("forall(xo) forall(xi) forall(y) T(x, y) "
            "s.t. divide(x, xo, xi, 2), distribute(xo), communicate(T, xo)")
    assert "".join(want.split()) in "".join(out.split())
    print("criterion 10 placement lowering golden: PASS")
