"""Seeded fuzz of the distributed path: random runs through run_statement.

Each case draws extents, a machine, a role per machine dimension for every
tensor (partition, broadcast or fixed coordinate) and a schedule with random
communicate lines, then checks the values against the reference, the basic
shape of every event, and that a second run, whose piece lookups ignore the
launch-scope meet mask (`parts(rect, among)` scanning every color), records
byte-identical ledger rows and stats.
Three families: gemm blocked over flat and two-level machines with k split
into steps; gemm on a square grid with k rotated over the launch loops, as
in Cannon (io, jo) and PUMMA (io); and mttkrp with its reduction index k
distributed and l split into steps.
"""

import json
import random

import pytest

from tendist import (
    TensorDistribution,
    parse_machine,
    parse_schedule,
    parse_statement,
    random_inputs,
    run_statement,
    verify_result,
)
from tendist.algorithms import KERNELS

MACHINES = ("2x2", "3x2", "2x3", "1x3", "2x2/2")
CASES = 300


def _levels(rng, machine, names):
    """Per machine level, a random role per machine dim for a tensor whose
    dimensions are called `names`."""
    levels = []
    for extents in machine.levels:
        free = list(names)
        roles = []
        for ext in extents:
            roll = rng.random()
            if free and roll < 0.5:
                roles.append(free.pop(rng.randrange(len(free))))
            elif roll < 0.75:
                roles.append("*")
            else:
                roles.append(rng.randrange(ext))
        levels.append((tuple(names), tuple(roles)))
    return levels


def _dists(rng, stmt, machine) -> dict:
    return {name: TensorDistribution(t.dims, machine, _levels(rng, machine, "xyz"[:len(t.dims)]))
            for name, t in sorted(stmt.tensors().items())}


def _communicate(rng, names, scopes) -> list:
    """Communicate each tensor at one of `scopes`, None meaning nowhere."""
    at: dict = {}
    for name in names:
        var = rng.choice(scopes)
        if var is not None:
            at.setdefault(var, []).append(name)
    return [f"communicate {','.join(names)} {var}" for var, names in at.items()]


def _gemm(rng):
    m, n, kk = (rng.randint(1, 7) for _ in range(3))
    return parse_statement(KERNELS["gemm"], {"i": m, "j": n, "k": kk})


def _script(rng, machine, chunk) -> str:
    """Block i and j over the machine, split k into chunks, and communicate
    each tensor at the launch, per k step or nowhere."""
    if machine.num_levels == 1:
        gx, gy = machine.flat_dims
        lines = [f"divide i io ii {gx}", f"divide j jo ji {gy}", "reorder io jo ii ji",
                 "distribute io", "distribute jo", f"split k ko ki {chunk}",
                 "reorder ko ii ji"]
        launch = "jo"
    else:
        (gx, gy), (gk,) = machine.levels
        lines = [f"divide i io ii {gx}", f"divide j jo ji {gy}", "reorder io jo ii ji",
                 f"divide ii iio iii {gk}", "reorder io jo iio iii ji",
                 "distribute io", "distribute jo", "distribute iio",
                 f"split k ko ki {chunk}", "reorder ko iii ji"]
        launch = "iio"
    lines += _communicate(rng, "ABC", (launch, "ko", None))
    return "\n".join(lines)


def _case(seed):
    rng = random.Random(seed)
    machine = parse_machine(rng.choice(MACHINES))
    stmt = _gemm(rng)
    dists = _dists(rng, stmt, machine)
    return stmt, machine, dists, _script(rng, machine, rng.randint(1, 3))


def _rotate_case(seed):
    """Cannon's or PUMMA's shape: k divided into steps and each task's step
    skewed by its launch coordinates, on a square grid over ragged extents."""
    rng = random.Random(seed)
    g = rng.choice((2, 3))
    machine = parse_machine(f"{g}x{g}")
    stmt = _gemm(rng)
    dists = _dists(rng, stmt, machine)
    lines = [f"distribute i,j io,jo ii,ji {g}x{g}", f"divide k ko ki {rng.randint(1, g + 1)}",
             "reorder ko ii ji"]
    lines += _communicate(rng, "ABC", ("jo", "ko", None))
    lines.append(f"rotate ko {rng.choice(('io,jo', 'io'))} kos")
    return stmt, machine, dists, "\n".join(lines)


def _mttkrp_case(seed):
    """mttkrp over io and the reduction index's ko, l split into steps."""
    rng = random.Random(seed)
    machine = parse_machine(rng.choice(MACHINES[:4]))
    gi, gk = machine.flat_dims
    stmt = parse_statement(KERNELS["mttkrp"], {v: rng.randint(1, 5) for v in "ijkl"})
    dists = _dists(rng, stmt, machine)
    lines = [f"divide i io ii {gi}", f"divide k ko ki {gk}", "reorder io ko ii j ki l",
             "distribute io", "distribute ko", f"split l lo li {rng.randint(1, 3)}",
             "reorder lo ii j ki"]
    lines += _communicate(rng, "ABCD", ("ko", "lo", None))
    return stmt, machine, dists, "\n".join(lines)


def _check(seed, stmt, machine, dists, script) -> int:
    """Run the case with the launch-scope meet mask and again with every
    lookup scanning all colors; returns how many lookups of the first run
    the mask kept from some color."""
    parts, skipped = TensorDistribution.parts, [0]

    def masked(self, rect, among=None):
        skipped[0] += among is not None and not all(among)
        return parts(self, rect, among)

    def unmasked(self, rect, among=None):
        return parts(self, rect)

    inputs = random_inputs(stmt, seed)
    runs = []
    for lookup in (masked, unmasked):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TensorDistribution, "parts", lookup)
            runs.append(run_statement(stmt, machine, dists, inputs, parse_schedule(script)))
    result, again = runs
    verify_result(stmt, inputs, result)
    for e in result.trace.events:
        assert e.src != e.dst
        assert e.elements == e.rect.volume > 0
    for view in ("canonical_rows", "stats"):
        assert json.dumps(getattr(again.trace, view)()) == json.dumps(
            getattr(result.trace, view)()), (seed, script, view)
    return skipped[0]


@pytest.mark.parametrize("block", range(3))
def test_random_gemm_runs_verify_and_replay_the_same(block):
    seeds = range(block * CASES // 3, (block + 1) * CASES // 3)
    assert sum(_check(seed, *_case(seed)) for seed in seeds) > 0


def test_random_rotated_gemm_runs_verify_and_replay_the_same():
    assert sum(_check(seed, *_rotate_case(seed)) for seed in range(CASES // 2)) > 0


def test_random_mttkrp_runs_verify_and_replay_the_same():
    assert sum(_check(seed, *_mttkrp_case(seed)) for seed in range(CASES // 2)) > 0
