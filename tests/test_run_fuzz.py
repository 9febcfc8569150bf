"""Seeded fuzz of the distributed path: random gemm runs through run_statement.

Each case draws extents, a machine, a role per machine dimension for every
tensor (partition, broadcast or fixed coordinate), a chunk and the
communicate lines, then checks the values against the reference, the basic
shape of every event, and that a second run records the same events.
"""

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

MACHINES = ("2x2", "3x2", "2x3", "1x3", "2x2/2")
CASES = 300


def _levels(rng, machine):
    """Per machine level, a random role per machine dim for a matrix `xy`."""
    levels = []
    for extents in machine.levels:
        free = ["x", "y"]
        roles = []
        for ext in extents:
            roll = rng.random()
            if free and roll < 0.5:
                roles.append(free.pop(rng.randrange(len(free))))
            elif roll < 0.75:
                roles.append("*")
            else:
                roles.append(rng.randrange(ext))
        levels.append((("x", "y"), tuple(roles)))
    return levels


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
    at: dict = {}
    for name in ("A", "B", "C"):
        var = rng.choice((launch, "ko", None))
        if var is not None:
            at.setdefault(var, []).append(name)
    lines += [f"communicate {','.join(names)} {var}" for var, names in at.items()]
    return "\n".join(lines)


def _case(seed):
    rng = random.Random(seed)
    machine = parse_machine(rng.choice(MACHINES))
    m, n, kk = (rng.randint(1, 7) for _ in range(3))
    stmt = parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": m, "j": n, "k": kk})
    tensors = stmt.tensors()
    dists = {name: TensorDistribution(tensors[name].dims, machine, _levels(rng, machine))
             for name in ("A", "B", "C")}
    script = _script(rng, machine, rng.randint(1, 3))
    return stmt, machine, dists, script


@pytest.mark.parametrize("block", range(3))
def test_random_gemm_runs_verify_and_replay_the_same(block):
    for seed in range(block * CASES // 3, (block + 1) * CASES // 3):
        stmt, machine, dists, script = _case(seed)
        inputs = random_inputs(stmt, seed)
        result = run_statement(stmt, machine, dists, inputs, parse_schedule(script))
        verify_result(stmt, inputs, result)
        for e in result.trace.events:
            assert e.src != e.dst
            assert e.elements == e.rect.volume > 0
        again = run_statement(stmt, machine, dists, inputs, parse_schedule(script))
        assert again.trace.events == result.trace.events, (seed, script)
