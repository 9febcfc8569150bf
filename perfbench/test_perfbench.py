"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import dataclasses
import shutil
import subprocess
import sys

import pytest

import bench_core
import run
from bench_trace import Tracer

WL = bench_core.WORKLOADS["cannon-shift"]


@pytest.fixture(scope="module")
def tendist():
    return bench_core.import_tendist()


def _run(tendist, seed=0):
    bundle, inputs = bench_core.build(tendist, WL, seed)
    result, _ = bundle.run(inputs=inputs, workers=1)
    return bundle, inputs, result


def test_pinned_ledger_holds_for_every_seed(tendist):
    for seed in (0, 5):
        _, inputs, result = _run(tendist, seed)
        stats = result.trace.stats()
        assert bench_core.ledger_problems(WL, result.trace.events, stats) == []
        assert bench_core.value_problems(WL, inputs, result.output) == []


def test_digest_check_fails_on_a_dropped_event(tendist):
    _, _, result = _run(tendist)
    result.trace.events.pop(17)
    problems = bench_core.ledger_problems(WL, result.trace.events,
                                          result.trace.stats())
    assert any("digest" in p for p in problems)
    assert any(p.startswith("events 895") for p in problems)


def test_digest_check_fails_on_a_moved_source(tendist):
    _, _, result = _run(tendist)
    events = result.trace.events
    events[3] = dataclasses.replace(events[3], src=events[4].src)
    problems = bench_core.ledger_problems(WL, events, result.trace.stats())
    assert [p for p in problems if "digest" in p]


def test_value_check_fails_on_a_wrong_element(tendist):
    _, inputs, result = _run(tendist)
    result.output.data[1, 2] += 1.0
    assert bench_core.value_problems(WL, inputs, result.output)


def test_untraced_iterations_after_a_traced_run_call_the_originals(tendist):
    bundle, inputs = bench_core.build(tendist, WL, 0)
    originals = (tendist.simulator.interpret, tendist.cin.interpret,
                 tendist.distribution.HyperRect.intersect)
    tracer = Tracer()
    tracer.install(tendist)
    try:
        assert tendist.simulator.interpret is not originals[0]
        tracer.iteration = 0
        sample = bench_core.iteration(tendist, WL, bundle, inputs, span=tracer.span)
    finally:
        tracer.restore()
    assert sample.problems == []
    assert tracer.counts["distribution.intersect_calls"] > 0
    assert {s[0] for s in tracer.spans} >= {"simulator.execute", "cin.interpret"}
    assert tracer.restored()
    assert (tendist.simulator.interpret, tendist.cin.interpret,
            tendist.distribution.HyperRect.intersect) == originals
    spans, counts = len(tracer.spans), dict(tracer.counts)
    assert bench_core.iteration(tendist, WL, bundle, inputs).problems == []
    assert len(tracer.spans) == spans and dict(tracer.counts) == counts


def _traced_counts(tendist, seed):
    tracer = Tracer()
    tracer.install(tendist)
    try:
        bundle, inputs = bench_core.build(tendist, WL, seed)
        tracer.iteration = 0
        tracer.counts.clear()
        sample = bench_core.iteration(tendist, WL, bundle, inputs, span=tracer.span)
    finally:
        tracer.restore()
    layers = run._layer_sample(tracer, 0, sample, 1)
    return {k: v for k, v in layers.items() if run.unit_of(k) == "count"}


def test_same_seed_gives_identical_counts(tendist):
    first = _traced_counts(tendist, 3)
    assert first["distribution.intersect_calls"] == 63136
    assert first == _traced_counts(tendist, 3)


def test_failed_iterations_are_counted():
    ops = run.Ops()

    def boom():
        raise RuntimeError("simulated failure")

    assert ops.run(boom) is None
    assert (ops.attempted, ops.failed) == (1, 1)


def test_host_scale_rescales_by_the_fastest_calibration_pass():
    ops = run.Ops()
    ops.calibration = [2 * bench_core.CAL_NOMINAL_S, 4 * bench_core.CAL_NOMINAL_S]
    assert ops.host_scale() == 0.5
    assert 0 < bench_core.calibrate() < 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(bench_core.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WL.name, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
