"""Run the tendist benchmark.

    python3 perfbench/run.py --workload summa-wide --seed 1 --seconds 36 --trace 0

One client, closed loop: a single thread runs one simulation at a time
(workers=1). Every iteration is checked against a numpy reference,
verify_result and the pinned ledger digest. --trace 0 reports the
end-to-end metrics (host time); --trace 1 wraps tendist's public functions
and reports per-layer metrics instead. Without --workload every workload
runs, each in its own process.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The full result, with provenance and (when
traced) every span, is written under perfbench/out/. Exit status is 0 when
every iteration was correct and 1 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import bench_core
from bench_core import BENCH_DIR, REPO_ROOT, WORKLOADS, quartiles
from bench_trace import Tracer, layer_times

SETUP_PROBES = 9   # fresh processes timed per run; setup_s is their median
MIN_SAMPLES = 3    # timed iterations per phase, however long they take

# Every timed iteration does identical work (same inputs, same ledger, a
# gc.collect() first), so the spread between iterations is interference
# from the host, which only ever adds time. These metrics report the
# fastest iteration, rescaled to the nominal host speed by the run's
# fastest calibration pass (bench_core.calibrate). On a shared 2-vCPU host,
# ten cannon-shift runs gave a quartile spread of 0.21 (run_s) and 0.25
# (verify_s) for the run median and 0.07 for the fastest iteration; over
# 30-second windows of summa-wide the fastest iteration spread 0.053 and
# the rescaled one 0.011. Raw fastest, medians and quartiles are still
# printed and written out.
FASTEST = ("run_s", "verify_s")

UNITS = {
    "run_s": "s", "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "cin.interpret_calls": "count", "cin.points": "count",
    "cin.points_per_s": "1/s", "distribution.intersect_hit_ratio": "ratio",
    "simulator.replay_share": "ratio", "simulator.numeric_share": "ratio",
    "simulator.events": "count", "simulator.elements": "count",
    "simulator.steps": "count", "simulator.high_water": "count",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith("_calls") else "s"


class Ops:
    """Attempted and failed iterations; a failure's reasons go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cpus = os.sched_getaffinity(0)
        self.calibration = []  # fastest calibration pass before each iteration

    def host_scale(self) -> float:
        """Nominal over measured host speed: multiplies a measured time."""
        return bench_core.CAL_NOMINAL_S / min(self.calibration)

    def run(self, fn):
        self.attempted += 1
        bench_core.pin_quietest_cpu(self.cpus)
        self.calibration.append(bench_core.calibrate())
        try:
            sample = fn()
        except Exception as exc:  # any error in the program is a failed op
            self.failed += 1
            print(f"iteration {self.attempted}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None
        if sample.problems:
            self.failed += 1
            for p in sample.problems:
                print(f"iteration {self.attempted}: {p}", file=sys.stderr)
        return sample


def timed_phase(ops: Ops, fn, seconds: float) -> list:
    """Run fn until `seconds` have passed and MIN_SAMPLES were attempted."""
    samples = []
    start = time.perf_counter()
    attempts = 0
    while attempts < MIN_SAMPLES or time.perf_counter() - start < seconds:
        attempts += 1
        sample = ops.run(fn)
        if sample is not None:
            samples.append(sample)
    return samples


def setup_times(wl, seed: int, count: int, cpus: set) -> list:
    """Set-up seconds of `count` fresh processes: import, bundle, inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), wl.name, str(seed)]
    out = []
    for _ in range(count):
        bench_core.pin_quietest_cpu(cpus)  # the child inherits the pin
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def measure(tendist, wl, seed: int, seconds: float):
    ops = Ops()
    setup_times(wl, seed, 1, ops.cpus)  # the first also writes bytecode caches
    # probes run half before and half after the timed iterations, so the
    # median spans the run's window without disturbing any iteration
    setup = setup_times(wl, seed, SETUP_PROBES // 2, ops.cpus)
    bundle, inputs = bench_core.build(tendist, wl, seed)

    def once():
        return bench_core.iteration(tendist, wl, bundle, inputs)

    ops.run(once)  # warm-up: checked, not timed
    samples = timed_phase(ops, once, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += setup_times(wl, seed, SETUP_PROBES - len(setup), ops.cpus)
    series = {
        "run_s": [s.run_s for s in samples],
        "verify_s": [s.verify_s for s in samples],
        "setup_s": setup,
        "peak_rss_mb": [rss_mb],
    }
    return ops, series, {}


def measure_traced(tendist, wl, seed: int, seconds: float):
    """Traced iterations, then untraced ones with the originals restored."""
    ops = Ops()
    tracer = Tracer()
    tracer.install(tendist)
    traced = []  # per-layer values of each traced iteration
    ids = itertools.count()
    try:
        bundle, inputs = bench_core.build(tendist, wl, seed)
        points = math.prod(bundle.statement.extents.values())

        def once_traced():
            tracer.iteration = i = next(ids)
            tracer.counts.clear()
            sample = bench_core.iteration(tendist, wl, bundle, inputs,
                                          span=tracer.span)
            traced.append(_layer_sample(tracer, i, sample, points))
            return sample

        ops.run(once_traced)  # warm-up: checked, not timed
        traced.clear()
        timed_phase(ops, once_traced, seconds / 2)
    finally:
        tracer.restore()

    n_spans, n_counts = len(tracer.spans), sum(tracer.counts.values())

    def once_plain():
        sample = bench_core.iteration(tendist, wl, bundle, inputs)
        if not tracer.restored() or len(tracer.spans) != n_spans \
                or sum(tracer.counts.values()) != n_counts:
            sample.problems.append("a wrapper ran after restore()")
        return sample

    plain = timed_phase(ops, once_plain, seconds / 2)
    series = {name: [t[name] for t in traced] for name in traced[0]} if traced else {}
    setup_spans = {s[0]: s[2] - s[1] for s in tracer.spans if s[4] == "setup"}
    series["algorithms.bundle_s"] = [setup_spans["algorithms.bundle"]]
    series["algorithms.random_inputs_s"] = [setup_spans["algorithms.random_inputs"]]
    if traced and plain:
        series["trace.overhead_s"] = [
            statistics.median(series["trace.run_s"])
            - statistics.median(s.run_s for s in plain)]
    extra = {"spans": tracer.export(),
             "untraced_run_s": [s.run_s for s in plain]}
    return ops, series, extra


def _layer_sample(tracer, i, sample, points: int) -> dict:
    out = layer_times(tracer.spans, i)
    counts = tracer.counts
    calls = counts["distribution.intersect_calls"]
    out.update({
        "trace.run_s": sample.run_s,
        "simulator.replay_share": out["simulator.replay_s"] / sample.run_s,
        "simulator.numeric_share": out["simulator.numeric_s"] / sample.run_s,
        "cin.points": points,
        "cin.points_per_s": points / out["simulator.numeric_s"],
        "distribution.intersect_calls": calls,
        "distribution.intersect_hit_ratio":
            counts["distribution.intersect_hits"] / calls if calls else 0.0,
        "distribution.contains_calls": counts["distribution.contains_calls"],
        "distribution.piece_bounds_calls": counts["distribution.piece_bounds_calls"],
        "distribution.processors_of_calls":
            counts["distribution.processors_of_calls"],
    })
    out.update({f"simulator.{k}": v
                for k, v in bench_core.ledger_counts(sample.stats).items()})
    return out


def report(args, ops: Ops, series: dict, extra: dict) -> dict:
    summary = {}
    scale = ops.host_scale()
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        if name in FASTEST:
            value, stat = min(values) * scale, "fastest x host scale"
        else:
            value, stat = med, "median"
        summary[name] = {"value": value, "statistic": stat, "median": med,
                         "p25": q1, "p75": q3, "min": min(values),
                         "samples": len(values), "unit": unit_of(name)}
        also = (f"fastest {min(values):.6g}, median {med:.6g}, "
                if name in FASTEST else "")
        print(f"{args.workload:<13} {name:<34} {value:.6g} {unit_of(name)}"
              f"  ({stat} of {len(values)}; {also}p25 {q1:.6g}, p75 {q3:.6g})")
    print(f"{args.workload:<13} host scale {scale:.6g} (nominal "
          f"{bench_core.CAL_NOMINAL_S} s / fastest calibration pass "
          f"{min(ops.calibration):.6g} s)")
    prov = bench_core.provenance(args.seed, args.workload, args.trace)
    print("provenance " + json.dumps(prov, sort_keys=True))
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"provenance": prov, "summary": summary,
                                "samples": series, "host_scale": scale,
                                "calibration_s": ops.calibration, **extra},
                               indent=1))
    print(f"wrote {path.relative_to(REPO_ROOT)}")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": s["value"], "unit": s["unit"]}
                    for name, s in summary.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh process; their results merged by prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="one workload (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0,
                   help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    tendist = bench_core.import_tendist()
    wl = WORKLOADS[args.workload]
    measure_fn = measure_traced if args.trace else measure
    ops, series, extra = measure_fn(tendist, wl, args.seed, args.seconds)
    result = report(args, ops, series, extra)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
