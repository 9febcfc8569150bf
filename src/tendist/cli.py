"""Command line front end.

Two ways to run: a registry algorithm (--algorithm summa) or a custom
statement (--kernel gemm / --expr "C(i, j) = A(i, k) * B(k, j)" plus
--machine, --dist per tensor, and a --schedule script). Runs write a stats
JSON; --verify checks the result against the single-memory reference.

Exit codes: 0 success, 1 verification failure, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import sys

from .algorithms import ALGORITHMS, bundle_from_config, dim_count, random_inputs
from .cin import lower_to_cin, pretty
from .distribution import TensorDistribution, lower_placement, parse_distribution
from .errors import ConfigError, TendistError, VerifyFail
from .ir import format_statement, parse_statement
from .machine import parse_machine
from .scheduling import parse_schedule
from .simulator import run_statement, verify_result, write_edge_csv

KERNELS = {
    "gemm": "C(i, j) = A(i, k) * B(k, j)",
    "ttv": "A(i, j) = B(i, j, k) * c(k)",
    "ttm": "Y(i, j, l) = B(i, j, k) * C(k, l)",
    "innerprod": "a = A(i, j) * B(i, j)",
    "mttkrp": "A(i, j) = B(i, k, l) * C(k, j) * D(l, j)",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tendist",
        description="compile and deterministically simulate distributed "
                    "dense tensor statements")
    src = p.add_argument_group("what to run")
    src.add_argument("--algorithm", choices=ALGORITHMS,
                     help="run a bundled algorithm")
    src.add_argument("--kernel", choices=sorted(KERNELS),
                     help="use a named statement shape")
    src.add_argument("--expr", help="custom statement, e.g. "
                     "'C(i, j) = A(i, k) * B(k, j)'")
    shape = p.add_argument_group("problem shape")
    shape.add_argument("--n", type=int, help="set every index extent to N")
    shape.add_argument("--dims", help="per-index extents like 8x4x6, "
                       "applied in index order")
    shape.add_argument("--chunk", type=int, default=1,
                       help="sequential chunk/round factor (default 1)")
    shape.add_argument("--seed", type=int, default=0,
                       help="seed for the generated integer inputs")
    setup = p.add_argument_group("placement and schedule")
    setup.add_argument("--machine", help="machine like 3x3 or 2x2/4")
    setup.add_argument("--dist", action="append", default=[],
                       metavar="SPEC", help="tensor placement like "
                       "'A: xy -> xy*' (repeat per tensor)")
    setup.add_argument("--schedule", help="schedule script: a file path, or "
                       "inline commands separated by ';'")
    out = p.add_argument_group("outputs")
    out.add_argument("--verify", action="store_true",
                     help="compare against the sequential reference")
    out.add_argument("--stats", default="stats.json",
                     help="stats JSON path (default stats.json)")
    out.add_argument("--dump-trace", action="store_true",
                     help="print every recorded transfer")
    out.add_argument("--edges-csv", metavar="PATH",
                     help="write the per-edge aggregate as CSV")
    out.add_argument("--explain", action="store_true",
                     help="print placements and the statement after each "
                          "schedule command instead of running")
    return p


def _dims(text: str) -> tuple:
    try:
        return tuple(int(d) for d in text.split("x"))
    except ValueError:
        raise ConfigError(f"--dims wants extents like 8x4x6, got {text!r}") from None


def _statement_text(args) -> str:
    if args.expr:
        return args.expr
    if args.kernel:
        return KERNELS[args.kernel]
    raise ConfigError("nothing to run: pass --algorithm, --kernel, or --expr")


def _index_names(text: str) -> list:
    names: list = []
    for group in re.findall(r"\(([^)]*)\)", text):
        for v in group.split(","):
            v = v.strip()
            if v and v not in names:
                names.append(v)
    return names


def _extents(args, text: str) -> dict:
    names = _index_names(text)
    if args.dims:
        sizes = _dims(args.dims)
        if len(sizes) != len(names):
            raise ConfigError(
                f"--dims lists {len(sizes)} extents for indices {names}")
        return dict(zip(names, sizes))
    n = args.n if args.n is not None else 8
    return {v: n for v in names}


def _load_schedule(arg: str):
    if os.path.exists(arg):
        with open(arg) as fh:
            return parse_schedule(fh.read())
    return parse_schedule(arg.replace(";", "\n"))


def _parse_dists(args, stmt, machine) -> dict:
    out = {}
    tensors = stmt.tensors()
    for spec in args.dist:
        name, levels = parse_distribution(spec)
        if name not in tensors:
            raise ConfigError(f"--dist names {name}, statement uses {sorted(tensors)}")
        out[name] = TensorDistribution(tensors[name].dims, machine, levels)
    missing = sorted(set(tensors) - set(out))
    if missing:
        raise ConfigError(f"missing --dist for {', '.join(missing)}")
    return out


def _explain(args) -> int:
    text = _statement_text(args)
    stmt = parse_statement(text, _extents(args, text))
    print(f"statement: {format_statement(stmt)}")
    cin = lower_to_cin(stmt)
    print(f"loops:     {pretty(cin)}")
    if args.machine and args.dist:
        machine = parse_machine(args.machine)
        dists = _parse_dists(args, stmt, machine)
        tensors = stmt.tensors()
        for name in sorted(dists):
            print(f"placement {name}: {dists[name].describe()}")
            print(f"  {pretty(lower_placement(tensors[name], dists[name]))}")
    if args.schedule:
        for desc, staged in _load_schedule(args.schedule).steps(cin):
            print(f"after {desc}:")
            print(f"  {pretty(staged)}")
    return 0


def _print_trace(trace) -> None:
    for e in trace.events:
        print(f"step {e.timestep} {e.phase} {e.kind} {e.tensor} {e.rect}: "
              f"{e.src} -> {e.dst} ({e.elements} elements)")


def _finish(args, result, stmt, inputs, config) -> int:
    trace = result.trace
    if args.dump_trace:
        _print_trace(trace)
    stats = trace.stats(config)
    stats["generated_at"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
    if args.edges_csv:
        write_edge_csv(trace, args.edges_csv)
    t = stats["totals"]
    print(f"machine {stats['machine']}: {t['messages']} messages, "
          f"{t['elements']} elements moved, {stats['num_steps']} steps, "
          f"memory high-water {stats['memory_high_water']['overall']}")
    if args.verify:
        verify_result(stmt, inputs, result)
        print("verify: OK")
    return 0


def _run_algorithm(args) -> int:
    machine = parse_machine(args.machine) if args.machine else None
    dims = None
    if args.dims:
        dims = _dims(args.dims)
    elif args.n is not None:
        dims = (args.n,) * dim_count(args.algorithm)
    bundle = bundle_from_config(args.algorithm, machine, dims, args.chunk)
    inputs = random_inputs(bundle.statement, args.seed)
    result, _ = bundle.run(inputs=inputs)
    config = {
        "algorithm": bundle.name,
        "machine": str(bundle.machine),
        "statement": format_statement(bundle.statement),
        "extents": dict(bundle.statement.extents),
        "chunk": args.chunk,
        "seed": args.seed,
    }
    return _finish(args, result, bundle.statement, inputs, config)


def _run_custom(args) -> int:
    text = _statement_text(args)
    stmt = parse_statement(text, _extents(args, text))
    if not args.machine:
        raise ConfigError("custom runs need --machine")
    if not args.schedule:
        raise ConfigError("custom runs need --schedule to distribute loops")
    machine = parse_machine(args.machine)
    dists = _parse_dists(args, stmt, machine)
    sched = _load_schedule(args.schedule)
    inputs = random_inputs(stmt, args.seed)
    result = run_statement(stmt, machine, dists, inputs, sched)
    config = {
        "machine": str(machine),
        "statement": format_statement(stmt),
        "extents": dict(stmt.extents),
        "seed": args.seed,
        "distributions": {n: d.describe() for n, d in sorted(dists.items())},
    }
    return _finish(args, result, stmt, inputs, config)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.explain:
            if args.algorithm:
                raise ConfigError("--explain works with --kernel/--expr runs")
            return _explain(args)
        if args.algorithm:
            return _run_algorithm(args)
        return _run_custom(args)
    except VerifyFail as exc:
        print(f"verify: FAIL ({exc})", file=sys.stderr)
        return 1
    except TendistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
