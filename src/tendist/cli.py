"""Command line front end.

Each call names one run: a registry algorithm (--algorithm summa), which
brings its placements and schedule, or a custom statement (--kernel gemm /
--expr "C(i, j) = A(i, k) * B(k, j)") with --machine, --dist per tensor and
a --schedule script. Both are set up alike; --explain prints the setup
instead of running it: a complete run as the custom command that spells it,
then each placement and the statement after each schedule line. Runs write
a stats JSON, and with --output the result tensor as a .npy file; --verify
checks the result against the reference.

Exit codes: 0 success, 1 verification failure, 2 configuration errors
(unreadable or unwritable paths included), 141 a closed stdout (as SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

import numpy as np

from .algorithms import (
    ALGORITHMS,
    KERNELS,
    REGISTRY,
    bind_distributions,
    bundle_from_config,
    parse_sized,
    random_inputs,
)
from .cin import lower_to_cin, pretty
from .distribution import lower_placement
from .errors import ConfigError, TendistError, VerifyFail
from .ir import format_statement
from .machine import parse_machine
from .scheduling import Schedule, parse_schedule
from .simulator import run_statement, verify_result


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
    shape.add_argument("--dims", help="per-index extents like 8x4x6, in the "
                       "statement's var_order (lhs indices, then reduction "
                       "indices by first use), for --algorithm too "
                       "(ttm: i x j x l x k)")
    shape.add_argument("--chunk", type=int,
                       help="sequential chunk/round factor of the algorithms "
                       + ", ".join(n for n, r in REGISTRY.items() if r.chunked)
                       + " (default 1); a custom run splits in --schedule")
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
                     help="print every transfer as a JSON ledger row")
    out.add_argument("--output", metavar="PATH",
                     help="write the result tensor as .npy at exactly PATH "
                          "(read it with numpy.load)")
    out.add_argument("--explain", action="store_true",
                     help="instead of running, print the run as a command, "
                          "each tensor's placement and the statement after "
                          "each schedule line, for --algorithm too")
    return p


def _dims(text: str) -> tuple:
    try:
        return tuple(int(d) for d in text.split("x"))
    except ValueError:
        raise ConfigError(f"--dims wants extents like 8x4x6, got {text!r}") from None


def _load_schedule(arg: str):
    """A schedule script from the file at arg, else arg's own text."""
    if os.path.exists(arg):
        with open(arg) as fh:
            arg = fh.read()
    return parse_schedule(arg)


def _setup(args) -> tuple:
    """(statement, machine, distributions, schedule, label, config keys of
    its source) of the one run the command line names. A bundle brings its
    own; a custom statement takes --machine, --dist and --schedule, which
    --explain lets it leave out."""
    named = [f"--{k}" for k in ("algorithm", "kernel", "expr") if getattr(args, k) is not None]
    if len(named) != 1:
        raise ConfigError("pass one of --algorithm, --kernel and --expr, not "
                          + (" and ".join(named) or "none"))
    machine = parse_machine(args.machine) if args.machine is not None else None
    if args.algorithm:
        if args.dist or args.schedule is not None:
            raise ConfigError(f"{args.algorithm} carries its own placements and "
                              "schedule; --dist and --schedule are for custom runs")
        dims = None
        if args.dims is not None:
            dims = _dims(args.dims)
        elif args.n is not None:
            dims = (args.n,) * REGISTRY[args.algorithm].extents
        chunk = 1 if args.chunk is None else args.chunk
        b = bundle_from_config(args.algorithm, machine, dims, chunk)
        return (b.statement, b.machine, b.distributions, b.schedule, b.name,
                {"algorithm": b.name, "chunk": chunk})
    extents = _dims(args.dims) if args.dims is not None else (8 if args.n is None else args.n)
    stmt = parse_sized(KERNELS[args.kernel] if args.kernel else args.expr, extents)
    if machine is None and (args.dist or not args.explain):
        raise ConfigError("custom runs and --dist need --machine")
    if not (args.schedule or args.explain):
        raise ConfigError("custom runs need --schedule to distribute loops")
    dists = bind_distributions(stmt, machine, args.dist) if args.dist or not args.explain else {}
    sched = _load_schedule(args.schedule) if args.schedule else Schedule()
    return (stmt, machine, dists, sched, None,
            {"distributions": {n: d.describe() for n, d in sorted(dists.items())}})


def _explain(stmt, machine, dists, sched) -> None:
    if dists and sched.commands:  # _setup binds every tensor or none, on a machine
        dims = "x".join(str(stmt.extents[v]) for v in stmt.var_order)
        argv = ["tendist", "--expr", format_statement(stmt), "--dims", dims,
                "--machine", str(machine)]
        for name in sorted(dists):
            argv += ["--dist", f"{name}: {dists[name].describe()}"]
        argv += ["--schedule", "; ".join(line for line, _, _ in sched.commands)]
        print(f"command:   {shlex.join(argv)}")
    print(f"statement: {format_statement(stmt)}")
    cin = lower_to_cin(stmt)
    print(f"loops:     {pretty(cin)}")
    tensors = stmt.tensors()
    for name in sorted(dists):
        print(f"placement {name}: {dists[name].describe()}")
        print(f"  {pretty(lower_placement(tensors[name], dists[name]))}")
    for line, staged in sched.steps(cin):
        print(f"after {line}:")
        print(f"  {pretty(staged)}")


def _check_outputs(args) -> None:
    """Refuse, before the run, an output path its end could not write, and
    one file named by both outputs."""
    if args.stats and args.output and (
            os.path.realpath(args.stats) == os.path.realpath(args.output)):
        raise ConfigError(f"--stats and --output both name {args.output}")
    for flag, path in (("--stats", args.stats), ("--output", args.output)):
        if not path:
            continue
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise ConfigError(f"{flag} {path} is a directory")
        if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
            raise ConfigError(f"{flag} {path}: {folder} is not a writable directory")


def _run(args, stmt, machine, dists, sched, label, keys) -> None:
    inputs = random_inputs(stmt, args.seed)
    result = run_statement(stmt, machine, dists, inputs, sched, label=label)
    trace = result.trace
    if args.dump_trace:
        for row in trace.canonical_rows():
            print(json.dumps(row, separators=(",", ":")))
    stats = trace.stats({"machine": str(machine), "statement": format_statement(stmt),
                         "extents": dict(stmt.extents), "seed": args.seed, **keys})
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "wb") as fh:  # np.save on a path appends .npy
            np.save(fh, result.output.data)
    t = stats["totals"]
    print(f"machine {stats['machine']}: {t['messages']} messages, "
          f"{t['elements']} elements moved, {stats['num_steps']} steps, "
          f"memory high-water {stats['memory_high_water']['overall']}")
    if args.verify:
        verify_result(stmt, inputs, result)
        print("verify: OK")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.chunk is not None and not args.algorithm:
            raise ConfigError("--chunk is for --algorithm runs; a custom run's "
                              "chunks belong in --schedule (split k ko ki N)")
        if args.n is not None and args.dims is not None:
            raise ConfigError("pass --n or --dims, not both")
        if args.explain:
            unused = [f"--{k}".replace("_", "-") for k in ("verify", "dump_trace", "output")
                      if getattr(args, k)]
            if unused:
                raise ConfigError("--explain runs nothing, so it takes no "
                                  + " or ".join(unused))
        else:
            _check_outputs(args)
        stmt, machine, dists, sched, label, keys = _setup(args)
        if args.explain:
            _explain(stmt, machine, dists, sched)
        else:
            _run(args, stmt, machine, dists, sched, label, keys)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return 0
    except BrokenPipeError:
        # stdout's reader is gone; what is still buffered goes to devnull, so
        # the flush at exit cannot fail again, and the exit code is a SIGPIPE's
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except VerifyFail as exc:
        print(f"verify: FAIL ({exc})", file=sys.stderr)
        return 1
    except (TendistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
