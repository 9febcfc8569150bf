"""Traced mode: wrap tendist's public functions from outside and keep spans.

Each span is (name, start, end, parent, iteration). Spans and per-iteration
call counts stay in memory and are written out when the run ends.
install() replaces every binding of a wrapped function in the tendist
modules (simulator.py calls `interpret`, `lower_to_cin` and
`sequential_evaluate` through its own imported names); restore() puts the
originals back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager


def timed_targets(tendist) -> list:
    """(owner, attribute, span name) of each layer boundary that gets a span."""
    sim = tendist.simulator
    return [
        (tendist.algorithms, "bundle_from_config", "algorithms.bundle"),
        (tendist.algorithms, "random_inputs", "algorithms.random_inputs"),
        (tendist.cin, "lower_to_cin", "cin.lower"),
        (tendist.scheduling.Schedule, "apply", "scheduling.apply"),
        (sim.RegionStore, "place", "simulator.place"),
        (sim, "execute", "simulator.execute"),
        (sim, "lower_to_tasks", "simulator.lower_to_tasks"),
        (tendist.cin, "interpret", "cin.interpret"),
        (sim.ExecutionTrace, "stats", "simulator.stats"),
        (tendist.ir, "sequential_evaluate", "ir.sequential_evaluate"),
    ]


def counted_targets(tendist) -> list:
    """(owner, attribute, counter name) of hot methods that only get counted."""
    dist = tendist.distribution
    return [
        (dist.HyperRect, "contains", "distribution.contains_calls"),
        (dist.TensorDistribution, "piece_bounds", "distribution.piece_bounds_calls"),
        (dist.TensorDistribution, "processors_of", "distribution.processors_of_calls"),
    ]


class Tracer:
    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index, iteration]
        self.counts = Counter()    # reset by the caller per iteration
        self.iteration = "setup"
        self._open: list = []      # indices of spans not yet ended
        self._patches: list = []   # (owner, attribute, original)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.iteration])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _intersect(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["distribution.intersect_calls"] += 1
            if out is not None:
                counts["distribution.intersect_hits"] += 1
            return out
        return wrapper

    def install(self, tendist) -> None:
        for owner, attr, name in timed_targets(tendist):
            self._replace(owner, attr, self._timed(name, getattr(owner, attr)))
        for owner, attr, name in counted_targets(tendist):
            self._replace(owner, attr, self._counted(name, getattr(owner, attr)))
        hyper = tendist.distribution.HyperRect
        self._replace(hyper, "intersect", self._intersect(hyper.intersect))

    def _replace(self, owner, attr, wrapper) -> None:
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for k, m in sys.modules.items()
                       if (k == "tendist" or k.startswith("tendist."))
                       and getattr(m, attr, None) is original]
        for holder in holders:
            self._patches.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)

    def restored(self) -> bool:
        """True when every binding install() replaced is the original again."""
        return all(getattr(holder, attr) is original
                   for holder, attr, original in self._patches)

    def export(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "iteration": it}
                for n, s, e, p, it in self.spans]


def layer_times(spans: list, iteration) -> dict:
    """Per-layer seconds for one iteration, from its spans.

    replay is execute entry to the first interpret call minus lower_to_tasks;
    numeric is the sum of interpret calls made by execute; commit is the
    last interpret return to the execute return.
    """
    mine = [s for s in spans if s[4] == iteration]

    def total(name):
        return sum(e - s for n, s, e, _, _ in mine if n == name)

    def inside(span, ancestor):
        p = span[3]
        while p is not None:
            if spans[p] is ancestor:
                return True
            p = spans[p][3]
        return False

    (exe,) = [s for s in mine if s[0] == "simulator.execute"]
    calls = [s for s in mine if s[0] == "cin.interpret" and inside(s, exe)]
    lowering = sum(s[2] - s[1] for s in mine
                   if s[0] == "simulator.lower_to_tasks" and inside(s, exe))
    first_call = calls[0][1] if calls else exe[2]
    last_return = calls[-1][2] if calls else exe[2]
    return {
        "simulator.replay_s": first_call - exe[1] - lowering,
        "simulator.numeric_s": sum(e - s for _, s, e, _, _ in calls),
        "simulator.commit_s": exe[2] - last_return,
        "simulator.lower_to_tasks_s": total("simulator.lower_to_tasks"),
        "simulator.place_s": total("simulator.place"),
        "simulator.stats_s": total("simulator.stats"),
        "cin.lower_s": total("cin.lower"),
        "scheduling.apply_s": total("scheduling.apply"),
        "ir.sequential_evaluate_s": total("ir.sequential_evaluate"),
        "cin.interpret_calls": len(calls),
        "trace.run_s": total("bench.run"),
    }
