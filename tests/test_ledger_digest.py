"""Golden ledgers: every bundled algorithm at two sizes, kept as text.

Each case's ledger is committed as `tests/golden/<case id>.jsonl`: the rows
of `trace.canonical_rows()`, one compact JSON row per line, which is exactly
what `tendist --dump-trace` prints before its summary line. The test compares
the full text; on a mismatch it shows the first differing rows and the event
count per (step, tensor, kind) on both sides. A second assertion pins the
sha256 of the rows plus `trace.stats()` (config None), which covers the stats
too. The ledger does not depend on input values, so a changed golden means
the simulator moved different data, not that it got faster or slower.

The pins cover one ragged extent (summa on 3x2 over 7x5x6) and the two-level
summa-hier machine. SOURCE_RULE_PINS and the placement pin add ragged runs on
9 or more processors that together take every branch of the source rule.

A change that moves a ledger on purpose rewrites the case's file from the
command line and commits the diff with its reason, for example
`tendist --algorithm summa --machine 3x2 --dims 7x5x6 --dump-trace | grep -F '['`
(add `--chunk` where the pin's chunk is not 1; summa-hier runs on its own
machine).
"""

import hashlib
import json
from collections import Counter
from itertools import zip_longest
from pathlib import Path

import pytest

from tendist import (
    DenseTensor,
    ExecutionTrace,
    RegionStore,
    Schedule,
    TensorDistribution,
    lower_to_cin,
    parse_distribution,
    parse_schedule,
    parse_statement,
    random_inputs,
    redistribute,
    run_statement,
    verify_result,
)
import tendist.simulator as simulator
from tendist.algorithms import bundle_from_config
from tendist.cli import main
from tendist.machine import grid

GOLDEN = Path(__file__).resolve().parent / "golden"

# (algorithm, flat grid or None for the bundle's own machine, dims, chunk,
#  sha256)
PINS = [
    ("summa", (2, 2), (8, 8, 8), 2,
     "4bd17179a20df8070835a18530241d89693fc9123752112a880d6a2b1405ce66"),
    ("summa", (3, 2), (7, 5, 6), 1,
     "633f42db28e4495cabc81f0ba42a0caf420449d064ec95c6546bf381bfab4718"),
    ("cannon", (2, 2), (8, 8, 8), 1,
     "7f4b0e611941f014de6036d000e641922ca4bfbd79ff92649c7052155ae8b5f0"),
    ("cannon", (3, 3), (6, 9, 6), 1,
     "c1bfec12ccdb76e6b32304d2f03384cf6f371c1b66688ff66ec622713d2ee60b"),
    ("pumma", (2, 2), (8, 8, 8), 1,
     "df6b2b127c50e9330313fdc5486678f89cbe2241a1e74efeb6605fe513547867"),
    ("pumma", (3, 3), (6, 6, 6), 1,
     "3aefc42b24488c265def9527c0841577359bad0bae9db4e478c1e07621bec7ea"),
    ("johnson", (2, 2, 2), (8, 8, 8), 1,
     "42baf80f6097c116d8ecf4d91ae36ff0b3f8a23cd000fac2a6a9323c071b8f39"),
    ("johnson", (3, 3, 3), (6, 6, 6), 1,
     "be8b41370507c46f77b486d2dbbadf1e53fc864f9114a4a946895424b2fb493e"),
    ("solomonik", (2, 2, 2), (8, 8, 8), 1,
     "c48a08c1293c521d0ffaa03cdea6fc1b7da75f707ae79ca02c27d88c341b71c2"),
    ("solomonik", (4, 4, 2), (8, 8, 8), 1,
     "fa70cd5bf31c51bbc84f0655724d2d1084806075df4b80b1e01ac3ed9ef622ba"),
    ("cosma-like", (2, 2, 1), (8, 8, 8), 1,
     "e864857bfa89f245daf9b278842a6365b2f0c4b678e2416af3f36ab5ad49e24b"),
    ("cosma-like", (2, 2, 2), (8, 8, 8), 2,
     "9cd5c1d50a9fd4b2da1b702d55a58c3e609990f642d534ed5389419206cfcaad"),
    ("summa-hier", None, (8, 8, 8), 1,
     "a9aecaca3cb72e36d76166f86b451c11369960abe92bc6e462c5091b6f749872"),
    ("summa-hier", None, (16, 16, 16), 2,
     "32e582e4fcce193e56cb46888e068e4ee10e57787cea9e45e9b09f4a09487a17"),
    ("ttv", (2,), (6, 5, 4), 1,
     "594d90ca30d3978bd2c3322261d1d54e718d29c95bc51e8fe4dc2ed35824a326"),
    ("ttv", (3,), (6, 5, 4), 1,
     "70a3f3f0ac4c92b98b5a120b49fb7ceb1ec57467334e71287a94e4761e504081"),
    ("ttm", (2,), (5, 4, 3, 6), 1,
     "18b4424c0b22402919c0c7e264308a361502bfd438fc6b8ef212064b1b7c1c9f"),
    ("ttm", (4,), (8, 4, 3, 6), 1,
     "a0f183553f74cf6279a0f0ffe1ccd44feab1b044384a850fcc1f4cd3aed764f7"),
    ("innerprod", (2,), (6, 5), 1,
     "357d66db052a19c3f890718718e94b4c0953115328b29902521f3f8cbe309343"),
    ("innerprod", (3,), (6, 5), 1,
     "0ed557c0a48ec1e6d68fbe5298c129150257eb02a2bdc4e32d86de47a8ab252f"),
    ("mttkrp", (2, 2), (6, 4, 5, 3), 1,
     "d0c2868046d71a1a01deef7ab39684b179ad74db2c4122299434307935f5332a"),
    ("mttkrp", (3, 2), (6, 4, 5, 3), 1,
     "1f1886abd4c9feada6186ee9bbb25c67ccbab30874de766fa7b56d733efec461"),
]

# Sources by branch of the rule: cannon, 12 previous-step handoffs and 24 home
# fallbacks; johnson, 18 same-step relays from a launch temporary and 18
# homes; summa, 57 homes and 9 relays; pumma, 9 handoffs, 9 relays, 18 homes.
SOURCE_RULE_PINS = [
    ("cannon", (3, 3), (7, 7, 7), 1,
     "9d82b1eb1a3a7784a58ffea19d0ac891e65d3c9815352382272c5bdcd33bc963"),
    ("johnson", (3, 3, 3), (7, 5, 8), 1,
     "f495e80eff7d5028182406649b56eaaafa97d386fc35d39d63ce817be813c603"),
    ("summa", (3, 3), (7, 5, 8), 1,
     "54e3bde9b62403b0b24703b631646f49f16bb5c6b7f1b4c0f1222087817982b3"),
    ("pumma", (3, 3), (7, 5, 8), 1,
     "85ea6575dd4f15420a58354abfd455db01920a44569d2a34d1ffb4f97cb80fbe"),
]


def _counts(lines) -> Counter:
    return Counter((r[0], r[3], r[7]) for r in map(json.loads, lines))


def ledger_mismatch(want: str, got: str) -> str:
    """The first differing rows of two ledger texts, then every
    (step, tensor, kind) whose event count differs."""
    want_rows, got_rows = want.splitlines(), got.splitlines()
    at = next((i for i, (w, g) in enumerate(zip_longest(want_rows, got_rows)) if w != g),
              len(want_rows))
    out = [f"ledger differs from line {at + 1} (golden {len(want_rows)} rows, "
           f"run {len(got_rows)}):"]
    out += [f"  golden: {row}" for row in want_rows[at:at + 3]]
    out += [f"  run:    {row}" for row in got_rows[at:at + 3]]
    want_n, got_n = _counts(want_rows), _counts(got_rows)
    out.append("events per (step, tensor, kind), golden -> run:")
    out += [f"  {key}: {want_n[key]} -> {got_n[key]}"
            for key in sorted(want_n.keys() | got_n.keys()) if want_n[key] != got_n[key]]
    return "\n".join(out)


def check_golden(case: str, trace, digest: str) -> None:
    rows = trace.canonical_rows()
    want = (GOLDEN / f"{case}.jsonl").read_text()
    got = "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)
    if got != want:
        pytest.fail(ledger_mismatch(want, got), pytrace=False)
    blob = json.dumps({"events": rows, "stats": trace.stats(None)},
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _case_id(pin) -> str:
    alg, machine, dims = pin[:3]
    where = "x".join(map(str, machine)) if machine else "own"
    return f"{alg}-{where}-{'x'.join(map(str, dims))}"


@pytest.mark.parametrize("alg, machine, dims, chunk, digest",
                         PINS + SOURCE_RULE_PINS,
                         ids=[_case_id(p) for p in PINS + SOURCE_RULE_PINS])
def test_ledger_digest(alg, machine, dims, chunk, digest):
    bundle = bundle_from_config(alg, grid(*machine) if machine else None, dims, chunk)
    result, _ = bundle.run(seed=0)
    check_golden(_case_id((alg, machine, dims)), result.trace, digest)


def test_placement_relay_digest():
    # 5x7 blocks on 3x3 become full replicas: each block reaches its first
    # receiver from its home (9 events) and every later receiver from an
    # earlier receiver's launch temporary (63 events)
    machine = grid(3, 3)
    old, new = (TensorDistribution((5, 7), machine, parse_distribution(text)[1])
                for text in ("xy -> xy", "xy -> **"))
    store = RegionStore(machine)
    store.place("T", DenseTensor((5, 7)), old)
    trace = ExecutionTrace(machine)
    redistribute(store, "T", new, trace)
    check_golden("placement-relay-3x3-5x7", trace,
                 "70cd2e2a09b947110aae3b7c0e5fd5ba508329975b7852c55c1f5c03952e92f0")


def test_dump_trace_prints_the_golden_rows(tmp_path, capsys):
    # the re-pin recipe in the module docstring, for one ragged case
    assert main(["--algorithm", "summa", "--machine", "3x2", "--dims", "7x5x6",
                 "--dump-trace", "--stats", str(tmp_path / "s.json")]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert "".join(row + "\n" for row in rows) == (GOLDEN / "summa-3x2-7x5x6.jsonl").read_text()


def test_mismatch_names_first_rows_and_counts():
    want = ('[0,[0,1],[0,0],"A",[0],[2],2,"copy","compute"]\n'
            '[0,[0,0],[0,1],"B",[0],[2],2,"copy","compute"]\n')
    got = want.replace('"B"', '"C"')
    assert ledger_mismatch(want, got) == "\n".join([
        "ledger differs from line 2 (golden 2 rows, run 2):",
        '  golden: [0,[0,0],[0,1],"B",[0],[2],2,"copy","compute"]',
        '  run:    [0,[0,0],[0,1],"C",[0],[2],2,"copy","compute"]',
        "events per (step, tensor, kind), golden -> run:",
        "  (0, 'B', 'copy'): 1 -> 0",
        "  (0, 'C', 'copy'): 0 -> 1",
    ])


# Metamorphic checks, which need no golden: a rewrite of task-local loops
# below the communicate scope changes neither the values nor a single event
@pytest.mark.parametrize("alg, machine, dims, rewrite", [
    ("summa", (2, 2), (8, 8, 8), "reorder ki ji"),
    ("cannon", (3, 3), (7, 7, 7), "reorder ji ii"),  # after a rotate
    ("johnson", (2, 2, 2), (8, 8, 8), "split ki kq kr 2"),
    ("pumma", (3, 3), (7, 5, 8), "divide ii ia ib 2"),
])
def test_task_local_rewrites_keep_the_ledger(alg, machine, dims, rewrite):
    bundle = bundle_from_config(alg, grid(*machine), dims)
    before, inputs = bundle.run(seed=0)
    rewritten = Schedule(bundle.schedule.commands + parse_schedule(rewrite).commands)
    cin = lower_to_cin(bundle.statement)
    assert rewritten.apply(cin) != bundle.schedule.apply(cin)  # not a no-op
    bundle.schedule = rewritten
    after, _ = bundle.run(inputs)
    verify_result(bundle.statement, inputs, after)
    assert after.trace.canonical_rows() == before.trace.canonical_rows()
    assert after.trace.stats() == before.trace.stats()


def _run_text(expr, g, n, dists, inputs=None):
    """Run `expr` (indices i, j, n each) on a g x g grid under the
    `distribute i,j io,jo ii,ji` schedule and `dists`, tensor name ->
    distribution text; returns (statement, inputs, RunResult)."""
    machine = grid(g, g)
    stmt = parse_statement(expr, {"i": n, "j": n})
    tensors = stmt.tensors()
    dist = {name: TensorDistribution(tensors[name].dims, machine,
                                     parse_distribution(text)[1])
            for name, text in dists.items()}
    inputs = inputs or random_inputs(stmt, seed=3)
    sched = parse_schedule(f"distribute i,j io,jo ii,ji {g}x{g}")
    return stmt, inputs, run_statement(stmt, machine, dist, inputs, sched)


# A tensor read twice is fetched once per access as written: every access
# after the first finds its rect held, so the reads add no event. The later
# reads of a fetched block find it among the task's temporaries and so are
# cut by what is held; a row-replicated A is resident at every reader, and
# its reads are answered from the one piece they meet, with no cut
@pytest.mark.parametrize("g, n", [(2, 4), (3, 7)])
@pytest.mark.parametrize("a_dist", ["xy -> yx", "xy -> x*", "xy -> 0y"])
def test_repeated_accesses_keep_the_ledger(monkeypatch, g, n, a_dist):
    cuts, subtract = [0], simulator.subtract_rects

    def counted(rects, covers):
        cuts[0] += 1
        return subtract(rects, covers)

    monkeypatch.setattr(simulator, "subtract_rects", counted)
    dists = {"C": "xy -> xy", "A": a_dist}
    stmt, inputs, once = _run_text("C(i, j) = A(i, j)", g, n, dists)
    assert cuts[0] == 0
    stmt3, _, thrice = _run_text("C(i, j) = A(i, j) * A(i, j) + A(i, j)", g, n, dists, inputs)
    assert (cuts[0] > 0) == ("*" not in a_dist)
    verify_result(stmt3, inputs, thrice)
    assert thrice.trace.canonical_rows() == once.trace.canonical_rows()
    assert thrice.trace.stats() == once.trace.stats()
    # a transposed second read: diagonal tasks resolve both reads to one rect
    stmt, inputs, result = _run_text("C(i, j) = A(i, j) * A(j, i)", g, n, dists)
    verify_result(stmt, inputs, result)
