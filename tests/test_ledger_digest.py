"""Golden ledger digests: every bundled algorithm at two sizes.

Each pin is the sha256 of the canonical event list plus `trace.stats()`
(config None). The ledger does not depend on input values, so a changed pin
means the simulator moved different data, not that it got faster or slower.
The pins cover one ragged extent (summa on 3x2 over 7x5x6) and the two-level
summa-hier machine. SOURCE_RULE_PINS and the placement pin add ragged runs on
9 or more processors that together take every branch of the source rule.
"""

import hashlib
import json

import pytest

from tendist import (
    DenseTensor,
    ExecutionTrace,
    RegionStore,
    TensorDistribution,
    parse_distribution,
    redistribute,
)
from tendist.algorithms import bundle_from_config
from tendist.machine import grid

# (algorithm, flat grid or None for the bundle's own machine, dims, chunk,
#  events, sha256)
PINS = [
    ("summa", (2, 2), (8, 8, 8), 2, 12,
     "4bd17179a20df8070835a18530241d89693fc9123752112a880d6a2b1405ce66"),
    ("summa", (3, 2), (7, 5, 6), 1, 30,
     "633f42db28e4495cabc81f0ba42a0caf420449d064ec95c6546bf381bfab4718"),
    ("cannon", (2, 2), (8, 8, 8), 1, 8,
     "7f4b0e611941f014de6036d000e641922ca4bfbd79ff92649c7052155ae8b5f0"),
    ("cannon", (3, 3), (6, 9, 6), 1, 36,
     "c1bfec12ccdb76e6b32304d2f03384cf6f371c1b66688ff66ec622713d2ee60b"),
    ("pumma", (2, 2), (8, 8, 8), 1, 8,
     "df6b2b127c50e9330313fdc5486678f89cbe2241a1e74efeb6605fe513547867"),
    ("pumma", (3, 3), (6, 6, 6), 1, 36,
     "3aefc42b24488c265def9527c0841577359bad0bae9db4e478c1e07621bec7ea"),
    ("johnson", (2, 2, 2), (8, 8, 8), 1, 12,
     "42baf80f6097c116d8ecf4d91ae36ff0b3f8a23cd000fac2a6a9323c071b8f39"),
    ("johnson", (3, 3, 3), (6, 6, 6), 1, 54,
     "be8b41370507c46f77b486d2dbbadf1e53fc864f9114a4a946895424b2fb493e"),
    ("solomonik", (2, 2, 2), (8, 8, 8), 1, 12,
     "c48a08c1293c521d0ffaa03cdea6fc1b7da75f707ae79ca02c27d88c341b71c2"),
    ("solomonik", (4, 4, 2), (8, 8, 8), 1, 112,
     "fa70cd5bf31c51bbc84f0655724d2d1084806075df4b80b1e01ac3ed9ef622ba"),
    ("cosma-like", (2, 2, 1), (8, 8, 8), 1, 4,
     "e864857bfa89f245daf9b278842a6365b2f0c4b678e2416af3f36ab5ad49e24b"),
    ("cosma-like", (2, 2, 2), (8, 8, 8), 2, 16,
     "9cd5c1d50a9fd4b2da1b702d55a58c3e609990f642d534ed5389419206cfcaad"),
    ("summa-hier", None, (8, 8, 8), 1, 56,
     "a9aecaca3cb72e36d76166f86b451c11369960abe92bc6e462c5091b6f749872"),
    ("summa-hier", None, (16, 16, 16), 2, 56,
     "32e582e4fcce193e56cb46888e068e4ee10e57787cea9e45e9b09f4a09487a17"),
    ("ttv", (2,), (6, 5, 4), 1, 0,
     "594d90ca30d3978bd2c3322261d1d54e718d29c95bc51e8fe4dc2ed35824a326"),
    ("ttv", (3,), (6, 5, 4), 1, 0,
     "70a3f3f0ac4c92b98b5a120b49fb7ceb1ec57467334e71287a94e4761e504081"),
    ("ttm", (2,), (5, 4, 6, 3), 1, 0,
     "18b4424c0b22402919c0c7e264308a361502bfd438fc6b8ef212064b1b7c1c9f"),
    ("ttm", (4,), (8, 4, 6, 3), 1, 0,
     "a0f183553f74cf6279a0f0ffe1ccd44feab1b044384a850fcc1f4cd3aed764f7"),
    ("innerprod", (2,), (6, 5), 1, 1,
     "357d66db052a19c3f890718718e94b4c0953115328b29902521f3f8cbe309343"),
    ("innerprod", (3,), (6, 5), 1, 2,
     "0ed557c0a48ec1e6d68fbe5298c129150257eb02a2bdc4e32d86de47a8ab252f"),
    ("mttkrp", (2, 2), (6, 4, 5, 3), 1, 7,
     "d0c2868046d71a1a01deef7ab39684b179ad74db2c4122299434307935f5332a"),
    ("mttkrp", (3, 2), (6, 4, 5, 3), 1, 12,
     "1f1886abd4c9feada6186ee9bbb25c67ccbab30874de766fa7b56d733efec461"),
]

# Sources by branch of the rule: cannon, 12 previous-step handoffs and 24 home
# fallbacks; johnson, 18 same-step relays from a launch temporary and 18
# homes; summa, 57 homes and 9 relays; pumma, 9 handoffs, 9 relays, 18 homes.
SOURCE_RULE_PINS = [
    ("cannon", (3, 3), (7, 7, 7), 1, 36,
     "9d82b1eb1a3a7784a58ffea19d0ac891e65d3c9815352382272c5bdcd33bc963"),
    ("johnson", (3, 3, 3), (7, 5, 8), 1, 54,
     "f495e80eff7d5028182406649b56eaaafa97d386fc35d39d63ce817be813c603"),
    ("summa", (3, 3), (7, 5, 8), 1, 66,
     "54e3bde9b62403b0b24703b631646f49f16bb5c6b7f1b4c0f1222087817982b3"),
    ("pumma", (3, 3), (7, 5, 8), 1, 36,
     "85ea6575dd4f15420a58354abfd455db01920a44569d2a34d1ffb4f97cb80fbe"),
]


def ledger_digest(trace) -> str:
    rows = [[e.timestep, list(e.src), list(e.dst), e.tensor, list(e.rect.lo),
             list(e.rect.hi), e.elements, e.kind, e.phase] for e in trace.events]
    blob = json.dumps({"events": rows, "stats": trace.stats(None)},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _case_id(pin) -> str:
    alg, machine, dims = pin[:3]
    where = "x".join(map(str, machine)) if machine else "own"
    return f"{alg}-{where}-{'x'.join(map(str, dims))}"


@pytest.mark.parametrize("alg, machine, dims, chunk, events, digest",
                         PINS + SOURCE_RULE_PINS,
                         ids=[_case_id(p) for p in PINS + SOURCE_RULE_PINS])
def test_ledger_digest(alg, machine, dims, chunk, events, digest):
    bundle = bundle_from_config(alg, grid(*machine) if machine else None, dims, chunk)
    result, _ = bundle.run(seed=0)
    assert len(result.trace.events) == events
    assert ledger_digest(result.trace) == digest


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
    assert len(trace.events) == 72
    assert ledger_digest(trace) == (
        "70cd2e2a09b947110aae3b7c0e5fd5ba508329975b7852c55c1f5c03952e92f0")
