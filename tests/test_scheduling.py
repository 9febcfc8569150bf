import itertools
import random

import numpy as np
import pytest

from tendist import (
    DenseTensor,
    lower_to_cin,
    parse_schedule,
    parse_statement,
    schedule,
    sequential_evaluate,
)
from tendist.cin import (
    Communicate,
    Distribute,
    Forall,
    body_of,
    interpret,
    pretty,
    register_leaf_kernel,
    relations_of,
)
from tendist.errors import (
    ConfigError,
    DimCountMismatch,
    IBelowT,
    NonFreshVar,
    NotContiguousNest,
    NotInnermost,
    NotPermutation,
    UnknownTensor,
    UnknownVar,
)
from tendist.scheduling import (
    communicate,
    distribute,
    distribute_grid,
    divide,
    reorder,
    rotate,
    split,
    substitute_leaf,
)


def gemm(n=4):
    return parse_statement("C(i, j) = A(i, k) * B(k, j)", {"i": n, "j": n, "k": n})


def rand_inputs(stmt, seed=0):
    rng = random.Random(seed)
    out = {}
    for name, var in stmt.tensors().items():
        if name == stmt.lhs.tensor.name:
            continue
        t = DenseTensor(var.dims)
        flat = t.data.reshape(-1)
        for at in range(flat.size):
            flat[at] = rng.randint(-4, 4)
        out[name] = t
    return out


def unchanged(stmt, scheduled, seed=0):
    ins = rand_inputs(stmt, seed)
    want = sequential_evaluate(stmt, ins)
    got = interpret(scheduled, ins)[stmt.lhs.tensor.name]
    return np.array_equal(want.data, got.data)


# individual commands

def test_split_shapes_and_guards():
    stmt = gemm(5)
    out = split(lower_to_cin(stmt), "k", "ko", "ki", 2)
    assert pretty(out) == ("forall(i) forall(j) forall(ko) forall(ki) "
                           "C(i, j) += A(i, k) * B(k, j) "
                           "s.t. split(k, ko, ki, 2)")
    node = out.body.body.body
    assert (node.var, node.extent) == ("ko", 3)  # ceil(5/2)
    assert node.body.extent == 2
    assert unchanged(stmt, out)


def test_divide_shapes_and_guards():
    stmt = gemm(5)
    out = divide(lower_to_cin(stmt), "i", "io", "ii", 2)
    node = out.body
    assert (node.var, node.extent) == ("io", 2)
    assert node.body.extent == 3  # ceil(5/2)
    assert unchanged(stmt, out)


def test_split_rejects_used_names():
    with pytest.raises(NonFreshVar):
        split(lower_to_cin(gemm()), "k", "i", "ki", 2)
    with pytest.raises(NonFreshVar):
        split(lower_to_cin(gemm()), "k", "q", "q", 2)


def test_split_unknown_var():
    with pytest.raises(UnknownVar):
        split(lower_to_cin(gemm()), "z", "zo", "zi", 2)


def test_split_bad_chunk():
    with pytest.raises(ConfigError):
        split(lower_to_cin(gemm()), "k", "ko", "ki", 0)


def test_reorder():
    stmt = gemm()
    out = reorder(lower_to_cin(stmt), ["k", "i", "j"])
    assert [f.var for f in _chain(out)] == ["k", "i", "j"]
    assert unchanged(stmt, out)


def _chain(node):
    out = []
    while isinstance(node, Forall):
        out.append(node)
        node = node.body
    return out


def test_reorder_partial_window():
    stmt = gemm()
    cin = split(lower_to_cin(stmt), "k", "ko", "ki", 2)
    out = reorder(cin, ["ko", "i", "j"])
    assert [f.var for f in _chain(out.body)][:4] == ["ko", "i", "j", "ki"]
    assert unchanged(stmt, out)


def test_reorder_rejects_duplicates():
    with pytest.raises(NotPermutation):
        reorder(lower_to_cin(gemm()), ["i", "i", "j"])


def test_reorder_rejects_gap():
    # io and ji are not directly nested (jo sits between)
    cin = lower_to_cin(gemm())
    cin = divide(cin, "i", "io", "ii", 2)
    cin = divide(cin, "j", "jo", "ji", 2)
    cin = reorder(cin, ["io", "jo", "ii", "ji"])
    with pytest.raises(NotContiguousNest):
        reorder(cin, ["io", "ji"])


def test_reorder_unknown_var():
    with pytest.raises(UnknownVar):
        reorder(lower_to_cin(gemm()), ["i", "q"])


def test_distribute_marks():
    cin = divide(lower_to_cin(gemm()), "i", "io", "ii", 2)
    out = distribute(cin, "io")
    assert Distribute("io") in relations_of(out)
    with pytest.raises(UnknownVar):
        distribute(cin, "nope")


def test_distribute_grid_compound():
    stmt = gemm(6)
    out = distribute_grid(lower_to_cin(stmt), ("i", "j"), ("io", "jo"),
                          ("ii", "ji"), (2, 3))
    names = [f.var for f in _chain(out.body)]
    assert names[:2] == ["io", "jo"]
    assert set(names[2:4]) == {"ii", "ji"}
    assert unchanged(stmt, out)
    with pytest.raises(DimCountMismatch):
        distribute_grid(lower_to_cin(stmt), ("i", "j"), ("io",), ("ii",), (2,))


def test_communicate_validates_tensor():
    cin = divide(lower_to_cin(gemm()), "i", "io", "ii", 2)
    out = communicate(cin, ("A", "B"), "io")
    assert Communicate(("A", "B"), "io") in relations_of(out)
    with pytest.raises(UnknownTensor):
        communicate(cin, "Z", "io")
    with pytest.raises(UnknownVar):
        communicate(cin, "A", "zz")


def test_rotate_replaces_loop():
    stmt = gemm()
    cin = lower_to_cin(stmt)
    cin = divide(cin, "i", "io", "ii", 2)
    cin = divide(cin, "k", "ko", "ki", 2)
    cin = reorder(cin, ["io", "ko", "ii", "j", "ki"])
    out = rotate(cin, "ko", ("io",), "kos")
    names = [f.var for f in _chain(out.body)]
    assert "kos" in names and "ko" not in names
    assert unchanged(stmt, out)


def test_rotate_remaps_communicate():
    cin = lower_to_cin(gemm())
    cin = divide(cin, "i", "io", "ii", 2)
    cin = divide(cin, "k", "ko", "ki", 2)
    cin = reorder(cin, ["io", "ko", "ii", "j", "ki"])
    cin = communicate(cin, "A", "ko")
    out = rotate(cin, "ko", ("io",), "kos")
    assert Communicate(("A",), "kos") in relations_of(out)


def test_rotate_requires_enclosing_offsets():
    cin = lower_to_cin(gemm())
    cin = divide(cin, "i", "io", "ii", 2)
    cin = divide(cin, "k", "ko", "ki", 2)
    # ko sits below io, so it cannot offset io's rotation
    with pytest.raises(IBelowT):
        rotate(cin, "io", ("ko",), "ios")
    with pytest.raises(NonFreshVar):
        rotate(cin, "ko", ("io",), "ki")


def test_substitute_leaf():
    seen = []

    def kernel(rt):
        seen.append(1)
        for pt in itertools.product(*[range(lo, hi) for _, lo, hi in rt.loops]):
            rt.execute_point({**rt.env, **dict(zip([v for v, _, _ in rt.loops], pt))})

    register_leaf_kernel("walker", kernel)
    stmt = gemm()
    cin = lower_to_cin(stmt)
    out = substitute_leaf(cin, ("j", "k"), "walker")
    assert unchanged(stmt, out)
    assert seen  # kernel actually ran


def test_substitute_leaf_must_be_innermost():
    cin = lower_to_cin(gemm())
    with pytest.raises(NotInnermost):
        substitute_leaf(cin, ("i", "j"), "interpreter")
    with pytest.raises(NotInnermost):
        substitute_leaf(cin, ("j",), "interpreter")
    # the single innermost loop is a legal nest
    out = substitute_leaf(cin, ("k",), "interpreter")
    assert unchanged(gemm(), out)


def test_substitute_leaf_unregistered():
    with pytest.raises(ConfigError):
        substitute_leaf(lower_to_cin(gemm()), ("k",), "no-such-kernel")


# the Schedule builder

def test_schedule_chain_and_apply():
    stmt = gemm(4)
    sched = (schedule()
             .divide("i", "io", "ii", 2).divide("j", "jo", "ji", 2)
             .reorder("io", "jo", "ii", "ji")
             .distribute("io").distribute("jo")
             .split("k", "ko", "ki", 2).reorder("ko", "ii", "ji")
             .communicate("A", "jo").communicate(("B", "C"), "ko"))
    out = sched.apply(lower_to_cin(stmt))
    names = [f.var for f in _chain(out.body)]
    assert names == ["io", "jo", "ko", "ii", "ji", "ki"]
    assert unchanged(stmt, out)


def test_schedule_steps_descriptions():
    sched = schedule().divide("i", "io", "ii", 2).communicate(("A", "B"), "io")
    steps = sched.steps(lower_to_cin(gemm()))
    assert [d for d, _ in steps] == ["divide(i, io, ii, 2)",
                                     "communicate({A, B}, io)"]
    assert "s.t. divide(i, io, ii, 2)" in pretty(steps[0][1])

    # every script word and its builder call build the same command
    cases = [
        ("split k ko ki 2", schedule().split("k", "ko", "ki", 2),
         "split(k, ko, ki, 2)"),
        ("divide i io ii 2", schedule().divide("i", "io", "ii", 2),
         "divide(i, io, ii, 2)"),
        ("reorder k i j", schedule().reorder("k", "i", "j"), "reorder(k, i, j)"),
        ("distribute i", schedule().distribute("i"), "distribute(i)"),
        ("distribute i,j io,jo ii,ji 2x2",
         schedule().distribute_grid(["i", "j"], ["io", "jo"], ["ii", "ji"], [2, 2]),
         "distribute_grid({i, j}, {io, jo}, {ii, ji}, {2, 2})"),
        ("distribute_grid i,j io,jo ii,ji 2x2",
         schedule().distribute_grid(["i", "j"], ["io", "jo"], ["ii", "ji"], [2, 2]),
         "distribute_grid({i, j}, {io, jo}, {ii, ji}, {2, 2})"),
        ("communicate A,B i", schedule().communicate(("A", "B"), "i"),
         "communicate({A, B}, i)"),
        ("rotate k i,j kr", schedule().rotate("k", ("i", "j"), "kr"),
         "rotate(k, {i, j}, kr)"),
        ("leaf k interpreter", schedule().substitute_leaf(("k",), "interpreter"),
         "leaf(k, interpreter)"),
    ]
    for text, built, desc in cases:
        parsed = parse_schedule(text)
        assert parsed.commands == built.commands, text
        got = parsed.steps(lower_to_cin(gemm()))
        assert [d for d, _ in got] == [d for d, _ in built.steps(lower_to_cin(gemm()))]
        assert got[0][0] == desc


def test_schedule_is_immutable():
    base = schedule()
    a = base.divide("i", "io", "ii", 2)
    assert base.commands == ()
    assert len(a.commands) == 1


# the text form

def test_parse_schedule_forms():
    text = """
    # gemm schedule
    divide i io ii 2
    divide j jo ji 2
    reorder io jo ii ji
    distribute io
    distribute jo
    split k ko ki 2      # rounds
    reorder ko ii ji
    communicate A jo
    communicate B,C ko
    """
    sched = parse_schedule(text)
    stmt = gemm(4)
    out = sched.apply(lower_to_cin(stmt))
    assert unchanged(stmt, out)
    names = [f.var for f in _chain(out.body)]
    assert names == ["io", "jo", "ko", "ii", "ji", "ki"]


def test_parse_schedule_compound_distribute():
    sched = parse_schedule("distribute i,j io,jo ii,ji 2x2")
    out = sched.apply(lower_to_cin(gemm(4)))
    names = [f.var for f in _chain(out.body)]
    assert names[:2] == ["io", "jo"]


def test_parse_schedule_rotate_and_leaf():
    sched = parse_schedule("""
    distribute i,j io,jo ii,ji 2x2
    divide k ko ki 2
    reorder ko ii ji
    communicate A,B ko
    rotate ko io,jo kos
    leaf ii,ji,ki interpreter
    """)
    stmt = gemm(4)
    out = sched.apply(lower_to_cin(stmt))
    assert unchanged(stmt, out)


def test_parse_schedule_errors_carry_line():
    with pytest.raises(ConfigError) as err:
        parse_schedule("divide i io ii")
    assert "line 1" in str(err.value)
    with pytest.raises(ConfigError):
        parse_schedule("warp i")
    with pytest.raises(ConfigError):
        parse_schedule("split k ko ki two")
    with pytest.raises(ConfigError):
        parse_schedule("distribute a b")
    bad = [
        # a trailing token after every script word's full argument list
        "split k ko ki 2 extra",
        "divide i io ii 2 extra",
        "distribute io extra",
        "distribute i,j io,jo ii,ji 2x2 extra",
        "distribute_grid i,j io,jo ii,ji 2x2 extra",
        "communicate A,B ko junk",
        "rotate ko io,jo kos extra",
        "leaf ii,ji,ki interpreter extra",
        # reorder takes any number of names, but at least one
        "reorder",
        # parallelize is not a command
        "parallelize i",
    ]
    for text in bad:
        with pytest.raises(ConfigError) as err:
            parse_schedule("# header\n\n" + text)
        assert "line 3" in str(err.value), text
    with pytest.raises(ConfigError, match="unknown command 'parallelize'"):
        parse_schedule("parallelize i")


# randomized equivalence: scheduled loop nests always compute the same values

_STATEMENTS = [
    ("C(i, j) = A(i, k) * B(k, j)", {"i": 4, "j": 5, "k": 6}),
    ("A(i, j) = B(i, j, k) * c(k)", {"i": 3, "j": 4, "k": 5}),
    ("Y(i, j, l) = B(i, j, k) * C(k, l)", {"i": 3, "j": 2, "k": 4, "l": 3}),
    ("a = A(i, j) * B(i, j)", {"i": 5, "j": 6}),
    ("D(i) = A(i) * 2 + B(i)", {"i": 6}),
]


def _random_chain(rng, stmt, cin):
    """Apply 1..6 random valid commands, returning the transformed statement."""
    fresh = itertools.count()
    for _ in range(rng.randint(1, 6)):
        names = [f.var for f in _chain(body_of(cin))]
        if not names:
            break
        kind = rng.choice(["split", "divide", "reorder", "rotate"])
        try:
            if kind == "split":
                v = rng.choice(names)
                n = next(fresh)
                cin = split(cin, v, f"s{n}o", f"s{n}i", rng.randint(1, 4))
            elif kind == "divide":
                v = rng.choice(names)
                n = next(fresh)
                cin = divide(cin, v, f"d{n}o", f"d{n}i", rng.randint(1, 4))
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
                over = tuple(rng.sample(names[:at], rng.randint(1, min(2, at))))
                cin = rotate(cin, names[at], over, f"r{n}")
        except (NotContiguousNest, ConfigError):
            continue
    return cin


def test_random_schedules_preserve_semantics():
    rng = random.Random(2026)
    runs = 0
    for round_ in range(250):
        for text, extents in _STATEMENTS:
            stmt = parse_statement(text, extents)
            cin = _random_chain(rng, stmt, lower_to_cin(stmt))
            ins = rand_inputs(stmt, seed=round_)
            want = sequential_evaluate(stmt, ins)
            got = interpret(cin, ins)[stmt.lhs.tensor.name]
            assert np.array_equal(want.data, got.data), pretty(cin)
            runs += 1
    assert runs == 1250
