import json
import os
import subprocess
import sys

import numpy as np

import tendist
from tendist import (
    ALGORITHMS,
    bundle_from_config,
    lower_to_cin,
    parse_machine,
    pretty,
    random_inputs,
)
from tendist.cli import main
from tendist.errors import VerifyFail

SUMMA_SCRIPT = ("distribute i,j io,jo ii,ji 2x2; split k ko ki 2; "
                "reorder ko ii ji; communicate A jo; communicate B,C ko")


def run(args):
    return main(args)


def test_algorithm_mode_summary_and_stats(tmp_path, capsys):
    stats_path = tmp_path / "s.json"
    code = run(["--algorithm", "summa", "--dims", "4x4x4", "--chunk", "2",
                "--verify", "--stats", str(stats_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert ("machine 2x2: 8 messages, 32 elements moved, 2 steps, "
            "memory high-water 24") in out
    assert "verify: OK" in out
    stats = json.loads(stats_path.read_text())
    assert stats["config"]["algorithm"] == "summa"
    assert stats["config"]["chunk"] == 2
    assert stats["totals"]["elements"] == 32
    assert "generated_at" not in stats


def test_stats_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["--algorithm", "cannon", "--n", "6", "--machine", "3x3",
                    "--seed", "4", "--stats", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    sa = json.loads(a.read_text())
    assert sa["totals"] == {"messages": 36, "elements": 144,
                            "copy_messages": 36, "copy_elements": 144,
                            "reduce_messages": 0, "reduce_elements": 0}


def test_custom_mode_reproduces_broadcast_anchor(tmp_path, capsys):
    stats_path = tmp_path / "s.json"
    code = run(["--expr", "C(i, j) = A(i, k) * B(k, j)", "--n", "4",
                "--machine", "2x2",
                "--dist", "A: xy -> xy", "--dist", "B: xy -> xy",
                "--dist", "C: xy -> xy",
                "--schedule", SUMMA_SCRIPT,
                "--verify", "--stats", str(stats_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "8 messages, 32 elements moved" in out
    stats = json.loads(stats_path.read_text())
    assert stats["config"]["distributions"]["A"] == "xy -> xy"
    assert stats["config"]["statement"] == "C(i, j) = A(i, k) * B(k, j)"


def test_dims_with_a_parenthesised_subexpression(tmp_path, capsys):
    # the grouping parentheses hold no index names; --dims lists i only
    code = run(["--expr", "C(i) = (A(i) + B(i)) * 2", "--dims", "4", "--machine", "2",
                "--dist", "C: x -> x", "--dist", "A: x -> x", "--dist", "B: x -> x",
                "--schedule", "divide i io ii 2; distribute io",
                "--verify", "--stats", str(tmp_path / "s.json")])
    assert code == 0
    assert "verify: OK" in capsys.readouterr().out


def test_schedule_can_come_from_a_file(tmp_path):
    script = tmp_path / "summa.sched"
    script.write_text(SUMMA_SCRIPT.replace("; ", "\n") + "\n")
    code = run(["--kernel", "gemm", "--n", "4", "--machine", "2x2",
                "--dist", "A: xy -> xy", "--dist", "B: xy -> xy",
                "--dist", "C: xy -> xy", "--schedule", str(script),
                "--verify", "--stats", str(tmp_path / "s.json")])
    assert code == 0


def test_dump_trace_lines(tmp_path, capsys):
    code = run(["--expr", "C(i, j) = A(i, k) * B(k, j)", "--n", "4",
                "--machine", "2x2",
                "--dist", "A: xy -> xy", "--dist", "B: xy -> xy",
                "--dist", "C: xy -> xy",
                "--schedule", SUMMA_SCRIPT,
                "--dump-trace", "--stats", str(tmp_path / "s.json")])
    out = capsys.readouterr().out
    assert code == 0
    # one canonical row per transfer, the summary line after them
    lines = out.splitlines()
    rows = [json.loads(line) for line in lines[:-1]]
    assert len(rows) == 8
    assert [0, [0, 1], [0, 0], "A", [0, 2], [2, 4], 4, "copy", "compute"] in rows
    assert lines[-1].startswith("machine 2x2: 8 messages")


def test_output_writes_the_result(tmp_path):
    # a 2-D result and innerprod's 0-d one, each as .npy at exactly the path given
    for name, machine, dims, shape in (("cannon", "3x3", (6, 6, 6), (6, 6)),
                                       ("innerprod", "2", (6, 6), ())):
        folder = tmp_path / name
        folder.mkdir()
        code = run(["--algorithm", name, "--n", "6", "--machine", machine, "--seed", "4",
                    "--output", str(folder / "C.bin"), "--stats", str(folder / "s.json")])
        assert code == 0
        bundle = bundle_from_config(name, parse_machine(machine), dims, 1)
        want = bundle.run(inputs=random_inputs(bundle.statement, 4))[0].output
        got = np.load(folder / "C.bin", allow_pickle=False)
        assert got.shape == want.dims == shape
        assert got.dtype == np.float64 and got.tobytes() == want.data.tobytes()
        assert sorted(p.name for p in folder.iterdir()) == ["C.bin", "s.json"]


def test_explain(tmp_path, capsys):
    code = run(["--kernel", "gemm", "--n", "4", "--machine", "2x2",
                "--dist", "A: xy -> xy", "--dist", "B: xy -> xy",
                "--dist", "C: xy -> xy",
                "--schedule", "divide i io ii 2; distribute io",
                "--explain"])
    out = capsys.readouterr().out
    assert code == 0
    assert "statement: C(i, j) = A(i, k) * B(k, j)" in out
    assert ("loops:     forall(i) forall(j) forall(k) "
            "C(i, j) += A(i, k) * B(k, j)") in out
    assert "placement A: xy -> xy" in out
    assert "communicate(A, yo)" in out
    assert "after divide(i, io, ii, 2):" in out
    assert "after distribute(io):" in out
    assert "s.t. divide(i, io, ii, 2), distribute(io)" in out


def test_explain_two_level_placements(capsys):
    code = run(["--explain", "--kernel", "gemm", "--n", "8", "--machine", "2x2/2",
                "--dist", "A: xy -> xy; xy -> x", "--dist", "B: xy -> xy; xy -> y",
                "--dist", "C: xy -> xy; xy -> *"])
    out = capsys.readouterr().out
    assert code == 0
    assert "placement A: xy -> xy ; xy -> x" in out
    assert "divide(xi, xio, xii, 2)" in out and "communicate(A, xio)" in out
    assert "placement B: xy -> xy ; xy -> y" in out
    assert "divide(yi, yio, yii, 2)" in out and "communicate(B, yio)" in out
    assert "placement C: xy -> xy ; xy -> *" in out
    assert "communicate(C, m2)" in out


def test_a_tensor_too_large_to_allocate_exits_2(capsys):
    code = run(["--algorithm", "summa", "--n", "100000000"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: cannot allocate 80,000,000,000,000,000 bytes" in err


def test_explain_each_bundle(capsys):
    # a bundle explains as a custom run does: one placement per tensor, one
    # stage per schedule command, the last stage the statement it runs
    for name in ALGORITHMS:
        assert run(["--explain", "--algorithm", name]) == 0
        lines = capsys.readouterr().out.splitlines()
        bundle = bundle_from_config(name)
        placed = [line.split(":")[0] for line in lines if line.startswith("placement ")]
        assert placed == [f"placement {t}" for t in sorted(bundle.statement.tensors())]
        stages = [line for line in lines if line.startswith("after ")]
        assert len(stages) == len(bundle.schedule.commands), name
        want = pretty(bundle.schedule.apply(lower_to_cin(bundle.statement)))
        assert lines[-1] == f"  {want}"


def test_a_closed_stdout_exits_141_without_an_error(tmp_path):
    # ~220 KB of ledger rows overrun the pipe, whose reader leaves after a line
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(tendist.__file__)), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tendist.cli", "--algorithm", "summa", "--machine", "8x8",
         "--n", "64", "--dump-trace", "--stats", str(tmp_path / "s.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(proc.stdout.readline())[3] == "A"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_config_errors_exit_2(tmp_path, capsys, monkeypatch):
    import tendist.cli as cli

    def ran(*args, **kwargs):
        raise AssertionError("every case must fail before the run starts")

    monkeypatch.setattr(cli, "_run", ran)
    gemm = ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
            "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy"]
    cases = [
        # nothing to run, and more than one run
        ["--stats", str(tmp_path / "s.json")],
        ["--algorithm", "summa", "--kernel", "gemm", "--stats", str(tmp_path / "s.json")],
        ["--algorithm", "summa", "--expr", "C(i) = A(i)", "--stats", str(tmp_path / "s.json")],
        gemm + ["--expr", "C(i, j) = A(i, k) * B(k, j)", "--schedule", SUMMA_SCRIPT,
                "--stats", str(tmp_path / "s.json")],
        ["--explain", "--algorithm", "summa", "--kernel", "gemm"],
        # a bundle carries its own placements and schedule
        ["--algorithm", "summa", "--dist", "A: xy -> x*", "--stats", str(tmp_path / "s.json")],
        ["--algorithm", "summa", "--schedule", SUMMA_SCRIPT, "--stats", str(tmp_path / "s.json")],
        ["--explain", "--algorithm", "summa", "--schedule", "divide i io ii 2"],
        # --explain runs nothing, so it takes none of a run's outputs
        ["--explain", "--algorithm", "summa", "--verify"],
        ["--explain", "--algorithm", "cannon", "--dump-trace"],
        ["--explain", "--algorithm", "summa", "--output", str(tmp_path / "C.npy")],
        gemm + ["--explain", "--schedule", SUMMA_SCRIPT, "--verify"],
        # placements need a machine to name, --explain too
        ["--explain", "--kernel", "gemm", "--dist", "A: xy -> xy", "--dist", "B: xy -> xy",
         "--dist", "C: xy -> xy"],
        # custom needs a machine, and a schedule
        ["--expr", "b(i) = A(i, j) * c(j)",
         "--schedule", "divide i io ii 2; distribute io"],
        ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy"],
        # an access's index names need commas between them
        ["--expr", "C(i j) = A(i, j)", "--n", "4", "--machine", "2",
         "--dist", "A: xy -> x", "--dist", "C: xy -> x",
         "--schedule", "divide i io ii 2; distribute io"],
        # bad machine text
        ["--kernel", "gemm", "--machine", "2xq",
         "--schedule", "divide i io ii 2; distribute io"],
        # dims arity
        ["--kernel", "gemm", "--dims", "4x4", "--machine", "2x2",
         "--schedule", "divide i io ii 2; distribute io"],
        # missing --dist for B and C
        ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--schedule", SUMMA_SCRIPT],
        # unknown tensor in --dist
        ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
         "--dist", "Q: xy -> xy", "--schedule", SUMMA_SCRIPT],
        # non-numeric extent, for a bundle and for a kernel
        ["--algorithm", "summa", "--dims", "8xq", "--stats", str(tmp_path / "s.json")],
        ["--kernel", "gemm", "--dims", "8x8xq", "--machine", "2x2",
         "--schedule", "divide i io ii 2; distribute io"],
        # ttv indexes three variables, not two
        ["--algorithm", "ttv", "--dims", "4x4", "--stats", str(tmp_path / "s.json")],
        # cosma-like takes the chunk as its sequential k factor
        ["--algorithm", "cosma-like", "--chunk", "0", "--stats", str(tmp_path / "s.json")],
        ["--algorithm", "cosma-like", "--chunk", "-3", "--stats", str(tmp_path / "s.json")],
        # a chunk for an algorithm that takes none
        ["--algorithm", "cannon", "--chunk", "4", "--verify", "--stats", str(tmp_path / "s.json")],
        ["--algorithm", "ttv", "--chunk", "0", "--stats", str(tmp_path / "s.json")],
        # a custom run's chunks live in its schedule script
        ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy",
         "--schedule", SUMMA_SCRIPT, "--chunk", "7", "--stats", str(tmp_path / "s.json")],
        # a second --dist for one tensor
        ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy",
         "--dist", "A: xy -> x*", "--schedule", SUMMA_SCRIPT,
         "--stats", str(tmp_path / "s.json")],
        # leaf is not a schedule command
        ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy",
         "--schedule", SUMMA_SCRIPT + "; leaf ii,ji,ki interpreter"],
        # a directory as the schedule script, paths in missing directories
        ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy",
         "--schedule", str(tmp_path)],
        ["--algorithm", "summa", "--stats", str(tmp_path / "missing" / "s.json")],
        ["--algorithm", "summa", "--stats", str(tmp_path)],
        ["--algorithm", "summa", "--stats", str(tmp_path / "s.json"),
         "--output", str(tmp_path / "missing" / "C.bin")],
        ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy",
         "--schedule", SUMMA_SCRIPT, "--stats", str(tmp_path / "missing" / "s.json")],
        # an empty machine text is an error, not the bundle's default grid
        ["--algorithm", "summa", "--machine", "", "--stats", str(tmp_path / "s.json")],
        ["--explain", "--kernel", "gemm", "--n", "4", "--machine", "",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy"],
        # --n and --dims together, for a bundle, a custom run and --explain
        ["--algorithm", "summa", "--n", "4", "--dims", "8x8x8",
         "--stats", str(tmp_path / "s.json")],
        ["--kernel", "gemm", "--n", "4", "--dims", "8x8x8", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy",
         "--schedule", SUMMA_SCRIPT, "--stats", str(tmp_path / "s.json")],
        ["--explain", "--kernel", "gemm", "--n", "4", "--dims", "8x8x8"],
        # an empty --dims, for a bundle and a custom run
        ["--algorithm", "summa", "--dims", "", "--stats", str(tmp_path / "s.json")],
        ["--kernel", "gemm", "--dims", "", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy",
         "--schedule", SUMMA_SCRIPT, "--stats", str(tmp_path / "s.json")],
        # an extent below 1, refused when the statement is built
        ["--explain", "--kernel", "gemm", "--n", "0"],
        # --stats and --output on one file, however the path is spelt
        ["--algorithm", "summa", "--stats", str(tmp_path / "s.json"),
         "--output", f"{tmp_path}/./s.json"],
        # 10^10 processors, refused before any is enumerated
        ["--algorithm", "summa", "--machine", "100000x100000", "--stats", str(tmp_path / "s.json")],
    ]
    for argv in cases:
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_over_deep_expr_exits_2(tmp_path, capsys):
    # a 1,000-term sum used to end in a RecursionError traceback and exit 1
    expr = "C(i) = " + " + ".join(["A(i)"] * 1000)
    code = run(["--expr", expr, "--n", "4", "--machine", "2",
                "--dist", "C: x -> x", "--dist", "A: x -> x",
                "--schedule", "divide i io ii 2; distribute io",
                "--stats", str(tmp_path / "s.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: expression nests deeper than 256 levels\n"


def test_orphaned_communicate_exits_2(tmp_path, capsys):
    # the split leaves communicate(B, k) on no loop; the run used to ignore it
    code = run(["--kernel", "gemm", "--n", "4", "--machine", "2",
                "--dist", "A: xy -> x", "--dist", "B: xy -> x", "--dist", "C: xy -> x",
                "--schedule", "divide i io ii 2; distribute io; communicate B k; split k ko ki 1",
                "--stats", str(tmp_path / "s.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: communicate(B, k): no loop binds k\n"


def test_summa_hier_takes_its_grid(tmp_path, capsys):
    for machine in ("4x2/2", "2x2/3"):
        assert run(["--algorithm", "summa-hier", "--machine", machine, "--n", "12",
                    "--verify", "--stats", str(tmp_path / "s.json")]) == 0
        assert f"machine {machine}: " in capsys.readouterr().out
    assert run(["--algorithm", "summa-hier", "--machine", "2x2x2",
                "--stats", str(tmp_path / "s.json")]) == 2
    assert "shaped like 2x2/2, got 2x2x2" in capsys.readouterr().err


def test_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    import tendist.cli as cli

    def broken(stmt, inputs, result):
        raise VerifyFail("forced for the exit-code path")

    monkeypatch.setattr(cli, "verify_result", broken)
    code = run(["--algorithm", "summa", "--dims", "4x4x4", "--verify",
                "--stats", str(tmp_path / "s.json")])
    assert code == 1
    assert "verify: FAIL (forced" in capsys.readouterr().err


def test_verify_a_statement_that_reads_its_output(tmp_path, capsys):
    # the reference starts the output at the run's zeros; it used to want a
    # value for C and exit 2
    for expr, dims, dist in (("C(i) = C(i) + A(i)", "4", "x -> x"),
                             ("C(i, j) = C(i, j) * A(i, k)", "4x4x4", "xy -> x")):
        code = run(["--expr", expr, "--dims", dims, "--machine", "2",
                    "--dist", f"C: {dist}", "--dist", f"A: {dist}",
                    "--schedule", "divide i io ii 2; distribute io; communicate A io",
                    "--verify", "--stats", str(tmp_path / "s.json")])
        assert code == 0, capsys.readouterr().err
        assert "verify: OK" in capsys.readouterr().out


def test_kernel_shapes_run(tmp_path):
    code = run(["--kernel", "ttv", "--n", "4", "--machine", "2",
                "--dist", "A: xy -> x", "--dist", "B: xyz -> x",
                "--dist", "c: x -> *",
                "--schedule", "divide i io ii 2; distribute io; communicate c io",
                "--verify", "--stats", str(tmp_path / "s.json")])
    assert code == 0
