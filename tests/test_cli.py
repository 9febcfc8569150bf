import json

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
    assert "generated_at" in stats


def test_stats_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["--algorithm", "cannon", "--n", "6", "--machine", "3x3",
                    "--seed", "4", "--stats", str(path)]) == 0
    sa, sb = json.loads(a.read_text()), json.loads(b.read_text())
    sa.pop("generated_at")
    sb.pop("generated_at")
    assert sa == sb
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
    lines = [l for l in out.splitlines() if l.startswith("step ")]
    assert len(lines) == 8
    assert ("step 0 compute copy A [0,2)x[2,4): (0, 1) -> (0, 0) "
            "(4 elements)") in lines


def test_edges_csv(tmp_path):
    csv_path = tmp_path / "edges.csv"
    code = run(["--algorithm", "summa", "--dims", "4x4x4", "--chunk", "2",
                "--edges-csv", str(csv_path),
                "--stats", str(tmp_path / "s.json")])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "src,dst,messages,elements"
    assert sum(int(l.split(",")[3]) for l in lines[1:]) == 32


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


def test_explain_rejects_algorithm_mode(capsys):
    code = run(["--algorithm", "summa", "--explain"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: --explain works with" in err


def test_config_errors_exit_2(tmp_path, capsys, monkeypatch):
    import tendist.cli as cli
    from tendist.algorithms import AlgorithmBundle

    def ran(*args, **kwargs):
        raise AssertionError("every case must fail before the run starts")

    monkeypatch.setattr(AlgorithmBundle, "run", ran)
    monkeypatch.setattr(cli, "run_statement", ran)
    cases = [
        # nothing to run
        ["--stats", str(tmp_path / "s.json")],
        # custom needs a machine
        ["--expr", "b(i) = A(i, j) * c(j)",
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
        # a second --dist for one tensor
        ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy",
         "--dist", "A: xy -> x*", "--schedule", SUMMA_SCRIPT,
         "--stats", str(tmp_path / "s.json")],
        # a directory as the schedule script, paths in missing directories
        ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy",
         "--schedule", str(tmp_path)],
        ["--algorithm", "summa", "--stats", str(tmp_path / "missing" / "s.json")],
        ["--algorithm", "summa", "--stats", str(tmp_path / "s.json"),
         "--edges-csv", str(tmp_path / "missing" / "e.csv")],
        ["--algorithm", "summa", "--stats", str(tmp_path)],
        ["--kernel", "gemm", "--n", "4", "--machine", "2x2",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy",
         "--schedule", SUMMA_SCRIPT, "--stats", str(tmp_path / "missing" / "s.json")],
        # an empty machine text is an error, not the bundle's default grid
        ["--algorithm", "summa", "--machine", "", "--stats", str(tmp_path / "s.json")],
        ["--explain", "--kernel", "gemm", "--n", "4", "--machine", "",
         "--dist", "A: xy -> xy", "--dist", "B: xy -> xy", "--dist", "C: xy -> xy"],
    ]
    for argv in cases:
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    import tendist.cli as cli

    def broken(stmt, inputs, result, atol=1e-9):
        raise VerifyFail("forced for the exit-code path")

    monkeypatch.setattr(cli, "verify_result", broken)
    code = run(["--algorithm", "summa", "--dims", "4x4x4", "--verify",
                "--stats", str(tmp_path / "s.json")])
    assert code == 1
    assert "verify: FAIL (forced" in capsys.readouterr().err


def test_kernel_shapes_run(tmp_path):
    code = run(["--kernel", "ttv", "--n", "4", "--machine", "2",
                "--dist", "A: xy -> x", "--dist", "B: xyz -> x",
                "--dist", "c: x -> *",
                "--schedule", "divide i io ii 2; distribute io; communicate c io",
                "--verify", "--stats", str(tmp_path / "s.json")])
    assert code == 0
