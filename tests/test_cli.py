import json
import os
import subprocess
import sys

import pytest

from mfaho.cli import build_parser, main
from mfaho.digraph import PartiteStructure, build_digraph
from mfaho.errors import InputError, InternalVerificationError
from mfaho.generate import gen_lsd_nonstrong, gen_lsd_strong, gen_smd
from mfaho.harness import SolveReport, classify, solve, verify_report
from mfaho.instance_io import MAX_VERTICES, ParseError, parse_instance, serialize_instance
from mfaho.oracle import DEFAULT_WALK_BOUND


def test_parse_text_triangle():
    inst = parse_instance("3 3\n0 1\n1 2\n2 0\n")
    assert inst.digraph.n == 3 and inst.digraph.m == 3
    assert inst.warnings == []


def test_parse_json_digon():
    inst = parse_instance('{"n": 2, "arcs": [[0, 1], [1, 0]]}')
    assert inst.digraph.m == 2


def test_parse_out_of_range_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("2 1\n0 2\n")


def test_parse_self_loop_is_error():
    with pytest.raises(ParseError, match="self-loop"):
        parse_instance("3 1\n1 1\n")


def test_parse_vertex_limit():
    # checked first: the boundary case below builds a digraph of that size
    assert MAX_VERTICES == 100_000
    assert parse_instance(f"{MAX_VERTICES} 0\n").digraph.n == MAX_VERTICES
    with pytest.raises(ParseError, match="line 2"):
        parse_instance(f"# comment\n{MAX_VERTICES + 1} 0\n")
    with pytest.raises(ParseError, match="exceeds"):
        parse_instance(f'{{"n": {MAX_VERTICES + 1}, "arcs": []}}')
    with pytest.raises(ParseError, match="nonnegative"):
        parse_instance('{"n": -1, "arcs": []}')


def test_parse_duplicate_arc_is_warning():
    inst = parse_instance("2 2\n0 1\n0 1\n")
    assert inst.digraph.m == 1
    assert any("duplicate" in w for w in inst.warnings)


def test_parse_comments_and_parts():
    text = "# a comment\n3 2\n0 1\n1 2\n part 0 2\npart 1\n"
    inst = parse_instance(text)
    assert inst.parts is not None
    assert inst.parts.parts[0] == frozenset({0, 2})


def test_roundtrip_text_and_json():
    d, parts = gen_smd((2, 2, 1), seed=5)
    for fmt in ("text", "json"):
        text = serialize_instance(d, parts, fmt=fmt)
        back = parse_instance(text)
        assert back.digraph == d
        assert back.parts is not None
        assert set(back.parts.parts) == set(parts.parts)


def test_classify_triangle():
    rep = classify(build_digraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert rep.is_smd and rep.is_lsd and rep.strong and rep.semicomplete
    assert rep.partite_sizes == (1, 1, 1)
    assert rep.hc_majority is True


def test_classify_acyclic_path():
    rep = classify(build_digraph(3, [(0, 1), (1, 2)]))
    assert rep.is_smd and rep.is_lsd
    assert rep.partite_sizes == (2, 1)
    assert not rep.strong and not rep.two_connected


def test_classify_neither():
    # 0-3 and 1-2 nonadjacent but 2-3 adjacent: non-adjacency is not
    # transitive, and the out-neighbourhood of 0 is not semicomplete
    rep = classify(build_digraph(4, [(0, 1), (0, 2), (2, 3)]))
    assert not rep.is_smd and not rep.is_lsd


def test_classify_out_star():
    # an out-oriented star is complete bipartite underneath, hence an SMD;
    # the leaves make the centre's out-neighbourhood non-semicomplete
    rep = classify(build_digraph(4, [(0, 1), (0, 2), (0, 3)]))
    assert rep.is_smd and rep.partite_sizes == (3, 1)
    assert not rep.is_lsd


def test_solve_semicomplete_runs_both_and_agrees():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    rep = solve(d, "mfahoc")
    assert rep.detected_class == "both"
    assert rep.sigma == 3
    assert rep.branch.startswith("both:")


def test_solve_lsd_path_problem():
    d = build_digraph(4, [(0, 1), (1, 0), (1, 2), (0, 2), (2, 3)])
    assert classify(d).is_lsd and not classify(d).is_smd
    rep = solve(d, "mfahop")
    assert rep.sigma == 3 and rep.branch == "lsd-path"


def test_solve_none_case_reports_zero_for_lsd_cycle():
    # LSD but not SMD (2,3 adjacent while both miss 0), with 1 a cut vertex
    d = build_digraph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    rep = solve(d, "mfahoc")
    assert rep.detected_class == "lsd"
    assert rep.status == "none"
    assert rep.sigma == 0


TWO_TRIANGLES = "6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n"


def test_disconnected_lsd_has_no_path_and_refuses_a_cycle(tmp_path, capsys):
    d = parse_instance(TWO_TRIANGLES).digraph
    rep = solve(d, "mfahop")
    assert (rep.detected_class, rep.status, rep.sigma) == ("lsd", "none", None)
    with pytest.raises(InputError):
        solve(d, "mfahoc")
    inst = tmp_path / "triangles.dg"
    inst.write_text(TWO_TRIANGLES)
    code, out, _ = run_cli(capsys, "solve", str(inst), "--problem", "mfahop")
    assert code == 2 and json.loads(out)["sigma"] is None
    code, out, _ = run_cli(capsys, "solve", str(inst), "--problem", "mfahoc")
    assert code == 3 and out == ""


def _report_fields(rep):
    return {k: v for k, v in rep.to_dict().items() if k != "elapsed_ms"}


@pytest.mark.parametrize("problem", ["mfahoc", "mfahop"])
def test_solve_ignores_the_order_of_the_part_lines(problem):
    d, parts = gen_smd((3, 2, 2, 1), seed=4)
    text = serialize_instance(d, parts)
    lines = text.splitlines(keepends=True)
    arc_lines = [line for line in lines if not line.startswith("part")]
    shuffled = [
        "part " + " ".join(map(str, sorted(p, reverse=True))) + "\n" for p in reversed(parts.parts)
    ]
    inst, moved = parse_instance(text), parse_instance("".join(arc_lines + shuffled))
    assert moved.parts.parts != inst.parts.parts
    expected = _report_fields(solve(parse_instance(text).digraph, problem))
    assert _report_fields(solve(inst.digraph, problem, inst.parts)) == expected
    assert _report_fields(solve(moved.digraph, problem, moved.parts)) == expected


@pytest.mark.parametrize("problem", ["mfahoc", "mfahop"])
def test_solve_refuses_a_partition_with_a_part_split_in_two(problem):
    d, parts = gen_smd((3, 2, 2), seed=4)
    first = sorted(parts.parts[0])
    split = PartiteStructure.from_parts(d.n, [first[:1], first[1:], *parts.parts[1:]])
    with pytest.raises(InputError):
        solve(d, problem, split)


def test_verify_detects_tampered_sigma():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    rep = solve(d, "mfahoc")
    assert verify_report(d, rep) == []
    tampered = SolveReport.from_dict({**rep.to_dict(), "sigma": rep.sigma + 1})
    problems = verify_report(d, tampered)
    assert any("sigma mismatch" in p for p in problems)


def test_verify_names_nonadjacent_pair():
    d = build_digraph(3, [(0, 1), (1, 2)])
    rep = solve(d, "mfahop")
    bad = SolveReport.from_dict({**rep.to_dict(), "walk": [1, 0, 2], "forward_mask": None})
    problems = verify_report(d, bad)
    assert any("nonadjacent pair" in p for p in problems)


# --- command-line entry points ---------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_gen_solve_verify_pipeline(tmp_path, capsys):
    inst = tmp_path / "smd.dg"
    code, _, _ = run_cli(
        capsys, "gen", "smd", "--sizes", "2,2,1", "--seed", "7", "-o", str(inst)
    )
    assert code == 0
    code, out, err = run_cli(capsys, "solve", str(inst), "--problem", "mfahoc")
    assert code == 0
    report = tmp_path / "report.json"
    report.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(inst), str(report))
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_cli_gen_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "gen", "smd", "--sizes", "3,2", "--seed", "11")
    code2, out2, _ = run_cli(capsys, "gen", "smd", "--sizes", "3,2", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "gen", "smd", "--sizes", "3,2", "--seed", "12")
    assert out3 != out1


def test_cli_gen_rejects_single_part(capsys):
    code, _, err = run_cli(capsys, "gen", "smd", "--sizes", "5", "--seed", "1")
    assert code == 3
    assert "2 partite sets" in err


def test_cli_gen_output_that_cannot_be_written_exits_3(tmp_path, capsys):
    argv = ("gen", "smd", "--sizes", "2,2", "--seed", "1", "-o", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert out == ""


def test_cli_gen_lsd_variants(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "lsd", "--components", "1,2,1", "--seed", "1")
    assert code == 0
    inst = parse_instance(out)
    assert classify(inst.digraph).is_lsd
    code, out, _ = run_cli(capsys, "gen", "lsd", "--strong", "--n", "8", "--seed", "2")
    assert code == 0
    rep = classify(parse_instance(out).digraph)
    assert rep.is_lsd and rep.strong


def test_cli_solve_no_structure_exits_2(tmp_path, capsys):
    inst = tmp_path / "p.dg"
    inst.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "solve", str(inst), "--problem", "mfahoc")
    assert code == 2
    assert json.loads(out)["sigma"] == 0


def test_cli_solve_unsupported_class_exits_3(tmp_path, capsys):
    inst = tmp_path / "bad.dg"
    inst.write_text("4 3\n0 1\n0 2\n2 3\n")
    code, _, err = run_cli(capsys, "solve", str(inst), "--problem", "mfahoc")
    assert code == 3
    assert "neither" in err


def test_cli_malformed_input_exits_3_with_line(tmp_path, capsys):
    inst = tmp_path / "m.dg"
    inst.write_text("2 1\n0 7\n")
    code, _, err = run_cli(capsys, "solve", str(inst), "--problem", "mfahop")
    assert code == 3
    assert "line 2" in err


def test_cli_verify_fail_exits_4(tmp_path, capsys):
    inst = tmp_path / "t.dg"
    inst.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run_cli(capsys, "solve", str(inst), "--problem", "mfahoc")
    payload = json.loads(out)
    payload["sigma"] = 1
    rep = tmp_path / "r.json"
    rep.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "verify", str(inst), str(rep))
    assert code == 4
    assert json.loads(out)["verified"] is False


# Runs `main` in a child process capped at 4 GB of address space, so a parser
# that did allocate per vertex fails this test instead of exhausting memory.
# The child prints how long `main` took.
_CAPPED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from mfaho.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def test_cli_hostile_header_exits_3_quickly(tmp_path):
    inst = tmp_path / "huge.dg"
    inst.write_text("1000000000 0\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "classify", str(inst)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "line 1" in proc.stderr
    assert float(proc.stdout.split()[-1]) < 1.0


def test_cli_oracle_subcommand(tmp_path, capsys):
    inst = tmp_path / "t.dg"
    inst.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run_cli(capsys, "oracle", str(inst), "--problem", "mfahoc")
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_cli_oracle_bound_exits_3(tmp_path, capsys):
    arcs = [(i, (i + 1) % 19) for i in range(19)]
    inst = tmp_path / "big.dg"
    inst.write_text(serialize_instance(build_digraph(19, arcs)))
    code, _, err = run_cli(capsys, "oracle", str(inst), "--problem", "mfahoc")
    assert code == 3
    assert "bound" in err


def test_cli_oracle_bound_defaults_to_the_oracle_constant(tmp_path, capsys):
    args = build_parser().parse_args(["oracle", "x.dg", "--problem", "mfahop"])
    assert args.oracle_bound == DEFAULT_WALK_BOUND
    # a larger --oracle-bound cannot lift the hard maximum on the table size
    arcs = [(i, (i + 1) % 40) for i in range(40)]
    inst = tmp_path / "huge.dg"
    inst.write_text(serialize_instance(build_digraph(40, arcs)))
    code, _, err = run_cli(
        capsys, "oracle", str(inst), "--problem", "mfahop", "--oracle-bound", "40"
    )
    assert code == 3
    assert "hard bound" in err


def test_cli_batch_mode(tmp_path, capsys):
    for seed in (1, 2):
        d, parts = gen_smd((2, 2), seed=seed)
        (tmp_path / f"s{seed}.dg").write_text(serialize_instance(d, parts))
    (tmp_path / "broken.dg").write_text("2 1\n0 9\n")
    code, out, err = run_cli(
        capsys, "solve", "--batch", str(tmp_path), "--problem", "mfahop"
    )
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    assert sum(1 for rec in lines if "error" in rec) == 1
    assert code == 3  # the broken file dominates the exit code


def test_cli_batch_records_unreadable_and_failing_files(tmp_path, capsys, monkeypatch):
    # an undecodable file, a solve that fails its own verification and a
    # time limit each give an error record, and the files after them are
    # still solved
    import mfaho.cli as cli_mod

    d, parts = gen_smd((2, 2), seed=1)
    for name in ("a", "c"):
        (tmp_path / f"{name}.dg").write_text(serialize_instance(d, parts))
    (tmp_path / "b.dg").write_bytes(b"3 3\n0 1\n1 2\n2 \xff\n")
    code, out, err = run_cli(capsys, "solve", "--batch", str(tmp_path), "--problem", "mfahop")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["file"] for r in records] == ["a.dg", "b.dg", "c.dg"]
    assert "error" in records[1] and records[2]["status"] == "ok"
    assert code == 3 and "b.dg: error: cannot read" in err

    solve_one = cli_mod._solve_one

    def fail_on_the_triangle(d, problem, parts):
        if d.n == 3:
            raise InternalVerificationError("forced")
        return solve_one(d, problem, parts)

    (tmp_path / "b.dg").write_text("3 3\n0 1\n1 2\n2 0\n")
    monkeypatch.setattr(cli_mod, "_solve_one", fail_on_the_triangle)
    code, out, _ = run_cli(capsys, "solve", "--batch", str(tmp_path), "--problem", "mfahop")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [("error" in r) for r in records] == [False, True, False]
    assert records[1]["error"] == "forced" and code == 4

    def stall(*args, **kwargs):
        import time as _time

        _time.sleep(5)

    monkeypatch.setattr(cli_mod, "_solve_one", stall)
    code, out, _ = run_cli(
        capsys, "solve", "--batch", str(tmp_path), "--problem", "mfahop", "--time-limit", "0.05"
    )
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["error"] for r in records] == ["time limit exceeded"] * 3 and code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{bad}", "--problem", "mfahoc"],
        ["solve", "{dir}", "--problem", "mfahoc"],
        ["classify", "{bad}"],
        ["classify", "{dir}"],
        ["oracle", "{bad}", "--problem", "mfahop"],
        ["oracle", "{dir}", "--problem", "mfahop"],
        ["verify", "{bad}", "{report}"],
        ["verify", "{good}", "{bad}"],
        ["verify", "{good}", "{dir}"],
    ],
)
def test_cli_unreadable_input_exits_3(tmp_path, capsys, argv):
    # invalid UTF-8 and a directory, given as the instance or as the report
    files = {"bad": tmp_path / "bad.dg", "good": tmp_path / "good.dg", "dir": tmp_path}
    files["bad"].write_bytes(b"3 3\n0 1\n1 2\n2 \xff\n")
    files["good"].write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run_cli(capsys, "solve", str(files["good"]), "--problem", "mfahoc")
    files["report"] = tmp_path / "report.json"
    files["report"].write_text(out)
    code, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
    assert code == 3 and out == ""
    assert err.startswith("error: cannot read")


def test_cli_verify_refuses_a_sigma_on_a_none_report(tmp_path, capsys):
    inst = tmp_path / "p.dg"
    inst.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "solve", str(inst), "--problem", "mfahoc")
    assert code == 2
    rep = tmp_path / "r.json"
    for sigma, expected in ((0, 0), (None, 0), (3, 4), (-1, 4)):
        rep.write_text(json.dumps({**json.loads(out), "sigma": sigma}))
        code, verdict, _ = run_cli(capsys, "verify", str(inst), str(rep))
        assert code == expected, sigma
        assert json.loads(verdict)["verified"] is (expected == 0)


def test_cli_stdin_instance(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("3 3\n0 1\n1 2\n2 0\n"))
    code, out, _ = run_cli(capsys, "solve", "-", "--problem", "mfahoc")
    assert code == 0
    assert json.loads(out)["sigma"] == 3


def test_cli_mfahop_on_no_vertices_exits_3(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    code, out, err = run_cli(capsys, "solve", "-", "--problem", "mfahop")
    assert code == 3 and out == ""
    assert "needs at least 1 vertex, the digraph has 0" in err


def test_cli_time_limit_generous_passes(tmp_path, capsys):
    inst = tmp_path / "t.dg"
    inst.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run_cli(
        capsys, "solve", str(inst), "--problem", "mfahoc", "--time-limit", "30"
    )
    assert code == 0


def test_cli_time_limit_expiry_exits_3(tmp_path, capsys, monkeypatch):
    import mfaho.cli as cli_mod

    inst = tmp_path / "t.dg"
    inst.write_text("3 3\n0 1\n1 2\n2 0\n")

    def stall(*args, **kwargs):
        import time as _time

        _time.sleep(5)

    monkeypatch.setattr(cli_mod, "_solve_one", stall)
    code, _, err = run_cli(
        capsys, "solve", str(inst), "--problem", "mfahoc", "--time-limit", "0.05"
    )
    assert code == 3
    assert "time limit" in err


@pytest.mark.parametrize("command, slow", [("classify", "classify"), ("verify", "verify_report")])
def test_cli_time_limit_applies_to_classify_and_verify(tmp_path, capsys, monkeypatch, command, slow):
    import mfaho.cli as cli_mod

    inst = tmp_path / "t.dg"
    inst.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run_cli(capsys, "solve", str(inst), "--problem", "mfahoc")
    assert code == 0
    report = tmp_path / "report.json"
    report.write_text(out)

    def stall(*args, **kwargs):
        import time as _time

        _time.sleep(5)

    monkeypatch.setattr(cli_mod, slow, stall)
    where = [str(inst)] + ([str(report)] if command == "verify" else [])
    code, _, err = run_cli(capsys, command, *where, "--time-limit", "0.05")
    assert code == 3
    assert "time limit exceeded" in err


@pytest.mark.parametrize("limit", ["-1", "0", "nan", "inf", "-inf", "1e300"])
@pytest.mark.parametrize("batch", [False, True])
def test_cli_bad_time_limit_exits_3(tmp_path, capsys, limit, batch):
    inst = tmp_path / "t.dg"
    inst.write_text("3 3\n0 1\n1 2\n2 0\n")
    where = ["--batch", str(tmp_path)] if batch else [str(inst)]
    code, _, err = run_cli(capsys, "solve", *where, "--problem", "mfahoc", f"--time-limit={limit}")
    assert code == 3
    assert "time-limit" in err


_OK_REPORT = {
    "digest": "0" * 64, "problem": "mfahoc", "detected_class": "both", "status": "ok",
    "sigma": 3, "walk": [0, 1, 2], "forward_mask": [True, True, True],
    "branch": "both:cycle-hamiltonian-merged", "elapsed_ms": 1.0,
}


@pytest.mark.parametrize(
    "payload",
    [
        [],
        "x",
        None,
        3,
        {k: v for k, v in _OK_REPORT.items() if k != "walk"},
        {**_OK_REPORT, "walk": 5},
        {**_OK_REPORT, "walk": "012"},
        {**_OK_REPORT, "walk": [0, 1, 2, 3, "a"]},
        {**_OK_REPORT, "walk": [0, 1, 2.0]},
        {**_OK_REPORT, "walk": [0, True, 2]},
        {**_OK_REPORT, "walk": {"0": 1}},
        {**_OK_REPORT, "forward_mask": [1, 1, 1]},
        {**_OK_REPORT, "forward_mask": True},
        {**_OK_REPORT, "forward_mask": [True, None, True]},
        {**_OK_REPORT, "sigma": "3"},
        {**_OK_REPORT, "sigma": 3.0},
        {**_OK_REPORT, "sigma": True},
        {**_OK_REPORT, "sigma": [3]},
        {**_OK_REPORT, "problem": "banana"},
        {**_OK_REPORT, "status": "maybe"},
    ],
)
def test_cli_verify_malformed_report_exits_3(tmp_path, capsys, payload):
    inst = tmp_path / "t.dg"
    inst.write_text("3 3\n0 1\n1 2\n2 0\n")
    rep = tmp_path / "r.json"
    rep.write_text(json.dumps(payload))
    with pytest.raises(InputError):
        SolveReport.from_dict(payload)
    code, out, err = run_cli(capsys, "verify", str(inst), str(rep))
    assert code == 3
    assert out == "" and err.startswith("error: report")


def test_report_round_trips_through_its_dict(tmp_path):
    d = build_digraph(3, [(0, 1), (1, 2)])
    for problem in ("mfahoc", "mfahop"):
        rep = solve(d, problem)
        payload = json.loads(rep.to_json())
        assert SolveReport.from_dict(payload) == rep
        payload.pop("elapsed_ms")
        assert SolveReport.from_dict({**payload, "file": "x.dg"}).elapsed_ms == 0.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lsd", "--components", "3,3", "--reach-prob", "2"], "[0, 1]"),
        (["lsd", "--components", "3,3", "--reach-prob", "-0.5"], "[0, 1]"),
        (["lsd", "--components", "3,3", "--reach-prob", "nan"], "[0, 1]"),
        (["lsd", "--components", "3,3", "--digon-prob", "1.5"], "[0, 1]"),
        (["lsd", "--components", "3,3", "--digon-prob", "-1"], "[0, 1]"),
        (["lsd", "--strong", "--n", "6", "--spread", "0"], "spread"),
        (["lsd", "--strong", "--n", "6", "--spread", "-3"], "spread"),
        (["smd", "--sizes", "3,3", "--bias", "2"], "[0, 1]"),
    ],
)
def test_cli_gen_rejects_out_of_range_arguments(capsys, argv, message):
    code, out, err = run_cli(capsys, "gen", *argv, "--seed", "1")
    assert code == 3
    assert out == "" and message in err


def test_generators_accept_the_edges_of_their_ranges():
    for p in (0.0, 1.0):
        assert gen_lsd_nonstrong((2, 1, 2), 3, digon_prob=p, reach_prob=p).n == 5
    assert gen_lsd_strong(6, 3, spread=1).m == 6
