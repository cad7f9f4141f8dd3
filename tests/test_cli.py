"""End-to-end command line checks, driving cli.main directly."""

import json
from pathlib import Path

import pytest

from nicebasis.cli import main

FIX = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestCheck:
    def test_nice_fixture(self, capsys):
        code, out, _ = run(capsys, "check", FIX / "l5.lie")
        assert code == 0
        assert "nice" in out

    def test_not_nice_fixture(self, capsys):
        code, out, _ = run(capsys, "check", FIX / "n6.lie")
        assert code == 1
        assert "CONDITION_2" in out
        # violations are reported with 1-based indices
        assert "target=6" in out

    def test_json_shape(self, capsys):
        code, rep, _ = run_json(capsys, "check", FIX / "n6.lie")
        assert code == 1
        assert rep["command"] == "check"
        assert rep["nice"] is False
        assert str(FIX / "n6.lie") in rep["inputs"]
        kinds = {v["kind"] for v in rep["violations"]}
        assert kinds <= {"CONDITION_1", "CONDITION_2"}


class TestPreEinstein:
    def test_h3_diagonal(self, capsys):
        code, out, _ = run(capsys, "pre-einstein", FIX / "h3.lie")
        assert code == 0
        assert "2/3" in out and "4/3" in out

    def test_json(self, capsys):
        code, rep, _ = run_json(capsys, "pre-einstein", FIX / "l5.lie")
        assert code == 0
        assert len(rep["diagonal"]) == 5

    def test_rejects_non_nice(self, capsys):
        code, _, err = run(capsys, "pre-einstein", FIX / "n6.lie")
        assert code == 1
        assert err


class TestNuProduct:
    def test_disjoint_pair(self, capsys):
        code, rep, _ = run_json(
            capsys, "nu-product", FIX / "l5.lie", FIX / "l7.lie"
        )
        assert code == 0
        assert rep["nu"] == 1

    def test_overlapping_pair(self, capsys):
        code, _, _ = run(capsys, "nu-product", FIX / "l5.lie", FIX / "l5.lie")
        assert code == 1


class TestAA:
    def test_cyclic4(self, capsys):
        code, out, _ = run(capsys, "aa", FIX / "cyclic4.mat")
        assert code == 0
        assert "nu 3" in out

    def test_cyclic4_json(self, capsys):
        code, rep, _ = run_json(capsys, "aa", FIX / "cyclic4.mat")
        assert code == 0
        assert rep["exists"] == "yes"
        assert rep["nu"] == 3

    def test_no_nice_basis(self, capsys):
        code, rep, _ = run_json(capsys, "aa", FIX / "jordan_d.mat")
        assert code == 1
        assert rep["exists"] == "no"

    def test_root64_witness(self, capsys):
        code, rep, _ = run_json(capsys, "aa", FIX / "root64.mat")
        assert code == 0
        assert rep["nu"] == 1
        assert len(rep["witness"]) == 4


class TestGraph:
    def test_triangle_c3(self, capsys):
        code, rep, _ = run_json(capsys, "graph", FIX / "triangle_c3.graph")
        assert code == 1
        assert rep["nice"] is False
        assert rep["tag"] == "contains-3-cycle"

    def test_p3_c3_with_basis(self, capsys):
        code, out, _ = run(capsys, "graph", FIX / "p3_c3.graph", "--nice")
        assert code == 0
        assert "dimension 10" in out

    def test_emit_algebra(self, capsys, tmp_path):
        out_file = tmp_path / "p3.lie"
        code, _, _ = run(
            capsys, "graph", FIX / "p3_c2.graph", "--emit-algebra", out_file
        )
        assert code == 0
        from nicebasis import load_lie

        assert load_lie(out_file).dim == 5


class TestCatalog3:
    def test_table(self, capsys):
        code, rep, _ = run_json(capsys, "catalog3")
        assert code == 0
        by_name = {row["name"]: row for row in rep["rows"]}
        assert by_name["sl2"]["nu"] == 2
        assert by_name["aa(D)"]["nu"] == 0


class TestUsage:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", FIX / "does_not_exist.lie")
        assert code == 2
        assert "error" in err

    def test_wrong_format(self, capsys):
        code, _, _ = run(capsys, "aa", FIX / "h3.lie")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "n6.lie", "--json"),
            ("pre-einstein", "l6.lie"),
            ("aa", "cyclic4.mat", "--json"),
            ("catalog3", "--json"),
        ],
    )
    def test_stdout_stable(self, capsys, argv):
        argv = [str(FIX / a) if "." in a else a for a in argv]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def _fixture_runs():
    for path in sorted(FIX.iterdir()):
        if path.suffix == ".lie":
            yield from (["check", path], ["pre-einstein", path], ["nu-product", path])
        elif path.suffix == ".mat":
            yield ["aa", path]
        elif path.suffix == ".graph":
            yield from (["graph", path], ["graph", "--nice", path])


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv", list(_fixture_runs()),
                         ids=lambda argv: " ".join(str(getattr(a, "name", a)) for a in argv))
def test_every_fixture_every_subcommand(capsys, argv, as_json):
    # a valid fixture gets a verdict (0 or 1), never a usage error or a crash;
    # a command that refuses its input (pre-einstein on a basis that is not
    # nice) says why on stderr and prints no report
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code in (0, 1)
    assert "Traceback" not in err
    assert out.strip() or (code == 1 and err.startswith("error: "))
    if as_json and out:
        json.loads(out)


class TestNilpotentAA:
    @pytest.mark.parametrize("name", ["nilpotent_c.mat", "zero_b.mat"])
    def test_nilpotent_has_a_nice_basis(self, capsys, name):
        code, rep, _ = run_json(capsys, "aa", FIX / name)
        assert code == 0
        assert rep["exists"] == "yes"
        assert rep["nu"] == 1
        assert rep["factorizations"] == []


@pytest.mark.parametrize("argv,text", [
    (["check"], "dim\n"),
    (["pre-einstein"], "dim 3 4\nbracket 1 2 3 1\n"),
    (["check"], "dim 3\nbracket 1 2 3 1/0\n"),
    (["aa"], "2\n1/0 0\n0 1\n"),
    (["aa"], "x\n1\n"),
    (["graph", "--nice"], "vertices 3\nclass 3\nedge 1\n"),
    (["graph"], "vertices\nclass 3\n"),
    (["graph"], "vertices 3\nclass 3\nedge 1 2 3\n"),
], ids=["dim-no-value", "dim-two-values", "bracket-zero-denominator",
        "matrix-zero-denominator", "matrix-bad-size", "edge-one-endpoint",
        "vertices-no-value", "edge-three-endpoints"])
def test_malformed_input_exits_2_with_one_line(capsys, tmp_path, argv, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv, path)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
