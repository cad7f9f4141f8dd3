"""End-to-end command line checks, driving cli.main directly."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nicebasis import cli, derivations, graphs, reproduce
from nicebasis.almost_abelian import build, load_matrix
from nicebasis.cli import main
from nicebasis.linalg import Matrix
from nicebasis.nice import NiceVerdict, check_nice
from nicebasis.scalars import Q

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"

# the two unknown-irrational examples: x^2 - x - 1 and x^4 - 4x^2 + 1
GOLDEN = "2\n0 1\n1 1\n"
QUARTIC = "4\n0 0 0 -1\n1 0 0 0\n0 1 0 4\n0 0 1 0\n"


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


    def test_condition_1_is_reported_1_based(self, capsys, tmp_path):
        # [e1, e2] = e3 + e4: one pair with two targets
        path = tmp_path / "input.lie"
        path.write_text("dim 4\nbracket 1 2 3 1\nbracket 1 2 4 1\n")
        code, out, _ = run(capsys, "check", path)
        assert (code, out) == (1, "not nice\nCONDITION_1 pair=1,2 targets=3,4\n")
        code, rep, _ = run_json(capsys, "check", path)
        assert code == 1
        assert rep["violations"] == [{"kind": "CONDITION_1", "pair": [1, 2], "targets": [3, 4]}]


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

    def test_not_nice_factor(self, capsys):
        code, out, err = run(capsys, "nu-product", FIX / "l5.lie", FIX / "n6.lie")
        assert code == 1
        assert out == ""
        assert err.splitlines()[0] == f"error: {FIX / 'n6.lie'}: defining basis is not nice"

    def test_one_niceness_check_per_file(self, capsys, monkeypatch):
        calls = []
        for module in (cli, derivations):
            monkeypatch.setattr(module, "check_nice", lambda g: calls.append(g) or check_nice(g))
        code, _, _ = run(capsys, "nu-product", FIX / "l5.lie", FIX / "l7.lie")
        assert code == 0
        assert [g.dim for g in calls] == [5, 7]


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

    def test_large_smooth_constant_term(self, capsys, tmp_path):
        # the root of x - 10^20 is isolated on the Sturm chain, with no
        # candidate divisors of 10^20 listed
        path = tmp_path / "big.mat"
        path.write_text("1\n100000000000000000000\n")
        code, out, _ = run(capsys, "aa", path)
        assert code == 0
        assert "factorization (x - 100000000000000000000)" in out
        assert "nu 1" in out

    def test_prime_constant_term_answers(self, capsys, tmp_path):
        # the prime 2^61 - 1 is isolated on the Sturm chain, never factored
        path = tmp_path / "prime.mat"
        path.write_text("1\n2305843009213693951\n")
        code, out, _ = run(capsys, "aa", path)
        assert code == 0
        assert "factorization (x - 2305843009213693951)" in out
        assert "nu 1" in out

    def test_constant_term_beyond_trial_division(self, capsys, tmp_path):
        # a product of two primes above 10^7: the root is isolated on the
        # Sturm chain, so the constant term is never factored
        path = tmp_path / "semiprime.mat"
        path.write_text(f"1\n{10000019 * 10000079}\n")
        code, out, _ = run(capsys, "aa", path)
        assert code == 0
        assert "exists yes" in out
        assert "factorization (x - 100000980001501)" in out
        assert "nu 1" in out

    def test_companion_of_two_large_primes(self, capsys, tmp_path):
        # char poly (x - p)(x - q) with p, q above 10^7: the roots come off the
        # Sturm chain, and nothing factors the constant term pq
        p, q = 2**61 - 1, 2**31 - 1
        path = tmp_path / "pq.mat"
        path.write_text(f"2\n0 {-p * q}\n1 {p + q}\n")
        start = time.perf_counter()
        code, rep, _ = run_json(capsys, "aa", path)
        assert time.perf_counter() - start < 0.1
        assert code == 0
        assert rep["nu"] == 1
        witness = Matrix([[Q(x) for x in row] for row in rep["witness"]])
        assert check_nice(build(load_matrix(path)).compiled.change_basis(witness))

    def test_random_integer_matrices_never_exit_2(self, capsys, tmp_path):
        # n = 2..4, 100 matrices each with entries within 10^3, 10^6 and 10^9
        rng, path, codes = random.Random(11), tmp_path / "m.mat", set()
        for bound in (10**3, 10**6, 10**9):
            for _ in range(100):
                n = rng.randint(2, 4)
                rows = [" ".join(str(rng.randint(-bound, bound)) for _ in range(n))
                        for _ in range(n)]
                path.write_text(f"{n}\n" + "\n".join(rows) + "\n")
                codes.add(run(capsys, "aa", path)[0])
        assert codes <= {0, 1}


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

    @pytest.mark.parametrize("name,code,expected", [
        ("p3_c2", 0, "nice (class-at-most-2)\ndimension 5\n"
         + "".join("basis " + " ".join("1" if i == j else "0" for i in range(5)) + "\n"
                   for j in range(5))),
        ("p3_c3", 0, "nice (triangle-free)\ndimension 10\n"
         + "".join("basis " + " ".join("1" if i == j else "0" for i in range(10)) + "\n"
                   for j in range(10))),
        ("p3_c4", 1, "not nice (contains-path-on-3-vertices)\ndimension 20\n"),
        ("p3_c5", 1, "not nice (has-edge-in-class-5-or-more)\ndimension 44\n"),
        ("triangle_c3", 1, "not nice (contains-3-cycle)\ndimension 14\n"),
    ])
    def test_nice_stdout_is_pinned(self, capsys, name, code, expected):
        # graph --nice builds the quotient once and prints what two builds did
        assert run(capsys, "graph", "--nice", FIX / f"{name}.graph")[:2] == (code, expected)

    def test_widest_graph_under_the_cap(self, capsys, tmp_path):
        # the 22-vertex path at class 2: its free algebra (22 + 231 = 253)
        # is the widest under DIMENSION_CAP, and the quotient keeps the
        # letters and the 21 edge brackets.  Classifying every vertex subset
        # instead of the supports that occur would take many seconds.
        path = tmp_path / "p22.graph"
        edges = "".join(f"edge {a} {a + 1}\n" for a in range(1, 22))
        path.write_text("vertices 22\nclass 2\n" + edges)
        start = time.perf_counter()
        code, out, _ = run(capsys, "graph", "--nice", path)
        assert time.perf_counter() - start < 2
        assert code == 0 and out.splitlines()[:2] == ["nice (class-at-most-2)", "dimension 43"]

    def test_dimension_cap_error_is_one_short_line(self, capsys, tmp_path, monkeypatch):
        # the free algebra on 256 letters passes the cap at class 2; the
        # message names that class, not a 600-digit dimension
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.graph").write_text("vertices 256\nclass 256\nedge 1 2\n")
        code, out, err = run(capsys, "graph", "big.graph")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: big.graph: dimension exceeds 256 at class 2"]
        assert len(err) < 120

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


class TestReproduce:
    """A library certificate that fails fails its battery row; the battery runs on."""

    def test_a_rejected_graph_basis_fails_the_graph_sweep_row(self, capsys, monkeypatch):
        real = graphs.check_nice
        monkeypatch.setattr(graphs, "check_nice",
                            lambda alg: NiceVerdict(False, ()) if alg.dim == 3 else real(alg))
        rows = reproduce.run_all()
        assert len(rows) == 9
        assert [(name, detail) for name, ok, detail, _ in rows if not ok] == [
            ("graph-sweep", "defining basis is not nice: ()")]
        code, out, err = run(capsys, "reproduce")
        assert code == 1 and "Traceback" not in err
        assert "FAIL graph-sweep -- defining basis is not nice: ()" in out.splitlines()

    def test_a_failed_trace_certificate_fails_its_rows(self, monkeypatch):
        monkeypatch.setattr(derivations, "_certify", lambda g, w, den: (False, ("trace", None)))
        rows = {name: (ok, detail) for name, ok, detail, _ in reproduce.run_all()}
        assert rows["filiform-pre-einstein-closed-form"] == (
            False, "trace certification failed: ('trace', None)")
        assert rows["six-dim-certificate"] == (False, "certification: trace")


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

    def test_shared_parser_keeps_no_state(self, capsys):
        # main builds its parser once per process; options of one call
        # (--nice, --json) must not leak into the next
        plain = [FIX / "p3_c3.graph"]
        _, first, _ = run(capsys, "graph", *plain)
        run(capsys, "graph", "--nice", "--json", *plain)
        _, second, _ = run(capsys, "graph", *plain)
        assert first == second
        assert "basis" not in second


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)


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
        # exact arithmetic only: no report carries a float
        assert list(_floats(json.loads(out))) == []


class TestNilpotentAA:
    @pytest.mark.parametrize("name", ["nilpotent_c.mat", "zero_b.mat"])
    def test_nilpotent_has_a_nice_basis(self, capsys, name):
        code, rep, _ = run_json(capsys, "aa", FIX / name)
        assert code == 0
        assert rep["exists"] == "yes"
        assert rep["nu"] == 1
        assert rep["factorizations"] == []


@pytest.mark.parametrize("argv,text,line", [
    (["check"], "dim\n", 1),
    (["pre-einstein"], "dim 3 4\nbracket 1 2 3 1\n", 1),
    (["check"], "dim 3\nbracket 1 2 3 1/0\n", 2),
    (["aa"], "2\n1/0 0\n0 1\n", 2),
    (["aa"], "x\n1\n", 1),
    (["graph", "--nice"], "vertices 3\nclass 3\nedge 1\n", 3),
    (["graph"], "vertices\nclass 3\n", 1),
    (["graph"], "vertices 3\nclass 3\nedge 1 2 3\n", 3),
    # sizes past DIMENSION_CAP are refused before anything is allocated
    (["check"], "dim 1000000000\n", 1),
    (["check"], "dim -1\n", 1),
    (["aa"], "1000000000\n1\n", 1),
    (["graph"], "vertices 1000000000\nclass 3\n", 1),
    (["graph"], "vertices 2\nclass 1000000000\nedge 1 2\n", 2),
    # only p and p/q: no exponent or decimal forms
    (["check"], "dim 3\nbracket 1 2 3 1e5\n", 2),
    (["aa"], "1\n1.5\n", 2),
    # integers are ASCII digits only
    (["check"], "dim x\n", 1),
    (["check"], "dim 3\nbracket 1 y 3 1\n", 2),
    (["graph"], "vertices 3\nclass z\n", 2),
    (["graph"], "vertices 3\nclass 2\nedge 1 q\n", 3),
    # a header keyword once; edges and names checked against it wherever it is
    (["graph"], "vertices 2\nvertices 3\nclass 3\nedge 1 3\nedge 2 3\n", 2),
    (["graph"], "vertices 3\nclass 3\nclass 2\n", 3),
    (["check"], "dim 2\nnames a b\nnames c d\n", 3),
    (["graph"], "edge 1 4\nvertices 3\nclass 2\n", 1),
    (["graph"], "vertices 3\nclass 2\nedge 1 2\nedge 2 2\n", 4),
    (["check"], "names a b c\ndim 2\n", 1),
], ids=["dim-no-value", "dim-two-values", "bracket-zero-denominator",
        "matrix-zero-denominator", "matrix-bad-size", "edge-one-endpoint",
        "vertices-no-value", "edge-three-endpoints", "dim-over-cap",
        "dim-negative", "matrix-size-over-cap", "vertices-over-cap",
        "class-over-cap", "exponent-coefficient", "decimal-entry",
        "dim-not-integer", "bracket-index-not-integer", "class-not-integer",
        "edge-endpoint-not-integer", "vertices-repeated", "class-repeated",
        "names-repeated", "edge-endpoint-out-of-range", "edge-loop", "names-wrong-count"])
def test_malformed_input_exits_2_with_one_line(capsys, tmp_path, argv, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv, path)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert f": line {line}: " in err



def test_unwritable_emit_path_exits_2_with_one_line(capsys, tmp_path):
    path = tmp_path / "no_such_dir" / "x.lie"
    code, out, err = run(capsys, "graph", FIX / "p3_c3.graph", "--emit-algebra", path)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {path}: ")
    assert not path.parent.exists()

@pytest.mark.parametrize("text", [GOLDEN, QUARTIC], ids=["golden", "quartic"])
def test_irrational_aa_report_is_exact(capsys, tmp_path, text):
    # the unknown verdict carries no numeric estimate of the roots
    path = tmp_path / "irrational.mat"
    path.write_text(text)
    code, rep, _ = run_json(capsys, "aa", path)
    assert code == 1
    assert rep["exists"] == "unknown-irrational"
    assert rep["nu"] is None
    assert list(_floats(rep)) == []


def test_aa_runs_without_numpy(tmp_path):
    path = tmp_path / "golden.mat"
    path.write_text(GOLDEN)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from nicebasis import cli\n"
            f"sys.exit(cli.main(['aa', {str(path)!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "exists unknown-irrational" in proc.stdout.splitlines()
    assert "Traceback" not in proc.stderr
