"""The verification battery, one test per criterion.

Each test runs its check, prints a single pass/fail line (visible with
pytest -s) and asserts the verdict.  Timing bounds live in the row declarations:
a row over its bound fails itself, so the verdict holds the bound as well.
"""

import hashlib
import itertools
import json
from types import SimpleNamespace

import pytest

from nicebasis import cli, graphs, reproduce


def report(check):
    name, ok, detail, seconds = check()
    print("%s: %s (%s, %.2fs)" % (name, "pass" if ok else "FAIL", detail, seconds))
    assert ok, detail


def test_filiform_pre_einstein_closed_form():
    report(reproduce.check_filiform_closed_form)


def test_six_dim_certificate():
    report(reproduce.check_n6_certificate)


def test_filiform_spectra_disjoint():
    report(reproduce.check_filiform_spectra)


def test_almost_abelian_counts():
    report(reproduce.check_almost_abelian_counts)


def test_cube_root_of_64_witness():
    report(reproduce.check_root64_witness)


def test_catalog_counts():
    report(reproduce.check_catalog_counts)


def test_graph_sweep():
    report(reproduce.check_graph_sweep)


@pytest.mark.parametrize("flip", [(1, frozenset(), 2), (3, frozenset(
    frozenset(e) for e in ((0, 1), (1, 2), (0, 2))), 3)], ids=["nice", "not-nice"])
def test_graph_sweep_catches_a_wrong_predicate(monkeypatch, flip):
    # the predicate is wrong on one graph, for the construction as well: only
    # the weight multiplicities of the algebra can tell
    right = graphs.nice_predicate

    def wrong(g):
        ok, tag = right(g)
        return (not ok, tag) if (g.vertex_count, g.edges, g.c) == flip else (ok, tag)

    monkeypatch.setattr(graphs, "nice_predicate", wrong)
    monkeypatch.setattr(reproduce, "nice_predicate", wrong)
    name, ok, detail, _ = reproduce.check_graph_sweep()
    assert not ok
    assert detail.startswith("disagreement: n=%d c=%d" % (flip[0], flip[2]))


def test_free_dimensions():
    report(reproduce.check_free_dimensions)


def test_structure_facts():
    report(reproduce.check_structure_facts)


def ticking_clock(step):
    """A perf_counter that moves on by step seconds at every read."""
    ticks = itertools.count()
    return SimpleNamespace(perf_counter=lambda: next(ticks) * step)


@pytest.mark.parametrize("check", [reproduce.check_filiform_closed_form,
                                   reproduce.check_almost_abelian_counts])
def test_timed_row_does_not_depend_on_the_clock(monkeypatch, check):
    rows = []
    for step in (0.001, 1.0):
        monkeypatch.setattr(reproduce, "time", ticking_clock(step))
        rows.append(check())
    assert rows[0][:3] == rows[1][:3]
    assert rows[0][1]
    assert [row[3] for row in rows] == [0.001, 1.0]


@pytest.mark.parametrize("step,verdict,detail", [
    (3.0, "PASS", "n=3..20 certified"),
    (7.0, "FAIL", "too slow: 7.00s"),
], ids=["under-the-bound", "over-the-bound"])
def test_stderr_time_is_the_time_the_bound_was_checked_against(
        monkeypatch, capsys, step, verdict, detail):
    # the filiform row has a bound of 5 s and reads the clock twice: its time is one step
    monkeypatch.setattr(reproduce, "time", ticking_clock(step))
    monkeypatch.setattr(reproduce, "ALL_CHECKS", [reproduce.check_filiform_closed_form])
    assert cli.main(["reproduce"]) == (0 if verdict == "PASS" else 1)
    out, err = capsys.readouterr()
    name = "filiform-pre-einstein-closed-form"
    assert out == "%s %s -- %s\n" % (verdict, name, detail)
    assert err.splitlines()[0] == "%s %.2fs" % (name, step)
    assert reproduce.check_filiform_closed_form() == (name, verdict == "PASS", detail, step)
    cli.main(["reproduce", "--json"])  # the report keeps three fields per row
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [{"name": name, "ok": verdict == "PASS", "detail": detail}]


def test_every_check_is_one_row_in_definition_order(capsys):
    # a check_* function left undeclared would drop its row without an error
    checks = [f for name, f in vars(reproduce).items()
              if name.startswith("check_") and f.__module__ == reproduce.__name__]
    assert reproduce.ALL_CHECKS == checks
    names = [name for name, _, _, _ in reproduce.run_all()]
    assert len(set(names)) == len(names) == len(checks)
    assert cli.main(["reproduce", "--json"]) == 0
    assert [row["name"] for row in json.loads(capsys.readouterr().out)["rows"]] == names


# the battery's stdout, recorded before the catalog rows were certified in one place
REPRODUCE_LINES = [
    "PASS filiform-pre-einstein-closed-form -- n=3..20 certified",
    "PASS six-dim-certificate -- diagonal (9/32)(1,2,3,3,4,5) certified; basis violates condition 2",
    "PASS filiform-spectra -- disjoint from the six-dim spectrum for n=3..50; 27/32 < d2 < 9/8 for n>=7",
    "PASS almost-abelian-counts -- five reference counts plus family n=2..5",
    "PASS cube-root-of-64-witness -- constructed and reference cyclic witnesses both verify",
    "PASS three-dim-catalog -- R^3=1; h3=1; aa(A_-1)=2; aa(A_lambda=-1/2)=1; aa(A_lambda=0)=1; aa(A_lambda=1/2)=1; aa(A_lambda=1)=1; aa(D)=0; aa(E_0)=1; aa(E_mu=1)=0; aa(E_mu=2)=0; sl2=2; so3=1",
    "PASS graph-sweep -- 4396 (graph, class) pairs agree with the weight multiplicities; path dims 10 and 20",
    "PASS free-nilpotent-dimensions -- 91 (generators, class) pairs match",
    "PASS structure-facts -- adaptedness, diagonal derivations, abelian extensions",
]
REPRODUCE_JSON_SHA256 = "5688130a7a7962473917c47e8a3bcab29f01d94808e6c217c562f8fc0309cff4"


def test_reproduce_stdout_is_pinned(capsys):
    assert cli.main(["reproduce"]) == 0
    assert capsys.readouterr().out.splitlines() == REPRODUCE_LINES
    assert cli.main(["reproduce", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPRODUCE_JSON_SHA256
