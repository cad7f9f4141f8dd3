"""The verification battery, one test per criterion.

Each test runs its check, prints a single pass/fail line (visible with
pytest -s) and asserts the verdict.  Timing bounds live in the row declarations.
"""

import itertools
import json
import time
from types import SimpleNamespace

import pytest

from nicebasis import cli, graphs, reproduce


def report(check, bound=None):
    t0 = time.perf_counter()
    name, ok, detail = check()
    dt = time.perf_counter() - t0
    print("%s: %s (%s, %.2fs)" % (name, "pass" if ok else "FAIL", detail, dt))
    assert ok, detail
    if bound is not None:
        assert dt < bound, "check took %.2fs, bound %ds" % (dt, bound)


def test_filiform_pre_einstein_closed_form():
    report(reproduce.check_filiform_closed_form, bound=5)


def test_six_dim_certificate():
    report(reproduce.check_n6_certificate)


def test_filiform_spectra_disjoint():
    report(reproduce.check_filiform_spectra)


def test_almost_abelian_counts():
    report(reproduce.check_almost_abelian_counts, bound=10)


def test_cube_root_of_64_witness():
    report(reproduce.check_root64_witness)


def test_catalog_counts():
    report(reproduce.check_catalog_counts)


def test_graph_sweep():
    report(reproduce.check_graph_sweep, bound=60)


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
    name, ok, detail = reproduce.check_graph_sweep()
    assert not ok
    assert detail.startswith("disagreement: n=%d c=%d" % (flip[0], flip[2]))


def test_free_dimensions():
    report(reproduce.check_free_dimensions)


def test_structure_facts():
    report(reproduce.check_structure_facts)


@pytest.mark.parametrize("check", [reproduce.check_filiform_closed_form,
                                   reproduce.check_almost_abelian_counts])
def test_timed_row_does_not_depend_on_the_clock(monkeypatch, check):
    rows = []
    for step in (0.001, 1.0):
        ticks = itertools.count()
        clock = SimpleNamespace(perf_counter=lambda: next(ticks) * step)
        monkeypatch.setattr(reproduce, "time", clock)
        rows.append(check())
    assert rows[0] == rows[1]
    assert rows[0][1]


def test_every_check_is_one_row_in_definition_order(capsys):
    # a check_* function left undeclared would drop its row without an error
    checks = [f for name, f in vars(reproduce).items()
              if name.startswith("check_") and f.__module__ == reproduce.__name__]
    assert reproduce.ALL_CHECKS == checks
    names = [name for name, _, _ in reproduce.run_all()]
    assert len(set(names)) == len(names) == len(checks)
    assert cli.main(["reproduce", "--json"]) == 0
    assert [row["name"] for row in json.loads(capsys.readouterr().out)["rows"]] == names
