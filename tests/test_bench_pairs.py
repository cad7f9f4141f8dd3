"""tools/bench_pairs.py: the statistics and verdicts it writes, on made-up run
results, and its mark of uncommitted checkouts, on temporary git repositories."""

import argparse
import importlib.util
import json
import os
import subprocess

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(**values):
    """A perfbench/run.py result holding only metric values."""
    return {"failed": 0, "metrics": {m: {"value": v} for m, v in values.items()}}


class TestSummary:
    def test_one_value(self):
        assert bench_pairs.summary([0.5]) == (0.5, [0.5, 0.5, 0.5])

    def test_odd_count(self):
        assert bench_pairs.summary([5, 1, 3, 2, 4]) == (3, [2, 3, 4])

    def test_even_count_interpolates(self):
        median, quartiles = bench_pairs.summary([1, 2, 3, 4])
        assert median == 2.5
        assert quartiles == [1.75, 2.5, 3.25]


class TestWon:
    def test_lower_is_better_for_times(self):
        parent = [result(wall_s=1.0), result(wall_s=1.0), result(wall_s=1.0)]
        change = [result(wall_s=0.9), result(wall_s=1.0), result(wall_s=1.1)]
        assert bench_pairs.won(parent, change) == {"wall_s": 1}

    def test_success_ratio_is_higher_is_better(self):
        parent = [result(wall_s=1.0, success_ratio=0.9)] * 2
        change = [result(wall_s=0.5, success_ratio=1.0),
                  result(wall_s=2.0, success_ratio=0.8)]
        assert bench_pairs.won(parent, change) == {"wall_s": 1, "success_ratio": 1}

    def test_pairs_are_matched_in_order(self):
        parent = [result(wall_s=1.0), result(wall_s=3.0)]
        change = [result(wall_s=2.0), result(wall_s=2.0)]
        assert bench_pairs.won(parent, change) == {"wall_s": 1}


def paired(values, spec):
    """An entry holding the trace 0 runs of one metric: values = (parent, change)."""
    entry = {}
    for name, runs in zip(("parent", "change"), values):
        results = [result(**{spec["name"]: v}) for v in runs]
        entry[name] = bench_pairs.side_record({}, list(range(len(runs))), results)
    return entry


WALL = {"name": "wall_s", "better": "lower", "bound": 0.15}
SUCCESS = {"name": "success_ratio", "better": "higher", "bound": 0.005}


class TestVerdicts:
    @pytest.mark.parametrize("parent, change, want", [
        # 10/10 won, median gap 0.2 against a parent IQR of 0.02
        ([1.0, 1.01, 0.99, 1.02, 0.98] * 2, [0.8] * 10, "gain"),
        # 9/10 won is still a gain
        ([1.0] * 10, [0.8] * 9 + [1.0], "gain"),
        # 8/10 won: the large median gap alone is no gain
        ([1.0] * 10, [0.5] * 8 + [1.1] * 2, "held"),
        # 10/10 won, but the median gap 0.01 is inside the parent's IQR of 0.02
        ([1.0, 1.01, 0.99, 1.02, 0.98] * 2, [0.99] * 10, "held"),
        # median 1.16 against 1.0 x (1 + 0.15)
        ([1.0] * 10, [1.16] * 10, "regression"),
        ([1.0] * 10, [1.14] * 10, "held"),
        # parent IQR 0.4 is wider than 0.15 x 1.0, and the change wins only some pairs
        ([0.6, 0.8, 1.0, 1.2, 1.4], [1.1, 0.7, 1.05, 1.0, 1.3], "unresolved"),
        # as wide, but every change run beats every parent run: no gain (gap 0.6 < IQR
        # 0.8), and held rather than unresolved
        ([1.0, 1.1, 1.5, 1.9, 2.0], [0.9] * 5, "held"),
    ], ids=["gain", "gain-9-of-10", "8-of-10", "gap-inside-iqr", "regression",
            "worse-within-bound", "unresolved", "wide-but-every-run-better"])
    def test_lower_is_better(self, parent, change, want):
        entry = paired((parent, change), WALL)
        assert bench_pairs.verdicts(entry, [WALL]) == {"wall_s": want}

    @pytest.mark.parametrize("change, want", [
        ([1.0] * 5, "held"), ([0.99] * 5, "regression"), ([0.996] * 5, "held"),
    ])
    def test_higher_is_better(self, change, want):
        entry = paired(([1.0] * 5, change), SUCCESS)
        assert bench_pairs.verdicts(entry, [SUCCESS]) == {"success_ratio": want}

    def test_higher_is_better_gain(self):
        entry = paired(([0.9] * 10, [1.0] * 10), SUCCESS)
        assert bench_pairs.verdicts(entry, [SUCCESS]) == {"success_ratio": "gain"}

    def test_one_verdict_per_end_to_end_metric(self):
        results = {"parent": [result(wall_s=1.0, success_ratio=1.0, other=1.0)] * 3,
                   "change": [result(wall_s=2.0, success_ratio=1.0, other=9.0)] * 3}
        entry = {name: bench_pairs.side_record({}, [1, 2, 3], rows)
                 for name, rows in results.items()}
        assert bench_pairs.verdicts(entry, [WALL, SUCCESS]) == {
            "wall_s": "regression", "success_ratio": "held"}


class TestEarlier:
    @pytest.fixture
    def entry(self):
        seeds = [5, 6]
        runs = [result(wall_s=1.0), result(wall_s=3.0)]
        entry = {"workload": "aa-family", "pairs": 2, "pairs_won": {"wall_s": 2}}
        for name in ("parent", "change"):
            entry[name] = bench_pairs.side_record({"commit": name, "seed": 5}, seeds, runs)
        return entry

    def test_keeps_medians_only(self, entry):
        assert bench_pairs.earlier(entry) == {
            "label": "replaced entry",
            "workload": "aa-family",
            "seeds": [5, 6],
            "pairs": 2,
            "pairs_won": {"wall_s": 2},
            "verdict": None,
            "median": {"parent": {"wall_s": 2.0}, "change": {"wall_s": 2.0}},
        }

    def test_keeps_the_verdict(self, entry):
        entry["verdict"] = {"wall_s": "held"}
        assert bench_pairs.earlier(entry)["verdict"] == {"wall_s": "held"}


class TestLoad:
    def test_new_file(self, tmp_path):
        doc = bench_pairs.load(str(tmp_path / "BENCH_x.json"), "x", "cmd")
        assert doc["label"] == "x" and doc["command"] == "cmd"
        assert doc["workloads"] == [] and doc["earlier_sets"]["sets"] == []

    def test_current_schema_is_read_as_is(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        stored = bench_pairs.load(str(tmp_path / "none.json"), "x", "old")
        stored["workloads"] = [{"workload": "aa-family"}]
        path.write_text(json.dumps(stored))
        assert bench_pairs.load(str(path), "x", "new") == stored


class TestDirty:
    @staticmethod
    def git(repo, *args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    @pytest.fixture
    def repo(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text("x = 1\n")
        (tmp_path / "README").write_text("r\n")
        self.git(tmp_path, "init", "-q")
        self.git(tmp_path, "add", "-A")
        self.git(tmp_path, "commit", "-q", "-m", "init")
        return tmp_path

    def test_clean_checkout(self, repo):
        assert bench_pairs.dirty(str(repo)) is False

    def test_changes_outside_src_and_perfbench_do_not_count(self, repo):
        (repo / "README").write_text("edited\n")
        assert bench_pairs.dirty(str(repo)) is False

    def test_edited_source(self, repo):
        (repo / "src" / "mod.py").write_text("x = 2\n")
        assert bench_pairs.dirty(str(repo)) is True

    def test_untracked_benchmark_file(self, repo):
        (repo / "perfbench").mkdir()
        (repo / "perfbench" / "new.py").write_text("")
        assert bench_pairs.dirty(str(repo)) is True

    def test_outside_git(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert bench_pairs.dirty(str(tmp_path)) is None

    def test_each_side_env_is_marked(self, monkeypatch):
        monkeypatch.setattr(bench_pairs, "run", lambda checkout, workload, seed, seconds, trace:
                            ({"commit": "head", "seed": seed}, result(wall_s=1.0)))
        monkeypatch.setattr(bench_pairs, "dirty", lambda checkout: checkout == "work")
        args = argparse.Namespace(parent="clone", change="work", workload="aa-family",
                                  pairs=2, seed=7, trace_runs=0)
        entry = bench_pairs.measure(args, 1)
        assert entry["parent"]["env"] == {"commit": "head", "dirty": False}
        assert entry["change"]["env"] == {"commit": "head", "dirty": True}


class TestLoadAverage:
    def test_each_run_records_the_load_read_just_before_it(self, monkeypatch, capsys):
        loads = iter([0.5, 1.25, 3.0, 0.75])
        calls = []

        def getloadavg():
            calls.append("load")
            return next(loads), 9.0, 9.0

        def fake_run(checkout, workload, seed, seconds, trace):
            calls.append(checkout)
            return {"commit": checkout}, result(wall_s=1.0)

        monkeypatch.setattr(bench_pairs.os, "getloadavg", getloadavg)
        monkeypatch.setattr(bench_pairs, "run", fake_run)
        monkeypatch.setattr(bench_pairs, "dirty", lambda checkout: False)
        args = argparse.Namespace(parent="p", change="c", workload="aa-family",
                                  pairs=2, seed=7, trace_runs=0)
        entry = bench_pairs.measure(args, 1)
        # pair 0 runs the parent first, pair 1 the change first
        assert calls == ["load", "p", "load", "c", "load", "c", "load", "p"]
        assert entry["parent"]["trace0"]["load_1m"] == [0.5, 0.75]
        assert entry["change"]["trace0"]["load_1m"] == [1.25, 3.0]
        assert entry["parent"]["trace0"]["runs"] == {"wall_s": [1.0, 1.0]}
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            "aa-family seed 7 parent: wall_s 1.0000 load_1m 0.50 failed 0",
            "aa-family seed 7 change: wall_s 1.0000 load_1m 1.25 failed 0",
            "aa-family seed 8 change: wall_s 1.0000 load_1m 3.00 failed 0",
            "aa-family seed 8 parent: wall_s 1.0000 load_1m 0.75 failed 0",
        ]

    def test_results_without_a_load_record_none(self):
        record = bench_pairs.side_record({}, [1], [result(wall_s=1.0)])
        assert record["trace0"]["load_1m"] == [None]


class TestSrcLinesByModule:
    @staticmethod
    def checkout(root, modules):
        package = root / "src" / "nicebasis"
        package.mkdir(parents=True)
        for name, text in modules.items():
            (package / name).write_text(text)
        return str(root)

    def test_counts_each_module(self, tmp_path):
        root = self.checkout(tmp_path, {"linalg.py": "a\nb\nc\n", "lie.py": "x = 1\n",
                                        "__init__.py": "", "notes.txt": "n\n"})
        assert bench_pairs.src_lines_by_module(root) == {"__init__": 0, "lie": 1, "linalg": 3}

    def test_last_line_without_newline_counts(self, tmp_path):
        root = self.checkout(tmp_path, {"cli.py": "a\nb"})
        assert bench_pairs.src_lines_by_module(root) == {"cli": 2}

    def test_no_package(self, tmp_path):
        assert bench_pairs.src_lines_by_module(str(tmp_path)) == {}

    def test_each_side_records_its_own_modules(self, tmp_path, monkeypatch):
        parent = self.checkout(tmp_path / "parent", {"linalg.py": "a\nb\n"})
        change = self.checkout(tmp_path / "change", {"linalg.py": "a\n", "lie.py": "b\n"})
        monkeypatch.setattr(bench_pairs, "run", lambda checkout, workload, seed, seconds, trace:
                            ({"commit": checkout}, result(wall_s=1.0)))
        monkeypatch.setattr(bench_pairs, "dirty", lambda checkout: False)
        args = argparse.Namespace(parent=parent, change=change, workload="aa-family",
                                  pairs=2, seed=7, trace_runs=0)
        entry = bench_pairs.measure(args, 1)
        assert entry["parent"]["src_lines_by_module"] == {"linalg": 2}
        assert entry["change"]["src_lines_by_module"] == {"lie": 1, "linalg": 1}


REPORT = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:       700 |       2500 | site
import time:       300 |        900 |     nicebasis.scalars
import time:      1000 |       4000 | nicebasis
import time:       500 |       1500 |   argparse
import time:      2000 |       3500 | nicebasis.cli
import time:        50 |         50 | nicebasis.extra
"""


class TestImportMs:
    def test_sums_the_top_level_lines_of_the_names(self):
        assert bench_pairs.top_level_ms(REPORT, ("nicebasis", "nicebasis.cli")) == 7.5

    def test_nested_and_other_lines_do_not_count(self):
        assert bench_pairs.top_level_ms(REPORT, ("nicebasis.scalars", "argparse")) == 0
        assert bench_pairs.top_level_ms(REPORT, ("site",)) == 2.5

    def test_sides_alternate_and_record_the_bytecode_setting(self, monkeypatch):
        calls, times = [], iter([10.0, 7.0, 6.0, 11.0, 12.0, 5.0])

        def fake_import_ms(checkout):
            calls.append(checkout)
            return next(times)

        monkeypatch.setattr(bench_pairs, "import_ms", fake_import_ms)
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        monkeypatch.setattr(bench_pairs, "IMPORT_RUNS", 3)
        out = bench_pairs.import_times({"parent": "p", "change": "c"})
        assert calls == ["p", "c", "c", "p", "p", "c"]
        assert out["parent"] == {"median": 11.0, "runs": [10.0, 11.0, 12.0],
                                 "code": "import nicebasis, nicebasis.cli",
                                 "PYTHONDONTWRITEBYTECODE": True}
        assert out["change"]["runs"] == [7.0, 6.0, 5.0] and out["change"]["median"] == 6.0
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
        monkeypatch.setattr(bench_pairs, "import_ms", lambda checkout: 1.0)
        assert bench_pairs.import_times({"parent": "p"})["parent"][
            "PYTHONDONTWRITEBYTECODE"] is False

    def test_a_fresh_process_imports_this_checkout(self):
        assert bench_pairs.import_ms(os.path.dirname(os.path.dirname(PATH))) > 0

    @pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
    def test_the_checkouts_own_src_comes_first(self, tmp_path, monkeypatch, relative):
        package = tmp_path / "side" / "src" / "nicebasis"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("raise ImportError('the checkout copy')\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PYTHONPATH", raising=False)  # the tests' own may name a src/
        with pytest.raises(subprocess.CalledProcessError) as err:
            bench_pairs.import_ms("side" if relative else str(tmp_path / "side"))
        assert "the checkout copy" in err.value.stderr

    def test_main_keeps_each_side_in_the_entry(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "end_to_end": [WALL]}))
        monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
        monkeypatch.setattr(bench_pairs, "measure", lambda args, seconds: {
            "workload": args.workload, "pairs": 2, "pairs_won": {"wall_s": 1},
            **paired(([1.0, 1.0], [1.0, 1.0]), WALL)})
        monkeypatch.setattr(bench_pairs, "import_times", lambda sides: {
            name: {"median": sides[name]} for name in sides})
        bench_pairs.main(["--parent", "p", "--change", str(tmp_path), "--workload", "w",
                          "--pairs", "2", "--seed", "1"])
        entry = json.loads((tmp_path / "BENCH_w.json").read_text())["workloads"][0]
        assert entry["parent"]["import_ms"] == {"median": "p"}
        assert entry["change"]["import_ms"] == {"median": str(tmp_path)}
        assert json.loads(capsys.readouterr().out)["import_ms"] == {
            "parent": "p", "change": str(tmp_path)}
