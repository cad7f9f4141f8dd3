"""Alternating benchmark pairs, parent against change, kept in BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --pairs K --seed S [--trace-runs N] [--label L]

DIR is a source checkout; each side runs its own `perfbench/run.py`, which
imports that checkout's `src/`, for the `run_seconds` of the change's
BENCHMARK.json.  Pair i uses seed S + i; the parent runs first in even
pairs and the change first in odd ones, so drift of the host falls on both
sides alike.  Of each run the tool keeps the last line of standard output
(the JSON result) and the `env {...}` line; each side's env gains `dirty`,
whether git lists uncommitted changes under `src` or `perfbench` in that
checkout (None outside git), since run.py's `commit` is the checkout's HEAD,
and each side gains `src_lines_by_module`, the line count of each module of
that checkout's `src/nicebasis`, so a module that grew shows per side.

The workload's entry in `BENCH_<label>.json` at the root of this
repository (label defaults to the workload; the file is created when
missing) is replaced by the new one: per side the environment, the seeds,
every run's metrics, the host's 1-minute load average read just before each
run (`load_1m`, so that a run disturbed by another process shows), the
metrics' medians and quartiles (inclusive method) and the failure counts;
the pairs won per metric (lower is better, higher for success_ratio); the
verdict per end-to-end metric of the change's BENCHMARK.json (see
`verdicts`); and, with `--trace-runs N`, the medians of N traced runs per
side on seed 5, alternating sides.  Each side also gains `import_ms`, the
median of IMPORT_RUNS fresh `python3 -X importtime -c "import nicebasis,
nicebasis.cli"` runs in its checkout, alternating sides, with the runs and
whether PYTHONDONTWRITEBYTECODE was set (if not, the first run writes the
bytecode cache that the others read): the import layer under `setup_s`.
It drifts with the host between sets (one parent read 44.1, 72.6, 71.3 and
43.3 ms in four), so compare `import_ms` only within one set.
An entry it replaces moves, its medians, pairs won and verdicts only, to
the front of `earlier_sets`.  Entries of other workloads are kept.
Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HIGHER_IS_BETTER = {"success_ratio"}
TRACE_SEED = 5
IMPORT_CODE = "import nicebasis, nicebasis.cli"
IMPORT_RUNS = 5
METHOD = (
    "tools/bench_pairs.py: perfbench/run.py run from a parent checkout and a change"
    " checkout; trace 0 runs alternate sides, the first side flipping each pair;"
    " medians and quartiles (inclusive method) over those runs; a pair is won when"
    " the change's value is better (lower, higher for success_ratio).  trace1 rows"
    " are medians of traced runs on one seed, alternating sides.  Times are run.py's"
    " normalised values (raw times are in its per-run reports)."
)


def run(checkout, workload, seed, seconds, trace):
    """(env, result) of one perfbench/run.py run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def top_level_ms(report, names):
    """Milliseconds of the top-level imports of names in an `-X importtime` report: the sum
    of the cumulative microseconds of its unindented lines (" name") that import them."""
    total = 0
    for line in report.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2][1:] in names:
            total += int(parts[1])
    return total / 1000


def import_ms(checkout):
    """Milliseconds of IMPORT_CODE in one fresh `-X importtime` process that imports the
    checkout's src/."""
    path = os.pathsep.join(filter(None, [os.path.abspath(os.path.join(checkout, "src")),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
                         cwd=checkout, env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return top_level_ms(out.stderr, ("nicebasis", "nicebasis.cli"))


def import_times(sides):
    """{side: import_ms record} over IMPORT_RUNS rounds alternating sides, the first side
    flipping each round, as the pairs do."""
    times = {name: [] for name in sides}
    for i in range(IMPORT_RUNS):
        for name in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            times[name].append(import_ms(sides[name]))
    nobytecode = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    return {name: {"median": statistics.median(t), "runs": t, "code": IMPORT_CODE,
                   "PYTHONDONTWRITEBYTECODE": nobytecode} for name, t in times.items()}


def dirty(checkout):
    """True if `git status` lists changes under src or perfbench, None outside git."""
    try:
        out = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                             cwd=checkout, capture_output=True, text=True)
    except OSError:
        return None
    return bool(out.stdout) if out.returncode == 0 else None


def src_lines_by_module(checkout):
    """{module: lines} over the checkout's src/nicebasis/*.py ({} if there are none)."""
    out = {}
    for path in sorted(glob.glob(os.path.join(checkout, "src", "nicebasis", "*.py"))):
        with open(path) as fh:
            out[os.path.basename(path)[:-3]] = sum(1 for _ in fh)
    return out


def summary(values):
    """Median and [q1, median, q3] of a list of numbers."""
    if len(values) < 2:
        return values[0], [values[0]] * 3
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q


def side_record(env, seeds, results):
    metrics = list(results[0]["metrics"])
    runs = {m: [r["metrics"][m]["value"] for r in results] for m in metrics}
    stats = {m: summary(v) for m, v in runs.items()}
    return {
        "commit": env.get("commit"),
        "backend": env.get("backend"),
        "nproc": env.get("nproc"),
        "src_lines": env.get("src_lines"),
        "env": {k: v for k, v in env.items() if k != "seed"},
        "trace0": {
            "seeds": seeds,
            "median": {m: s[0] for m, s in stats.items()},
            "quartiles": {m: s[1] for m, s in stats.items()},
            "failed": [r["failed"] for r in results],
            "runs": runs,
            "load_1m": [r.get("load_1m") for r in results],
        },
    }


def won(parent, change):
    """Per metric, the pairs in which the change's value is better."""
    out = {}
    for m in parent[0]["metrics"]:
        sign = -1 if m in HIGHER_IS_BETTER else 1
        out[m] = sum(sign * c["metrics"][m]["value"] < sign * p["metrics"][m]["value"]
                     for p, c in zip(parent, change))
    return out


def verdicts(entry, end_to_end):
    """Per end-to-end metric (BENCHMARK.json's `end_to_end` list: name, better,
    bound), the verdict on the paired trace 0 runs of entry, first that holds:

    gain        the change wins at least 9 of every 10 pairs (ties count for
                neither) and its median beats the parent's by more than the
                parent's interquartile range;
    regression  the change's median is worse than the parent's by more than
                bound times the parent's median;
    unresolved  the parent's interquartile range is wider than bound times
                its median, and not every change run beats every parent run;
    held        anything else.
    """
    out = {}
    for spec in end_to_end:
        m, bound = spec["name"], spec["bound"]
        sign = -1 if spec["better"] == "higher" else 1  # sign * value: lower is better
        p = [sign * x for x in entry["parent"]["trace0"]["runs"][m]]
        c = [sign * x for x in entry["change"]["trace0"]["runs"][m]]
        (p1, pm, p3), cm = summary(p)[1], summary(c)[0]
        wins = sum(y < x for x, y in zip(p, c))
        if 10 * wins >= 9 * len(p) and pm - cm > p3 - p1:
            out[m] = "gain"
        elif cm - pm > bound * abs(pm):
            out[m] = "regression"
        elif p3 - p1 > bound * abs(pm) and not max(c) < min(p):
            out[m] = "unresolved"
        else:
            out[m] = "held"
    return out


def measure(args, seconds):
    sides = {"parent": args.parent, "change": args.change}
    results = {name: [] for name in sides}
    envs = {}
    seeds = [args.seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            load = os.getloadavg()[0]
            env, result = run(sides[name], args.workload, seed, seconds, 0)
            result["load_1m"] = load
            if name not in envs:
                envs[name] = {**env, "dirty": dirty(sides[name])}
            results[name].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"{args.workload} seed {seed} {name}: wall_s {wall:.4f}"
                  f" load_1m {load:.2f} failed {result['failed']}", file=sys.stderr)
    entry = {"workload": args.workload, "pairs": args.pairs}
    for name in sides:
        entry[name] = side_record(envs[name], seeds, results[name])
        entry[name]["src_lines_by_module"] = src_lines_by_module(sides[name])
    entry["pairs_won"] = won(results["parent"], results["change"])
    if args.trace_runs:
        traced = {name: [] for name in sides}
        for i in range(args.trace_runs):
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                traced[name].append(run(sides[name], args.workload, TRACE_SEED, seconds, 1)[1])
        for name, rows in traced.items():
            entry[name]["trace1"] = {"seed": TRACE_SEED, "runs": args.trace_runs}
            for m in rows[0]["metrics"]:
                values = [r["metrics"][m]["value"] for r in rows]
                entry[name]["trace1"][m] = statistics.median(values)
    return entry


def earlier(entry):
    """An entry reduced to the medians, pairs won and verdicts kept in earlier_sets."""
    return {
        "label": "replaced entry",
        "workload": entry["workload"],
        "seeds": entry["parent"]["trace0"]["seeds"],
        "pairs": entry["pairs"],
        "pairs_won": entry["pairs_won"],
        "verdict": entry.get("verdict"),  # None for entries written before verdicts
        "median": {name: entry[name]["trace0"]["median"] for name in ("parent", "change")},
    }


def load(path, label, command):
    """The document at path, or a new one."""
    doc = {"label": label, "command": command, "method": METHOD, "host": None,
           "workloads": [], "earlier_sets": {"note": "medians of earlier sets, newest first",
                                             "sets": []}}
    if os.path.exists(path):
        with open(path) as fh:
            doc.update(json.load(fh))
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    label = args.label or args.workload
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    command = f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0|1"
    doc = load(path, label, command)
    entry = measure(args, seconds)
    entry["verdict"] = verdicts(entry, bench["end_to_end"])
    for name, record in import_times({"parent": args.parent, "change": args.change}).items():
        entry[name]["import_ms"] = record
    doc["host"] = f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}"
    for old in [w for w in doc["workloads"] if w["workload"] == args.workload]:
        doc["earlier_sets"]["sets"].insert(0, earlier(old))
    doc["workloads"] = [w for w in doc["workloads"] if w["workload"] != args.workload] + [entry]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"file": path, "workload": args.workload, "pairs_won": entry["pairs_won"],
                      "verdict": entry["verdict"],
                      "median_wall_s": {n: entry[n]["trace0"]["median"]["wall_s"]
                                        for n in ("parent", "change")},
                      "import_ms": {n: entry[n]["import_ms"]["median"]
                                    for n in ("parent", "change")}}))


if __name__ == "__main__":
    main()
