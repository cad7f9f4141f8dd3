"""nicebasis benchmark: exact-arithmetic workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads (see workloads.py): aa-family, graph-sweep,
filiform-derivations, cli-fixtures.

A run is a sequence of passes, each a fresh worker process (worker.py), so
process-wide caches and peak memory never leak between passes or
workloads.  `--seconds` sets the amount of work: the pass count is
`seconds / NOMINAL_PASS_S[workload]`, the nominal pass length on a 2-core
x86-64 machine with the Fraction backend.  Two commits compared with the
same `--seconds` and seed therefore answer the same requests, and latency
percentiles are taken over the same sample count.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the first half
of the passes untraced and then traced, on identical inputs, and prints the
per-layer metrics: self time and call counts per wrapped module boundary,
`trace.other.self_s`, the part of the traced wall time that no layer covers
(the benchmark's loop and answer checks, package code between layers), and
`trace.overhead_ratio`.  Times are normalised to a reference machine speed
(see worker.py); raw times are printed next to them.  Spans go to
`.perfbench/spans-*.tsv`, and a report per run to
`.perfbench/<workload>-seed<N>-trace<T>.json`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts every request that raised,
answered wrongly or printed a traceback where it should exit 2;
`correct` is false when any failure is not one of the known defects listed
in cli_expected.json.  `--smoke` runs every workload on tiny inputs in both
modes and checks the report against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
RUN_BUDGET_S = 170  # a run must end within 180 s

NOMINAL_PASS_S = {
    "aa-family": 6.5,
    "graph-sweep": 4.6,
    "filiform-derivations": 7.0,
    "cli-fixtures": 1.3,
}

END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; see tracing.py for the wrapped functions
PER_LAYER = {
    "lie.change_basis.self_s": "s",
    "lie.change_basis.calls": "count",
    "lie.change_basis.identity_ratio": "ratio",
    "lie.bracket.calls": "count",
    "linalg.char_poly.self_s": "s",
    "linalg.char_poly.calls": "count",
    "linalg.minimal_polynomial.self_s": "s",
    "linalg.echelon.self_s": "s",
    "linalg.echelon.calls": "count",
    "linalg.inverse.self_s": "s",
    "almost_abelian.binomial_divisors.self_s": "s",
    "almost_abelian.binomial_divisors.calls": "count",
    "almost_abelian.binomial_divisors.distinct_ratio": "ratio",
    "almost_abelian.enumerate.self_s": "s",
    "almost_abelian.witness_basis.self_s": "s",
    "almost_abelian.analysis.calls_per_request": "calls/request",
    "derivations.derivation_space.self_s": "s",
    "derivations.derivation_space.calls": "count",
    "derivations.derivation_space.unknowns": "count",
    "derivations.is_derivation.self_s": "s",
    "derivations.certify.self_s": "s",
    "derivations.certify.calls_per_request": "calls/request",
    "nice.check_nice.self_s": "s",
    "nice.check_nice.calls": "count",
    "graphs.free_nilpotent.self_s": "s",
    "graphs.free_nilpotent.calls": "count",
    "graphs.graph_algebra.self_s": "s",
    "graphs.graph_algebra.calls": "count",
    "graphs.construct_nice_basis.self_s": "s",
    "cli.main.self_s": "s",
    "cli.load.self_s": "s",
    "cli.command.self_s": "s",
    "catalog3.catalog.self_s": "s",
    "trace.other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.absent_layers": "count",
}


class BenchError(Exception):
    pass


def run_pass(workload, seed, index, trace, smoke, deadline):
    """Run one pass in a fresh process and return its JSON summary."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(index)]
    if trace:
        cmd += ["--trace", "--spans",
                os.path.join(OUT, f"spans-{workload}-seed{seed}-pass{index}.tsv")]
    if smoke:
        cmd.append("--smoke")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {index} exceeded the run budget")
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {index} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latency_stats(latencies):
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n > 10:
        tail, pct = ordered[n - 11], 100.0 * (n - 10) / n
    else:  # too few samples for a tail: report the maximum
        tail, pct = ordered[-1], 100.0
    return statistics.median(ordered), tail, pct, n


def environment(seed):
    src = os.path.join(ROOT, "src")
    digest, lines = hashlib.sha256(), 0
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                data = fh.read()
            digest.update(data)
            lines += data.count(b"\n")
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"seed": seed, "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "src_lines": lines}


def pass_count(workload, seconds, smoke):
    return 1 if smoke else max(1, round(seconds / NOMINAL_PASS_S[workload]))


def failures_of(summaries):
    return [f for s in summaries for f in s["failures"]]


def timings(summaries, raw=False):
    """wall_s, p50, tail, tail percentile, samples and setup_s over the passes."""
    parts = [s["raw"] if raw else s for s in summaries]
    p50, tail, pct, n = latency_stats([x for p in parts for x in p["latencies_s"]])
    return (sum(p["wall_s"] for p in parts), p50 * 1e3, tail * 1e3, pct, n,
            statistics.median(p["setup_s"] for p in parts))


def end_to_end(summaries):
    wall, p50, tail, pct, n, setup = timings(summaries)
    raw_wall, raw_p50, raw_tail, _, _, raw_setup = timings(summaries, raw=True)
    failed = len(failures_of(summaries))
    values = {
        "wall_s": wall,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "success_ratio": 1 - failed / n,
        "setup_s": setup,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in summaries),
    }
    notes = {"wall_s": f"raw {raw_wall:.4g} s",
             "latency_p50_ms": f"p50 of {n} samples; raw {raw_p50:.4g} ms",
             "latency_tail_ms": f"p{pct:.1f} of {n} samples; raw {raw_tail:.4g} ms",
             "success_ratio": f"{failed} failed of {n}",
             "setup_s": f"median of {len(summaries)} set-ups; raw {raw_setup:.4g} s"}
    return values, notes


def per_layer(untraced, traced):
    self_s, calls, extra, absent = {}, {}, {}, set()
    for s in traced:
        t = s["trace"]
        for key, value in t["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in t["calls"].items():
            calls[key] = calls.get(key, 0) + value
        for key, value in t["extra"].items():
            extra[key] = extra.get(key, 0) + value
        absent.update(t["absent"])
    requests = sum(len(s["latencies_s"]) for s in traced)
    traced_wall = sum(s["wall_s"] for s in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif stat == "calls":
            values[name] = calls.get(layer, 0)
        elif stat == "calls_per_request":
            values[name] = ratio(calls.get(layer, 0), requests)
    values["derivations.derivation_space.unknowns"] = extra.get(
        "derivations.derivation_space.unknowns", 0)
    values["lie.change_basis.identity_ratio"] = ratio(
        extra.get("lie.change_basis.identity", 0), calls.get("lie.change_basis", 0))
    values["almost_abelian.binomial_divisors.distinct_ratio"] = ratio(
        extra.get("almost_abelian.binomial_divisors.distinct", 0),
        calls.get("almost_abelian.binomial_divisors", 0))
    layers = {name.rpartition(".")[0] for name in PER_LAYER if name.endswith(".self_s")}
    layers.discard("trace.other")
    values["trace.other.self_s"] = traced_wall - sum(self_s.get(l, 0.0) for l in layers)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / sum(s["wall_s"] for s in untraced)
    values["trace.absent_layers"] = len(absent)
    notes = {"trace.absent_layers": ", ".join(sorted(absent)) or "none",
             "trace.overhead_ratio": f"{len(traced)} passes, same inputs traced and untraced"}
    return values, notes


def measure(workload, seed, seconds, trace, smoke=False):
    """Run the passes of one workload; returns (result line, report)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    count = pass_count(workload, seconds, smoke)
    os.makedirs(OUT, exist_ok=True)
    if trace:
        count = math.ceil(count / 2)
        untraced = [run_pass(workload, seed, k, False, smoke, deadline) for k in range(count)]
        traced = [run_pass(workload, seed, k, True, smoke, deadline) for k in range(count)]
        summaries = untraced + traced
        values, notes = per_layer(untraced, traced)
        units = PER_LAYER
    else:
        summaries = [run_pass(workload, seed, k, False, smoke, deadline) for k in range(count)]
        values, notes = end_to_end(summaries)
        units = END_TO_END
    failures = failures_of(summaries)
    result = {
        "correct": all(f["known"] for f in failures),
        "attempted": sum(len(s["latencies_s"]) for s in summaries),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report = {"workload": workload, "trace": int(trace), "passes": count,
              "env": {**environment(seed), **summaries[0]["env"]},
              "notes": notes, "failures": failures, "result": result}
    return result, report


def print_run(result, report):
    print("env " + json.dumps(report["env"], sort_keys=True))
    for name, metric in result["metrics"].items():
        note = report["notes"].get(name)
        print(f"{name} {metric['value']:.6g} {metric['unit']}" + (f" ({note})" if note else ""))
    counts = {}
    for f in report["failures"]:
        tag = f"known defect: {f['known']}" if f["known"] else "UNEXPECTED"
        line = f"{f['request']}: {f['reason']} [{tag}]"
        counts[line] = counts.get(line, 0) + 1
    for line, count in counts.items():
        print(f"failed {count}x: {line}")
    print(json.dumps(result))


def smoke():
    """Every workload on tiny inputs, both modes, checked against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, _ = measure(workload, 1, 1, trace, smoke=True)
            problems += [f"{workload} trace {trace}: {p}" for p in check_result(result, listed)]
            print(f"{workload} trace {trace}: {result['attempted']} requests,"
                  f" {result['failed']} failed, correct {result['correct']}")
    for p in problems:
        print("problem: " + p)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def check_result(result, listed):
    """Schema problems of one result line against the metrics BENCHMARK.json lists."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not result["correct"]:
        problems.append("an answer check failed outside the known defects")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    wanted = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if wanted != got:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(wanted) ^ set(got))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} is not a finite number")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nicebasis", "__init__.py")):
        print(f"error: no nicebasis sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1)
    print_run(result, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
