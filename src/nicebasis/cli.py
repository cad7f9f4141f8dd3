"""Command line front end.

Subcommands: check, pre-einstein, nu-product, aa, graph, catalog3,
reproduce. Every subcommand accepts --json. Reports go to standard
output and are deterministic for identical inputs; timing and other
diagnostics go to standard error.

Exit codes: 0 for a positive verdict, 1 for a negative one (not nice,
no nice basis, rule inapplicable, a failing reproduction row), 2 for
usage or input errors.
"""

import argparse
import functools
import hashlib
import json
import sys
import time

from .scalars import TooLargeToFactor, fmt
from .lie import load_lie, serialize_lie
from .nice import check_nice
from .derivations import (
    pre_einstein_nice,
    nu_product_rule,
    simple_spectrum_unique,
    spectra_disjoint,
    NotNiceBasis,
)
from .almost_abelian import analyze, load_matrix
from .graphs import (
    load_graph,
    graph_algebra,
    nice_predicate,
    construct_nice_basis,
    DimensionCapExceeded,
)
from .catalog3 import catalog
from .reproduce import ALL_CHECKS


class UsageError(Exception):
    pass


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _report(args, payload, inputs=()):
    """Assemble the common report envelope."""
    return {
        "command": args.subcommand,
        "inputs": {str(p): _digest(p) for p in inputs},
        **payload,
    }


def _emit(args, report, lines):
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_lie(path):
    try:
        return load_lie(path)
    except (OSError, ValueError) as err:
        raise UsageError(f"{path}: {err}")


def _load_matrix(path):
    try:
        return load_matrix(path)
    except (OSError, ValueError) as err:
        raise UsageError(f"{path}: {err}")


def _load_graph(path):
    try:
        return load_graph(path)
    except (OSError, ValueError) as err:
        raise UsageError(f"{path}: {err}")


def _fmt_violation(v):
    if v["kind"] == "CONDITION_1":
        i, j = v["pair"]
        targets = ",".join(str(k + 1) for k in v["targets"])
        return f"CONDITION_1 pair={i + 1},{j + 1} targets={targets}"
    pairs = " ".join(f"{i + 1},{j + 1}" for i, j in v["pairs"])
    return f"CONDITION_2 target={v['target'] + 1} pairs={pairs}"


def _json_violation(v):
    if v["kind"] == "CONDITION_1":
        return {"kind": v["kind"],
                "pair": [i + 1 for i in v["pair"]],
                "targets": [k + 1 for k in v["targets"]]}
    return {"kind": v["kind"],
            "target": v["target"] + 1,
            "pairs": [[i + 1, j + 1] for i, j in v["pairs"]]}


def cmd_check(args):
    g = _load_lie(args.file)
    verdict = check_nice(g)
    lines = ["nice" if verdict.is_nice else "not nice"]
    lines += [_fmt_violation(v) for v in verdict.violations]
    report = _report(args, {
        "nice": verdict.is_nice,
        "violations": [_json_violation(v) for v in verdict.violations],
    }, [args.file])
    _emit(args, report, lines)
    return 0 if verdict.is_nice else 1


def cmd_pre_einstein(args):
    g = _load_lie(args.file)
    try:
        pe = pre_einstein_nice(g)
    except NotNiceBasis as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    diag = [pe.matrix[i, i] for i in range(g.dim)]
    lines = ["diagonal " + " ".join(fmt(x) for x in diag),
             "spectrum " + " ".join(
                 f"{fmt(v)}:{m}" for v, m in sorted(pe.multiplicities().items()))]
    report = _report(args, {
        "diagonal": [fmt(x) for x in diag],
        "spectrum": [[fmt(v), m] for v, m in sorted(pe.multiplicities().items())],
    }, [args.file])
    _emit(args, report, lines)
    return 0


def cmd_nu_product(args):
    parts = []
    factors = []
    for path in args.files:
        g = _load_lie(path)
        if not check_nice(g):
            print(f"error: {path}: defining basis is not nice",
                  file=sys.stderr)
            return 1
        pe = pre_einstein_nice(g)
        nu = simple_spectrum_unique(pe, True)
        parts.append((pe, nu))
        factors.append({
            "file": str(path),
            "spectrum": [[fmt(v), m] for v, m in sorted(pe.multiplicities().items())],
            "nu": nu,
        })
    result = nu_product_rule(parts)
    if result is None and any(
            not spectra_disjoint(a, b)
            for i, (a, _) in enumerate(parts)
            for b, _ in parts[i + 1:]):
        outcome, code = "inapplicable (spectra overlap)", 1
        value = None
    elif result is None:
        outcome, code = "unknown (a factor count is undetermined)", 1
        value = None
    else:
        outcome, code = f"nu = {result}", 0
        value = result
    report = _report(args, {
        "factors": factors,
        "nu": value,
        "outcome": outcome,
    }, args.files)
    _emit(args, report, [outcome])
    return code


def cmd_aa(args):
    a = _load_matrix(args.file)
    try:
        data = analyze(a)
    except TooLargeToFactor as err:
        raise UsageError(f"{args.file}: {err}")
    verdict = data.exists()
    nu = data.count()
    facts = [str(f) for f in data.factorizations]
    lines = [f"exists {verdict.status}"]
    if verdict.reason:
        lines.append(f"reason {verdict.reason}")
    for f in facts:
        lines.append(f"factorization {f}")
    lines.append("nu " + ("unknown" if nu is None else str(nu)))
    witness = None
    if verdict.witness is not None:
        n = a.rows + 1
        witness = [[fmt(verdict.witness[i, j]) for j in range(n)]
                   for i in range(n)]
        lines.append("witness " + "; ".join(
            " ".join(row) for row in witness))
    report = _report(args, {
        "exists": verdict.status,
        "reason": verdict.reason,
        "factorizations": facts,
        "nu": nu,
        "witness": witness,
    }, [args.file])
    _emit(args, report, lines)
    return 0 if verdict.status == "yes" else 1


def cmd_graph(args):
    g = _load_graph(args.file)
    ok, tag = nice_predicate(g)
    lines = [("nice" if ok else "not nice") + f" ({tag})"]
    payload = {"nice": ok, "tag": tag}
    try:
        alg, words, _ = graph_algebra(g)
    except DimensionCapExceeded as err:
        raise UsageError(f"{args.file}: {err}") from None
    payload["dimension"] = alg.dim
    lines.append(f"dimension {alg.dim}")
    if args.nice and ok:
        basis = construct_nice_basis(g)
        cols = [[fmt(basis[i, j]) for i in range(alg.dim)]
                for j in range(alg.dim)]
        payload["basis_columns"] = cols
        for col in cols:
            lines.append("basis " + " ".join(col))
    if args.emit_algebra:
        with open(args.emit_algebra, "w") as fh:
            fh.write(serialize_lie(alg))
        print(f"wrote {args.emit_algebra}", file=sys.stderr)
    report = _report(args, payload, [args.file])
    _emit(args, report, lines)
    return 0 if ok else 1


def cmd_catalog3(args):
    rows = []
    lines = []
    for entry in catalog():
        rows.append({
            "name": entry.name,
            "parameter": None if entry.parameter is None
            else fmt(entry.parameter),
            "nu": entry.nu,
        })
        param = "" if entry.parameter is None \
            else f" (parameter {fmt(entry.parameter)})"
        lines.append(f"{entry.name}{param} nu={entry.nu}")
    report = _report(args, {"rows": rows})
    _emit(args, report, lines)
    return 0


def cmd_reproduce(args):
    rows = []
    for check in ALL_CHECKS:
        t0 = time.perf_counter()
        rows.append(check())
        print("%s %.2fs" % (rows[-1][0], time.perf_counter() - t0), file=sys.stderr)
    lines = ["%s %s -- %s" % ("PASS" if ok else "FAIL", name, detail)
             for name, ok, detail in rows]
    report = _report(args, {
        "rows": [{"name": n, "ok": ok, "detail": d} for n, ok, d in rows],
    })
    _emit(args, report, lines)
    return 0 if all(ok for _, ok, _ in rows) else 1


@functools.lru_cache(maxsize=None)
def build_parser():
    """The nicebase argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="nicebase",
        description="decide, construct and count nice bases of rational"
                    " Lie algebras")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit a machine readable report")
        p.set_defaults(func=func)
        return p

    p = add("check", cmd_check, "test whether a defining basis is nice")
    p.add_argument("file")
    p = add("pre-einstein", cmd_pre_einstein,
            "distinguished diagonal derivation of a nicely based algebra")
    p.add_argument("file")
    p = add("nu-product", cmd_nu_product,
            "count nice bases of a direct sum via spectrum disjointness")
    p.add_argument("files", nargs="+")
    p = add("aa", cmd_aa,
            "nice basis existence and count for an almost abelian algebra")
    p.add_argument("file")
    p = add("graph", cmd_graph, "nice basis test for a graph algebra")
    p.add_argument("file")
    p.add_argument("--nice", action="store_true",
                   help="print a verified nice basis when one exists")
    p.add_argument("--emit-algebra", metavar="OUT",
                   help="write the structure constants to OUT")
    add("catalog3", cmd_catalog3,
        "table of three dimensional algebras with their counts")
    add("reproduce", cmd_reproduce, "run the verification battery")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("elapsed %.3fs" % (time.perf_counter() - t0), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
