"""Command line front end.

Subcommands: check, pre-einstein, nu-product, aa, graph, catalog3,
reproduce. Every subcommand accepts --json. Reports go to standard
output and are deterministic for identical inputs; timing and other
diagnostics go to standard error.

Exit codes: 0 for a positive verdict, 1 for a negative one (not nice,
no nice basis, rule inapplicable, a failing reproduction row), 2 for
usage or input errors.

The parser is built once per process; main calls a subcommand by name, through
this module's binding of its cmd_* function, so a wrapper set on the module runs.
"""

import argparse
import functools
import json
import sys
import time

from .scalars import fmt
from .lie import load_lie, save_lie
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


class UsageError(Exception):
    pass


def _digest(path):
    """The file's SHA-256 hex digest; only --json reports hash, so hashlib loads here."""
    import hashlib
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit(args, payload, lines, inputs=()):
    """Print the text lines or, under --json, the report: the payload in the common
    envelope of the command and the SHA-256 digest of each input file."""
    if args.json:
        report = {"command": args.subcommand, "inputs": {str(p): _digest(p) for p in inputs}}
        print(json.dumps({**report, **payload}, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _loader(read):
    """read(path), with an unreadable or malformed file raised as a UsageError."""
    def load(path):
        try:
            return read(path)
        except (OSError, ValueError) as err:
            raise UsageError(f"{path}: {err}")
    return load


_load_lie, _load_matrix, _load_graph = map(_loader, (load_lie, load_matrix, load_graph))


def _json_violation(v):
    """A violation with its basis indices 1-based, as the reports number them."""
    if v["kind"] == "CONDITION_1":
        return {"kind": v["kind"],
                "pair": [i + 1 for i in v["pair"]],
                "targets": [k + 1 for k in v["targets"]]}
    return {"kind": v["kind"],
            "target": v["target"] + 1,
            "pairs": [[i + 1, j + 1] for i, j in v["pairs"]]}


def _fmt_violation(v):
    v = _json_violation(v)
    if v["kind"] == "CONDITION_1":
        (i, j), targets = v["pair"], ",".join(map(str, v["targets"]))
        return f"CONDITION_1 pair={i},{j} targets={targets}"
    pairs = " ".join(f"{i},{j}" for i, j in v["pairs"])
    return f"CONDITION_2 target={v['target']} pairs={pairs}"


def cmd_check(args):
    g = _load_lie(args.file)
    verdict = check_nice(g)
    lines = ["nice" if verdict.is_nice else "not nice"]
    lines += [_fmt_violation(v) for v in verdict.violations]
    _emit(args, {
        "nice": verdict.is_nice,
        "violations": [_json_violation(v) for v in verdict.violations],
    }, lines, [args.file])
    return 0 if verdict.is_nice else 1


def cmd_pre_einstein(args):
    g = _load_lie(args.file)
    try:
        pe = pre_einstein_nice(g)
    except NotNiceBasis as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    diag = [fmt(c.get(i, 0)) for i, c in enumerate(pe.matrix.columns)]
    spectrum = [[fmt(v), m] for v, m in pe.multiplicities().items()]
    lines = ["diagonal " + " ".join(diag),
             "spectrum " + " ".join(f"{v}:{m}" for v, m in spectrum)]
    _emit(args, {"diagonal": diag, "spectrum": spectrum}, lines, [args.file])
    return 0


def cmd_nu_product(args):
    parts = []
    factors = []
    for path in args.files:
        try:
            pe = pre_einstein_nice(_load_lie(path))
        except NotNiceBasis as err:
            print(f"error: {path}: {err}", file=sys.stderr)
            return 1
        nu = simple_spectrum_unique(pe)
        parts.append((pe, nu))
        factors.append({
            "file": str(path),
            "spectrum": [[fmt(v), m] for v, m in pe.multiplicities().items()],
            "nu": nu,
        })
    result = nu_product_rule(parts)
    if result is None and any(
            not spectra_disjoint(a, b)
            for i, (a, _) in enumerate(parts)
            for b, _ in parts[i + 1:]):
        outcome, code = "inapplicable (spectra overlap)", 1
    elif result is None:
        outcome, code = "unknown (a factor count is undetermined)", 1
    else:
        outcome, code = f"nu = {result}", 0
    _emit(args, {
        "factors": factors,
        "nu": result,
        "outcome": outcome,
    }, [outcome], args.files)
    return code


def cmd_aa(args):
    a = _load_matrix(args.file)
    data = analyze(a)
    verdict = data.exists()
    nu = data.count()
    facts = [str(f) for f in data.factorizations]
    lines = [f"exists {verdict.status}"]
    if verdict.reason:
        lines.append(f"reason {verdict.reason}")
    lines += [f"factorization {f}" for f in facts]
    lines.append("nu " + ("unknown" if nu is None else str(nu)))
    witness = None
    if verdict.witness is not None:
        witness = [list(map(fmt, row)) for row in verdict.witness.data]
        lines.append("witness " + "; ".join(" ".join(row) for row in witness))
    _emit(args, {
        "exists": verdict.status,
        "reason": verdict.reason,
        "factorizations": facts,
        "nu": nu,
        "witness": witness,
    }, lines, [args.file])
    return 0 if verdict.status == "yes" else 1


def cmd_graph(args):
    g = _load_graph(args.file)
    ok, tag = nice_predicate(g)
    lines = [("nice" if ok else "not nice") + f" ({tag})"]
    payload = {"nice": ok, "tag": tag}
    try:
        alg = graph_algebra(g)[0]
    except DimensionCapExceeded as err:
        raise UsageError(f"{args.file}: {err}") from None
    payload["dimension"] = alg.dim
    lines.append(f"dimension {alg.dim}")
    if args.nice and ok:
        basis = construct_nice_basis(g)
        cols = [[fmt(c.get(i, 0)) for i in range(basis.rows)] for c in basis.columns]
        payload["basis_columns"] = cols
        lines += ["basis " + " ".join(col) for col in cols]
    if args.emit_algebra:
        try:
            save_lie(alg, args.emit_algebra)
        except OSError as err:
            raise UsageError(f"{args.emit_algebra}: {err}") from None
        print(f"wrote {args.emit_algebra}", file=sys.stderr)
    _emit(args, payload, lines, [args.file])
    return 0 if ok else 1


def cmd_catalog3(args):
    rows = []
    lines = []
    for entry in catalog():
        param = None if entry.parameter is None else fmt(entry.parameter)
        rows.append({"name": entry.name, "parameter": param, "nu": entry.nu})
        lines.append(entry.name + ("" if param is None else f" (parameter {param})")
                     + f" nu={entry.nu}")
    _emit(args, {"rows": rows}, lines)
    return 0


def cmd_reproduce(args):
    from . import reproduce  # the battery is compiled only when it runs
    rows = []
    for check in reproduce.ALL_CHECKS:
        rows.append(check())
        print("%s %.2fs" % (rows[-1][0], rows[-1][3]), file=sys.stderr)
    lines = ["%s %s -- %s" % ("PASS" if ok else "FAIL", name, detail)
             for name, ok, detail, _ in rows]
    _emit(args, {
        "rows": [{"name": n, "ok": ok, "detail": d} for n, ok, d, _ in rows],
    }, lines)
    return 0 if all(row[1] for row in rows) else 1


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
        code = globals()[args.func.__name__](args)  # the module's binding, as patched
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("elapsed %.3fs" % (time.perf_counter() - t0), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
