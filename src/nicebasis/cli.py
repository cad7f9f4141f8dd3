"""Command line front end.

COMMANDS names the subcommands and their arguments, parse_argv reads argv by it, and main
calls the subcommand through this module's binding of its cmd_* function, so a wrapper
set on the module runs.  Reports go to standard output and are deterministic for
identical inputs; timing and other diagnostics go to standard error.

Exit codes: 0 for a positive verdict, 1 for a negative one (not nice,
no nice basis, rule inapplicable, a failing reproduction row), 2 for
usage or input errors.
"""

import io
import json
import sys
import time
import types

from .scalars import fmt
from .lie import parse_lie, save_lie
from .nice import check_nice
from .derivations import (
    pre_einstein_nice,
    nu_product_rule,
    simple_spectrum_unique,
    spectra_disjoint,
    NotNiceBasis,
)
from .almost_abelian import analyze, parse_matrix
from .graphs import (
    parse_graph,
    graph_algebra,
    nice_predicate,
    construct_nice_basis,
    DimensionCapExceeded,
)
from .catalog3 import catalog


class UsageError(Exception):
    pass


def _emit(args, payload, lines, inputs):
    """Print the text lines or, under --json, the report: the payload in the common envelope
    of the command and the SHA-256 digest of each input, given as {path: the bytes read}."""
    if args.json:
        import hashlib  # only --json reports hash
        digests = {str(p): hashlib.sha256(raw).hexdigest() for p, raw in inputs.items()}
        report = {"command": args.subcommand, "inputs": digests}
        print(json.dumps({**report, **payload}, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _loader(parse):
    """load(path): (parse(text), the file's bytes), the bytes read once and decoded to text
    as open(path).read() decodes them; an unreadable or malformed file raises a UsageError."""
    def load(path):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            return parse(io.TextIOWrapper(io.BytesIO(raw)).read()), raw
        except (OSError, ValueError) as err:
            raise UsageError(f"{path}: {err}")
    return load


_load_lie, _load_matrix, _load_graph = map(_loader, (parse_lie, parse_matrix, parse_graph))


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
    g, raw = _load_lie(args.file)
    verdict = check_nice(g)
    lines = ["nice" if verdict.is_nice else "not nice"]
    lines += [_fmt_violation(v) for v in verdict.violations]
    _emit(args, {
        "nice": verdict.is_nice,
        "violations": [_json_violation(v) for v in verdict.violations],
    }, lines, {args.file: raw})
    return 0 if verdict.is_nice else 1


def cmd_pre_einstein(args):
    g, raw = _load_lie(args.file)
    try:
        pe = pre_einstein_nice(g)
    except NotNiceBasis as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    diag = [fmt(c.get(i, 0)) for i, c in enumerate(pe.matrix.columns)]
    spectrum = [[fmt(v), m] for v, m in pe.multiplicities().items()]
    lines = ["diagonal " + " ".join(diag),
             "spectrum " + " ".join(f"{v}:{m}" for v, m in spectrum)]
    _emit(args, {"diagonal": diag, "spectrum": spectrum}, lines, {args.file: raw})
    return 0


def cmd_nu_product(args):
    parts = []
    factors = []
    inputs = {}
    for path in args.files:
        g, inputs[path] = _load_lie(path)
        try:
            pe = pre_einstein_nice(g)
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
    }, [outcome], inputs)
    return code


def cmd_aa(args):
    a, raw = _load_matrix(args.file)
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
    }, lines, {args.file: raw})
    return 0 if verdict.status == "yes" else 1


def cmd_graph(args):
    g, raw = _load_graph(args.file)
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
    _emit(args, payload, lines, {args.file: raw})
    return 0 if ok else 1


def cmd_catalog3(args):
    rows = []
    lines = []
    for entry in catalog():
        param = None if entry.parameter is None else fmt(entry.parameter)
        rows.append({"name": entry.name, "parameter": param, "nu": entry.nu})
        lines.append(entry.name + ("" if param is None else f" (parameter {param})")
                     + f" nu={entry.nu}")
    _emit(args, {"rows": rows}, lines, {})
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
    }, lines, {})
    return 0 if all(row[1] for row in rows) else 1


# subcommand -> (its cmd_* function, its positional: "file", "files" (one or more) or None,
# its options besides --json: "--flag" or "--option VALUE", also read as --option=VALUE)
COMMANDS = {
    "check": (cmd_check, "file", ()),
    "pre-einstein": (cmd_pre_einstein, "file", ()),
    "nu-product": (cmd_nu_product, "files", ()),
    "aa": (cmd_aa, "file", ()),
    "graph": (cmd_graph, "file", ("--nice", "--emit-algebra OUT")),
    "catalog3": (cmd_catalog3, None, ()),
    "reproduce": (cmd_reproduce, None, ()),
}


def parse_argv(argv):
    """The attributes the commands read, from argv; a bad argv raises UsageError.  The
    README's "Command line" gives the grammar."""
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown subcommand {argv[0]!r}" if argv else "no subcommand"
        raise UsageError(f"{got}; choose one of {', '.join(COMMANDS)}")
    name, tokens = argv[0], iter(argv[1:])
    _, positional, options = COMMANDS[name]
    takes = {o.split()[0]: " " in o for o in ("--json",) + options}  # does it take a value?
    args = {o[2:].replace("-", "_"): None if v else False for o, v in takes.items()}
    found, after = [], False  # the positionals; has an option followed them?
    for token in tokens:
        option, eq, value = token.partition("=")
        if token == "-" or not token.startswith("-"):
            if after or not positional or found and positional == "file":
                raise UsageError(f"{name}: unexpected argument {token!r}")
            found.append(token)
            continue
        if option not in takes or eq and not takes[option]:
            raise UsageError(f"{name}: unknown option {token!r}")
        if takes[option] and not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and value != "-":
                raise UsageError(f"{name}: {option} needs a value")
        args[option[2:].replace("-", "_")] = value if takes[option] else True
        after = bool(found)
    if positional and not found:
        raise UsageError(f"{name}: missing FILE")
    if positional:
        args[positional] = found if positional == "files" else found[0]
    return types.SimpleNamespace(subcommand=name, **args)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:  # the synopsis, read off COMMANDS
        files = {"file": " FILE", "files": " FILE [FILE ...]", None: ""}
        print("usage:", *(f"  nicebase {name} " + " ".join(f"[{o}]" for o in ("--json", *opts))
                          + files[p] for name, (_, p, opts) in COMMANDS.items()), sep="\n")
        return 0
    try:
        args = parse_argv(argv)
        t0 = time.perf_counter()
        code = globals()[COMMANDS[args.subcommand][0].__name__](args)  # as patched
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("elapsed %.3fs" % (time.perf_counter() - t0), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
