"""cli.parse_argv against the argparse parser it replaced.

reference_parser is the build_parser that cli.py had before COMMANDS, kept
verbatim apart from its name.  On every argv of perfbench/cli_expected.json,
in text and with --json, and on a seeded corpus of reorderings (options
before, between and after the positionals, repeated flags, --emit-algebra OUT
and --emit-algebra=OUT, unknown options, stray and missing positionals),
parse_argv must give the attributes that the reference gives, and a call of
the same cmd_*, and every argv that the reference rejects must exit 2 with
one line on stderr.  The documented differences are checked on their own:
no option is abbreviated, -h or --help anywhere asks for the synopsis, and
a token that starts with "-" ("--" and "-1" too) is an option.
"""

import argparse
import contextlib
import functools
import io
import json
import random
from pathlib import Path

import pytest

from nicebasis import cli
from nicebasis.cli import (
    COMMANDS,
    UsageError,
    cmd_aa,
    cmd_catalog3,
    cmd_check,
    cmd_graph,
    cmd_nu_product,
    cmd_pre_einstein,
    cmd_reproduce,
    parse_argv,
)

ROOT = Path(__file__).resolve().parent.parent
with open(ROOT / "perfbench" / "cli_expected.json") as fh:
    EXPECTED = [entry["argv"] for entry in json.load(fh)["requests"]]


# --- the reference ---------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def reference_parser():
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


def reference(argv):
    """The reference's (attributes, cmd_* name), or its exit code when it exits."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            ns = vars(reference_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code
    return ns, ns.pop("func").__name__


def candidate(argv):
    """parse_argv's (attributes, cmd_* name), or 2 when it refuses argv."""
    try:
        ns = vars(parse_argv(argv))
    except UsageError:
        return 2
    return ns, COMMANDS[ns["subcommand"]][0].__name__


def assert_rejected(capsys, argv):
    capsys.readouterr()
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# --- the corpus --------------------------------------------------------------------

def reordering(rng, name):
    """An argv for the subcommand name in the reference's grammar: its positionals as one
    run, with its flags, some repeated, and --emit-algebra OUT or =OUT pairs shuffled
    around them."""
    count = {"file": 1, "files": rng.randint(1, 3), None: 0}[COMMANDS[name][1]]
    options = [["--json"]] * rng.randint(0, 2)
    if name == "graph":
        options += [["--nice"]] * rng.randint(0, 2)
        options += [rng.choice([["--emit-algebra", "out.lie"], ["--emit-algebra=out.lie"],
                                ["--emit-algebra="], ["--emit-algebra", "-"]])
                    for _ in range(rng.randint(0, 2))]
    rng.shuffle(options)
    cut = rng.randint(0, len(options))
    parts = options[:cut] + [[f"in{i}.lie" for i in range(count)]] + options[cut:]
    return [name] + [token for part in parts for token in part]


FAULTS = [
    lambda rng, argv, at: argv.insert(at, "stray.lie"),
    lambda rng, argv, at: len(argv) > 1 and argv.pop(rng.randrange(1, len(argv))),
    lambda rng, argv, at: argv.insert(at, rng.choice(["--bogus", "-x", "--nice"])),
    lambda rng, argv, at: argv.insert(at, "--emit-algebra=o"),
    lambda rng, argv, at: argv.insert(at, rng.choice(["--json=1", "--nice=yes"])),
    lambda rng, argv, at: argv.insert(0, "--json"),
    lambda rng, argv, at: argv.append("--emit-algebra"),
    lambda rng, argv, at: argv.insert(at, rng.choice(["-", ""])),
]


def corpus(seed=11, size=600):
    """Seeded reorderings, two in five with one fault that the reference may refuse: a
    stray, lost or empty token, an unknown option, a value given to a flag, an option
    before the subcommand, --emit-algebra with no value."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        argv = reordering(rng, rng.choice(list(COMMANDS)))
        if rng.random() < 0.4:
            rng.choice(FAULTS)(rng, argv, rng.randint(1, len(argv)))
        out.append(argv)
    return out


# --- the checks ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [a + flag for a in EXPECTED for flag in ([], ["--json"])],
                         ids=lambda a: " ".join(a))
def test_every_benchmark_argv_parses_as_the_reference(argv):
    assert candidate(argv) == reference(argv)
    assert candidate(argv) != 2


def test_the_corpus_has_both_outcomes_on_every_subcommand():
    outcomes = {(argv[0], reference(argv) == 2) for argv in corpus()}
    assert outcomes >= {(name, refused) for name in COMMANDS for refused in (False, True)}


def test_the_reordered_corpus_parses_as_the_reference(capsys):
    for argv in corpus():
        expected = reference(argv)
        assert candidate(argv) == expected, argv
        if expected == 2:
            assert_rejected(capsys, argv)


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["--json", "check", "h3.lie"], ["check"], ["check", "a", "b"],
    ["nu-product"], ["nu-product", "a", "--json", "b"], ["catalog3", "x"],
    ["graph", "g", "--emit-algebra"], ["graph", "g", "--emit-algebra", "--json"],
    ["check", "a", "--nice"], ["check", "--json=1", "a"],
])
def test_what_the_reference_refuses_exits_2(capsys, argv):
    assert reference(argv) == 2
    assert_rejected(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["check", "--js", "a"], ["graph", "--n", "g"], ["graph", "g", "--emit", "out"],
    ["graph", "g", "--emit-alg=out"],
])
def test_abbreviations_are_refused(capsys, argv):
    assert reference(argv) != 2
    assert_rejected(capsys, argv)


@pytest.mark.parametrize("argv", [["check", "--", "-a.lie"], ["check", "-1"]])
def test_a_dash_token_is_an_option(capsys, argv):
    assert reference(argv) != 2
    assert_rejected(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["check", "-h"], ["graph", "g", "--help"], ["frobnicate", "-h"],
    ["graph", "g", "--emit-algebra", "-h"],
])
def test_help_anywhere_prints_the_synopsis(capsys, argv):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines[1:]] == [["nicebase", n] for n in COMMANDS]
    assert lines[5] == "  nicebase graph [--json] [--nice] [--emit-algebra OUT] FILE"
    assert lines[3] == "  nicebase nu-product [--json] FILE [FILE ...]"
