"""Golden replay of the cli-fixtures requests, kept in tests/golden/cli_fixtures.jsonl.

    python3 tools/golden.py

Runs nicebasis.cli.main in-process, from the root of this repository and on
its `src/`, on each argv of perfbench/cli_expected.json, in text and with
--json, and writes one JSON line per request: the argv, the exit code, the
SHA-256 hex digest of standard output, and standard error without its
`elapsed` line (the one line of it that varies from run to run).  The file
pins the reports byte for byte; tests/test_golden.py replays it.  Rewrite it
only for a change that means to change a report.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "perfbench", "cli_expected.json")
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli_fixtures.jsonl")
ELAPSED = re.compile(r"^elapsed [0-9]+\.[0-9]{3}s\n", re.MULTILINE)


def requests():
    """Each argv of cli_expected.json, in its order, in text and then with --json."""
    with open(EXPECTED) as fh:
        table = json.load(fh)["requests"]
    return [entry["argv"] + flag for entry in table for flag in ([], ["--json"])]


def replay(argv):
    """The golden row of one request, run from ROOT by the imported nicebasis.cli."""
    from nicebasis import cli
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "code": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": ELAPSED.sub("", err.getvalue())}


def read():
    """The rows of the golden file."""
    with open(GOLDEN) as fh:
        return [json.loads(line) for line in fh]


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    rows = [replay(argv) for argv in requests()]
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {os.path.relpath(GOLDEN, ROOT)}")


if __name__ == "__main__":
    main()
