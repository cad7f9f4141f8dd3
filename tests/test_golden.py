"""Golden replay of the cli-fixtures requests: every argv of perfbench/cli_expected.json,
in text and with --json, gives the exit code, the standard output (by its SHA-256) and the
standard error (its `elapsed` line aside) recorded in tests/golden/cli_fixtures.jsonl by
tools/golden.py.  A change that means to change a report rewrites the file with that tool."""

import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "golden.py")
spec = importlib.util.spec_from_file_location("golden", PATH)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)

ROWS = golden.read()


def test_the_file_covers_every_request_in_text_and_json():
    assert [row["argv"] for row in ROWS] == golden.requests()
    assert len(ROWS) == 130


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(row["argv"]) for row in ROWS])
def test_replay(row):
    assert golden.replay(row["argv"]) == row
