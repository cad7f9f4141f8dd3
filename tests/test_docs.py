"""The README documents only names that the package exports."""

import re
from pathlib import Path

import nicebasis

README = Path(__file__).resolve().parent.parent / "README.md"


def test_reexport_paragraph_names_are_exported():
    text = README.read_text()
    start = text.index("The top-level package re-exports")
    names = re.findall(r"`(\w+)`", text[start:text.index("\n\n", start)])
    assert names
    assert [name for name in names if name not in nicebasis.__all__] == []
