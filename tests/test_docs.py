"""The README documents only names that the package exports, and names only
attributes that its modules have."""

import importlib
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


def test_layout_lists_every_module_of_the_package():
    text = README.read_text()
    start = text.index("## Layout")
    listed = re.findall(r"`(\w+\.py)`", text[start:text.index("\n- `tests/`", start)])
    package = README.parent / "src" / "nicebasis"
    assert sorted(listed) == sorted(p.name for p in package.glob("*.py"))
    assert len(listed) == len(set(listed))


def test_module_attribute_references_resolve():
    # `linalg._cleared` and `nicebasis.scalars.Q` must name attributes of those
    # modules; `scalars.py` and `p.ints` are no such references
    text = README.read_text()
    modules = {p.stem for p in (README.parent / "src" / "nicebasis").glob("*.py")}
    refs = {(module, name) for module, name in re.findall(r"`(?:nicebasis\.)?(\w+)\.(\w+)`", text)
            if module in modules and name != "py"}
    assert len(refs) >= 9
    assert [f"{module}.{name}" for module, name in sorted(refs)
            if not hasattr(importlib.import_module(f"nicebasis.{module}"), name)] == []
