"""conftest.py empties every last-result cache in src/ around each test."""

import ast
from pathlib import Path

from conftest import LAST_RESULT_CACHES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nicebasis"


def is_last_result_cache(decorator):
    """Is the decorator lru_cache(maxsize=1), called as functools.lru_cache or bare?"""
    return (isinstance(decorator, ast.Call)
            and ast.unparse(decorator.func) in ("lru_cache", "functools.lru_cache")
            and any(k.arg == "maxsize" and ast.unparse(k.value) == "1"
                    for k in decorator.keywords))


def last_result_caches():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    is_last_result_cache(d) for d in node.decorator_list):
                yield f"nicebasis.{path.stem}", node.name


def test_every_last_result_cache_is_emptied_around_each_test():
    found = set(last_result_caches())
    listed = {(f.__module__, f.__name__) for f in LAST_RESULT_CACHES}
    assert found == listed

