"""Properties of the package source itself."""

import ast
import pathlib

import gainarr

SOURCES = sorted(pathlib.Path(gainarr.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # assert is stripped under python -O, so no check may rely on it
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
