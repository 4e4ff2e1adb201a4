"""Properties of the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_cli_import_leaves_numpy_unloaded():
    # only the finite field oracle needs numpy, and it imports it lazily,
    # which keeps the start-up of every CLI call cheap
    src = str(pathlib.Path(gainarr.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, gainarr.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
