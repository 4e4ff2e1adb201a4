"""Properties of the package source itself and of its record types."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import gainarr
from gainarr import verify
from gainarr.arrangement import Arrangement, Hyperplane, Multiplicity
from gainarr.charpoly import Flat, IntersectionPoset
from gainarr.families import Digraph
from gainarr.freeness import FreenessCertificate
from gainarr.gaingraph import CycleWithGain
from gainarr.intpoly import IntPolynomial
from gainarr.lowdim import CoincidenceResult, Multiarrangement2D
from gainarr.scalars import QQ
from gainarr.signed import SimpleGraph

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


def test_tracer_names_exist():
    # bench/tracer.py's Tracer.install looks every name up with getattr, so
    # a renamed or removed function would fail each traced benchmark run
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("gainarr_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def module(name):
        return importlib.import_module(f"gainarr.{name}")

    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracer.SPANS.items()
        for fn in fns
        if not callable(getattr(module(mod), fn, None))
    ] + [
        f"{mod}.{cls}.{m}"
        for (mod, cls), methods in tracer.COUNTED.items()
        for m in methods
        if not callable(getattr(getattr(module(mod), cls, None), m, None))
    ]
    assert tracer.SPANS and tracer.COUNTED and not missing, missing


def test_bench_workload_plans_bind():
    # bench/workloads.py names suites and their bounds as plain data, so a
    # renamed suite or bound would otherwise show only as a failed run
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("gainarr_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    plans = [
        (name, kwargs)
        for table in (workloads.SUITES, workloads.TINY_SUITES)
        for plan in table.values()
        for name, kwargs in plan
    ]
    for name, kwargs in plans:
        signature = inspect.signature(getattr(verify, name))
        signature.bind(**kwargs, seed=workloads.DEFAULT_SEED)
    assert plans


def _imported_packages(node):
    if isinstance(node, ast.Import):
        return {a.name.split(".")[0] for a in node.names}
    if isinstance(node, ast.ImportFrom) and node.module:
        return {node.module.split(".")[0]}
    return set()


def test_no_numpy_import():
    # the core has no dependency; the point count is pure Python
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if "numpy" in _imported_packages(node)
    ]
    assert SOURCES and not found, found


def _modules_after(statement):
    src = str(pathlib.Path(gainarr.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(out.stdout.split())


def test_cli_import_loads_no_costly_module():
    # the package needs no numpy, and the records are named tuples, so
    # nothing imports dataclasses and the inspect it pulls in; a start-up
    # without them keeps every CLI call cheap.
    # The bare interpreter is the baseline because site may load modules
    # (typing, say) before any gainarr code runs.
    added = _modules_after("import gainarr.cli") - _modules_after("pass")
    assert "gainarr.cli" in added
    assert not added & {"numpy", "dataclasses", "inspect"}, added


def _records():
    """(factory, repr) per record type; each call builds a fresh value."""
    h = "Hyperplane(coeffs=(1, 0), const=2)"
    chi = IntPolynomial([2, -3, 1])
    return [
        (lambda: Hyperplane((1, 0), 2), h),
        (
            lambda: Arrangement(QQ, 2, (Hyperplane((1, 0), 2),)),
            f"Arrangement(domain=Q, dim=2, hyperplanes=({h},))",
        ),
        (lambda: Multiplicity((1, 2)), "Multiplicity(values=(1, 2))"),
        (lambda: Flat(frozenset({0}), 1), "Flat(closure=frozenset({0}), rank=1)"),
        (
            lambda: IntersectionPoset(None, (Flat(frozenset(), 0),), (1,)),
            "IntersectionPoset(arrangement=None,"
            " flats=(Flat(closure=frozenset(), rank=0),), mobius=(1,))",
        ),
        (
            lambda: Digraph.make(3, [(2, 3), (1, 2)]),
            "Digraph(n_vertices=3, arcs=((1, 2), (2, 3)))",
        ),
        (
            lambda: FreenessCertificate(
                "if", "cone", ("Z", (1, 2), ()), True, chi, (1, 2), (), None, 1
            ),
            "FreenessCertificate(decider='if', kind='cone',"
            " graph_key=('Z', (1, 2), ()), verdict=True,"
            " chi=IntPolynomial((2, -3, 1)), exponents=(1, 2), steps=(),"
            " refutation=None, nodes_explored=1)",
        ),
        (
            lambda: CycleWithGain((1, 2, 3), ((1, 2, 0), (2, 3, 0), (1, 3, 1)), -1),
            "CycleWithGain(vertices=(1, 2, 3),"
            " edges=((1, 2, 0), (2, 3, 0), (1, 3, 1)), gain=-1)",
        ),
        (
            lambda: Multiarrangement2D(QQ, ((0, 1), (1, 0)), (2, 1)),
            "Multiarrangement2D(domain=Q, lines=((0, 1), (1, 0)), mults=(2, 1))",
        ),
        (
            lambda: CoincidenceResult(True, True, (1, 1, 2), (1, 1, 2), chi, chi),
            "CoincidenceResult(free_cone=True, free_bias=True,"
            " detail_cone=(1, 1, 2), detail_bias=(1, 1, 2),"
            " chi_affin=IntPolynomial((2, -3, 1)),"
            " chi_bias=IntPolynomial((2, -3, 1)))",
        ),
        (
            lambda: SimpleGraph.make([2, 1, 3], [(2, 1)]),
            "SimpleGraph(vertices=(1, 2, 3), edges=((1, 2),))",
        ),
    ]


def test_records_are_immutable_values():
    cases = _records()
    assert len({type(make()) for make, _ in cases}) == len(cases) == 11
    for make, text in cases:
        a, b = make(), make()
        cls = type(a)
        assert a is not b and a == b and hash(a) == hash(b)
        changed = cls(*a[:-1], "other")
        assert changed != a and not changed == a
        assert repr(a) == text
        assert cls.__doc__ and cls.__doc__.strip()
        for name in (cls._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)


def test_record_len_keeps_its_meaning():
    h = Hyperplane((1, 0), 2)
    assert len(Arrangement(QQ, 2, (h, h._replace(const=3)))) == 2
    poset = IntersectionPoset(None, tuple(Flat(frozenset(), r) for r in range(4)), ())
    assert len(poset) == 4
    cycle = CycleWithGain((1, 2, 3, 4), (), 0)
    assert len(cycle) == 4
    # each still holds its three fields
    assert [len(tuple(r)) for r in (poset, cycle)] == [3, 3]
