"""Named families, Raney counts, and the digraph freeness criteria."""

import math
import tracemalloc

import pytest

from gainarr.arrangement import build_bias
from gainarr.charpoly import chi_gaingraph_recursive, region_count
from gainarr.errors import BoundExceeded, GraphError
from gainarr.families import (
    EDELMAN_REINER_3,
    MAX_FAMILY_EDGE_CLASSES,
    MAX_FAMILY_VERTICES,
    Digraph,
    ab_free_criterion,
    ab_supersolvable_criterion,
    digraph_to_gaingraph,
    make_family,
    raney,
)
from gainarr.freeness import df_along_edges, if_along_edges
from gainarr.intpoly import IntPolynomial


def test_raney_values():
    assert raney(3, 2, 1) == 5
    assert raney(2, 2, 2) == 5
    assert raney(3, 2, 2) == 14
    assert raney(2, 1, 1) == 1
    # r = 1 gives Catalan numbers along s = 2
    assert [raney(l, 2, 1) for l in range(5)] == [1, 1, 2, 5, 14]


def test_raney_rejects_bad_parameters():
    with pytest.raises(ValueError):
        raney(2, 0, 0)
    with pytest.raises(ValueError):
        raney(-1, 2, 1)


def test_family_shapes():
    cat21 = make_family("catalan", 2, 1)
    assert len(cat21.edges) == 3
    shi31 = make_family("shi", 3, 1)
    assert len(shi31.edges) == 6
    assert make_family("coxeter", 3) == make_family("catalan", 3, 0)
    assert len(make_family("boolean", 4).edges) == 0
    dms21 = make_family("dms", 2, 1)
    assert len(build_bias(dms21).hyperplanes) == 5


def test_family_rejects_bad_parameters():
    with pytest.raises(GraphError):
        make_family("banana", 3)
    with pytest.raises(GraphError):
        make_family("catalan", 1, 1)
    with pytest.raises(GraphError):
        make_family("catalan", 3, -1)
    with pytest.raises(GraphError):
        make_family("shi", 3, 0)


@pytest.mark.parametrize(
    "kind, l, m",
    [
        ("shi", 200_000, 1),
        ("catalan", 2, 10**9),
        ("boolean", 10**9, 0),
        ("dms", 3, 10**30),
    ],
)
def test_family_caps_refuse_before_building(kind, l, m):
    # the sizes are checked arithmetically: nothing graph-sized is allocated
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded):
            make_family(kind, l, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_family_caps_are_inclusive():
    boolean = make_family("boolean", MAX_FAMILY_VERTICES)
    assert len(boolean.vertices) == MAX_FAMILY_VERTICES
    with pytest.raises(BoundExceeded):
        make_family("boolean", MAX_FAMILY_VERTICES + 1)
    # shi on two vertices has 2m edge classes
    m = MAX_FAMILY_EDGE_CLASSES // 2
    assert len(make_family("shi", 2, m).edges) == MAX_FAMILY_EDGE_CLASSES
    with pytest.raises(BoundExceeded):
        make_family("shi", 2, m + 1)


def test_digraph_make_validates_arcs():
    dg = Digraph.make(3, [(1, 2), (1, 2), (2, 3)])
    assert dg.arcs == ((1, 2), (2, 3))
    with pytest.raises(GraphError):
        Digraph.make(3, [(2, 1)])
    with pytest.raises(GraphError):
        Digraph.make(3, [(1, 4)])
    with pytest.raises(GraphError):
        Digraph.make(3, [(2, 2)])


def test_digraph_to_gaingraph():
    assert digraph_to_gaingraph(Digraph.make(3, [])) == make_family("coxeter", 3)
    dall = Digraph.make(3, [(1, 2), (1, 3), (2, 3)])
    assert digraph_to_gaingraph(dall) == make_family("shi", 3, 1)
    d12 = Digraph.make(3, [(1, 2)])
    assert len(digraph_to_gaingraph(d12).edges) == 4


def test_free_criterion_fixtures():
    # two-arc induced path
    assert not ab_free_criterion(Digraph.make(3, [(1, 2), (2, 3)]))
    # induced disjoint pair
    assert not ab_free_criterion(Digraph.make(4, [(1, 2), (3, 4)]))
    # out-star
    assert ab_free_criterion(Digraph.make(4, [(1, 2), (1, 3), (1, 4)]))
    # transitive triangle: path is not induced
    assert ab_free_criterion(Digraph.make(3, [(1, 2), (2, 3), (1, 3)]))


def test_supersolvable_criterion_fixtures():
    assert ab_supersolvable_criterion(Digraph.make(3, [(1, 3), (2, 3)]))
    assert ab_supersolvable_criterion(Digraph.make(3, [(1, 2), (1, 3)]))
    assert ab_supersolvable_criterion(Digraph.make(2, []))
    assert not ab_supersolvable_criterion(Digraph.make(4, [(1, 2), (3, 4)]))


def test_criterion_matches_inductive_freeness_small():
    for n in (2, 3):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for mask in range(1 << len(pairs)):
            arcs = [p for k, p in enumerate(pairs) if mask >> k & 1]
            dg = Digraph.make(n, arcs)
            g = digraph_to_gaingraph(dg)
            want = ab_free_criterion(dg)
            assert want == if_along_edges(g, "cone").verdict, arcs
            assert want == if_along_edges(g, "bias").verdict, arcs
            if ab_supersolvable_criterion(dg):
                assert want, arcs


def test_catalan_chambers_match_raney():
    for l in (2, 3):
        for m in (0, 1, 2):
            g = make_family("catalan", l, m)
            chi = chi_gaingraph_recursive(g, "affinographic")
            assert region_count(chi) == math.factorial(l) * raney(l, m + 1, 1)


def test_dms_chi_and_chambers():
    for l in (2, 3):
        for m in (1, 2):
            g = make_family("dms", l, m)
            chi = chi_gaingraph_recursive(g, "bias")
            want = IntPolynomial.from_roots([1] + [m * l + k for k in range(2, l + 1)])
            assert chi == want, (l, m, str(chi))
            assert region_count(chi) == math.factorial(l) * raney(l, m + 1, 2)


def test_shi_bias_roots():
    for l in (2, 3):
        for m in (1, 2):
            g = make_family("shi", l, m)
            chi = chi_gaingraph_recursive(g, "bias")
            assert chi == IntPolynomial.from_roots([1] + [m * l + 1] * (l - 1))


def test_edelman_reiner_fixture_is_free():
    cert = df_along_edges(EDELMAN_REINER_3, "bias")
    assert cert.verdict is True
    assert cert.exponents == [1, 3, 5]
