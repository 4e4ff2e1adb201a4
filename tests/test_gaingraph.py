"""Gain graphs: normalization, minors, switching, cycles."""

import random

import pytest

from gainarr import charpoly, freeness, lowdim
from gainarr.errors import BoundExceeded, GraphError
from gainarr.gaingraph import (
    GROUP_Z,
    MAX_SCAN_VERTICES,
    GainGraph,
    contract_edge,
    delete_edge,
    enumerate_cycles,
    gain_add,
    gain_neg,
    group_f,
    induced_subgraph,
    is_balanced,
    normalize_edge,
    switch_vertex,
)

F2 = group_f(2)
F5 = group_f(5)


def test_edge_reversal_negates_gain():
    g = GainGraph(GROUP_Z, (1, 2), [(2, 1, 3)])
    assert g.edges == ((1, 2, -3),)
    h = GainGraph(F5, (1, 2), [(2, 1, 3)])
    assert h.edges == ((1, 2, 2),)


def test_duplicate_classes_collapse():
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, 1), (2, 1, -1), (1, 2, 1)])
    assert g.edges == ((1, 2, 1),)


def test_fp_gains_reduce():
    g = GainGraph(F2, (1, 2), [(1, 2, 7)])
    assert g.edges == ((1, 2, 1),)


def test_loops_rejected():
    with pytest.raises(GraphError):
        GainGraph(GROUP_Z, (1, 2), [(1, 1, 0)])


def test_edges_must_use_known_vertices():
    with pytest.raises(GraphError):
        GainGraph(GROUP_Z, (1, 2), [(1, 3, 0)])


def test_vertices_sorted():
    g = GainGraph(GROUP_Z, (3, 1, 2), [])
    assert g.vertices == (1, 2, 3)


def test_delete_edge():
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (2, 3, 1)])
    h = delete_edge(g, (1, 2, 0))
    assert h.edges == ((2, 3, 1),)
    assert h.vertices == g.vertices


def test_contract_edge_shifts_gains():
    # contracting [1,2,g] sends 1 into 2; [1,3,h] becomes [2,3,h-g] after
    # rerouting through the contracted edge
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 2), (1, 3, 5)])
    h = contract_edge(g, (1, 2, 2))
    assert h.vertices == (2, 3)
    assert h.edges == ((2, 3, 3),)


def test_contract_edge_opposite_orientation():
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 2), (1, 3, 5)])
    h = contract_edge(g, (2, 1, -2))
    assert h.vertices == (1, 3)
    assert h.edges == ((1, 3, 5),)


def test_contract_drops_loops_and_merges_parallels():
    g = GainGraph(
        GROUP_Z, (1, 2, 3), [(1, 2, 0), (1, 2, 1), (1, 3, 0), (2, 3, 0)]
    )
    h = contract_edge(g, (1, 2, 0))
    # the parallel class [1,2,1] becomes an unbalanced loop: discarded
    assert h.vertices == (2, 3)
    assert h.edges == ((2, 3, 0),)


def reference_contract(graph, edge):
    """Contraction re-gained through normalize_edge and gain_add, edge by
    edge: the reference for contract_edge's inline re-gaining."""
    i, j, g = edge
    group = graph.group
    cls = normalize_edge(group, i, j, g)
    if cls not in graph.edges:
        raise GraphError(f"edge {cls} not present")
    new_edges = set()
    for u, v, h in graph.edges:
        if (u, v, h) == cls:
            continue
        if u != i and v != i:
            new_edges.add((u, v, h))
            continue
        if v == i:
            k, toward = u, h
        else:
            k, toward = v, gain_neg(group, h)
        if k == j:
            continue
        new_edges.add(normalize_edge(group, k, j, gain_add(group, toward, g)))
    return GainGraph._make(
        (group, tuple(v for v in graph.vertices if v != i), tuple(sorted(new_edges)))
    )


@pytest.mark.parametrize("group", [GROUP_Z, F2, group_f(3), F5])
def test_contract_edge_matches_reference(group):
    rng = random.Random(f"contract-{group}")
    p = None if group == GROUP_Z else group[1]
    gains = range(-3, 4) if p is None else range(p)
    for _ in range(300):
        l = rng.randint(2, 5)
        pairs = [(i, j) for i in range(1, l + 1) for j in range(i + 1, l + 1)]
        ground = [(i, j, g) for i, j in pairs for g in gains]
        k = rng.randint(1, min(7, len(ground)))
        g = GainGraph(group, range(1, l + 1), rng.sample(ground, k))
        for i, j, h in g.edges:
            # both orientations, and unreduced F_p gains in either
            given = [(i, j, h), (j, i, -h)]
            if p is not None:
                given += [(i, j, h + p * rng.randint(1, 3)), (j, i, p - h - 2 * p)]
            for edge in given:
                assert contract_edge(g, edge) == reference_contract(g, edge)
        absent = [e for e in ground if e not in g.edges]
        if absent:
            i, j, h = rng.choice(absent)
            for edge in ((i, j, h), (j, i, -h)):
                with pytest.raises(GraphError):
                    contract_edge(g, edge)


def test_switching_preserves_cycle_balance():
    g = GainGraph(F2, (1, 2, 3), [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    balances = sorted(is_balanced(c) for c in enumerate_cycles(g))
    s = switch_vertex(g, 2)
    assert s != g
    assert sorted(is_balanced(c) for c in enumerate_cycles(s)) == balances


def test_switching_needs_sign_gains():
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, 1)])
    with pytest.raises(GraphError):
        switch_vertex(g, 1)


def test_switching_is_an_involution_over_f2():
    g = GainGraph(F2, (1, 2, 3), [(1, 2, 0), (2, 3, 1), (1, 3, 1)])
    assert switch_vertex(switch_vertex(g, 2), 2) == g


def test_enumerate_cycles_triangle():
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 1), (2, 3, 2), (1, 3, 3)])
    cycles = list(enumerate_cycles(g))
    assert len(cycles) == 1
    assert is_balanced(cycles[0])
    g2 = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 1), (2, 3, 2), (1, 3, 0)])
    assert not is_balanced(list(enumerate_cycles(g2))[0])


def test_enumerate_cycles_counts():
    # K4 with zero gains: 4 triangles + 3 squares
    edges = [(i, j, 0) for i in (1, 2, 3) for j in range(i + 1, 5)]
    g = GainGraph(GROUP_Z, (1, 2, 3, 4), edges)
    cycles = list(enumerate_cycles(g))
    assert len(cycles) == 7
    assert all(is_balanced(c) for c in cycles)


def test_enumerate_cycles_is_lazy():
    # an iterator, so a caller that stops early never holds the whole list
    edges = [(i, j, 0) for i in (1, 2, 3) for j in range(i + 1, 5)]
    cycles = enumerate_cycles(GainGraph(GROUP_Z, (1, 2, 3, 4), edges))
    assert iter(cycles) is cycles
    assert next(cycles).vertices == (1, 2, 3)
    # the vertex cap is checked before the first cycle is yielded
    with pytest.raises(BoundExceeded):
        next(enumerate_cycles(GainGraph(GROUP_Z, range(MAX_SCAN_VERTICES + 1), [])))


def test_parallel_edges_make_short_cycles():
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, 0), (1, 2, 1)])
    cycles = list(enumerate_cycles(g, min_length=2))
    assert len(cycles) == 1
    assert not is_balanced(cycles[0])


def test_induced_subgraph():
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 1), (2, 3, 2), (1, 3, 3)])
    h = induced_subgraph(g, (1, 3))
    assert h.vertices == (1, 3)
    assert h.edges == ((1, 3, 3),)


# ---------------------------------------------------------------------------
# the graph record: validated on construction, compared and hashed by value


def test_unknown_group_rejected():
    for group in ("Q", ("F",), ("G", 2), ["F", 2]):
        with pytest.raises(GraphError):
            GainGraph(group, (1, 2), [])


def test_constructor_normalizes_and_collapses():
    g = GainGraph(GROUP_Z, (2, 1), [(2, 1, 3), (1, 2, -3), (2, 1, 3)])
    assert g.vertices == (1, 2)
    assert g.edges == ((1, 2, -3),)


def test_canonical_key_identifies_equal_graphs():
    # the graph is its own canonical key
    a = GainGraph(GROUP_Z, (1, 2), [(2, 1, -1)])
    b = GainGraph(GROUP_Z, (2, 1), [(1, 2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a == tuple(a) == (GROUP_Z, (1, 2), ((1, 2, 1),))
    assert hash(a) == hash(tuple(a))
    assert len({a, b, tuple(a)}) == 1
    assert a != GainGraph(GROUP_Z, (1, 2), [(1, 2, 2)])
    assert a != GainGraph(F2, (1, 2), [(1, 2, 1)])


def test_repr_is_the_constructor_call():
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, 0)])
    assert repr(g) == "GainGraph('Z', (1, 2), ((1, 2, 0),))"


def test_graph_is_immutable():
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, 0)])
    with pytest.raises(AttributeError):
        g.edges = ()
    with pytest.raises(AttributeError):
        g.label = "x"
    assert g.edges == ((1, 2, 0),)


def test_minors_are_canonical_records():
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 2), (1, 3, 5), (2, 3, 0)])
    for h in (
        delete_edge(g, (1, 3, 5)),
        contract_edge(g, (1, 2, 2)),
        induced_subgraph(g, (3, 1)),
    ):
        assert type(h) is GainGraph
        assert h == GainGraph(*h)


def test_clear_caches_empties_every_memo():
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (2, 3, 1)])
    freeness.freeness_verdicts(g)
    lowdim.coincidence_3dim(g)
    memos = (charpoly._chi_rec, charpoly._cone, freeness._sides_of, lowdim._exp2)
    tables = (charpoly._INTERNED, freeness._ANALYSIS, freeness._RECORDS)
    assert all(m.cache_info().currsize > 0 for m in memos)
    assert all(tables)
    for module in (charpoly, freeness, lowdim):
        module.clear_caches()
    assert all(m.cache_info().currsize == 0 for m in memos)
    assert not any(tables)
