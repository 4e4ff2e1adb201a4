"""Signed graphs: the freeness characterization and the threshold layer."""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gainarr.charpoly import chi_gaingraph_recursive
from gainarr.freeness import freeness_verdicts
from gainarr.gaingraph import GainGraph, group_f, switch_vertex
from gainarr.intpoly import IntPolynomial, T
from gainarr.signed import (
    OBSTRUCTION_4,
    SimpleGraph,
    edelman_reiner_freeness,
    has_induced_unbalanced_cycle,
    has_switching_obstruction,
    is_balanced_chordal,
    is_threshold,
    signed_freeness_criterion,
)

F2 = group_f(2)


def test_obstruction_graph_characteristic_value():
    chi = chi_gaingraph_recursive(OBSTRUCTION_4, "affinographic")
    assert chi == T * IntPolynomial((-2, 1)) * IntPolynomial((10, -6, 1))


def test_obstruction_detected_and_not_free():
    assert has_switching_obstruction(OBSTRUCTION_4)
    assert not signed_freeness_criterion(OBSTRUCTION_4)
    v = freeness_verdicts(OBSTRUCTION_4)
    assert not any(v["if"].values()) and not any(v["df"].values())


def test_switching_invariance_of_obstruction():
    chi = chi_gaingraph_recursive(OBSTRUCTION_4, "affinographic")
    sw = switch_vertex(switch_vertex(OBSTRUCTION_4, 2), 4)
    assert has_switching_obstruction(sw)
    assert chi_gaingraph_recursive(sw, "affinographic") == chi
    assert signed_freeness_criterion(sw) == signed_freeness_criterion(OBSTRUCTION_4)


def test_positive_four_cycle_needs_chord():
    c4 = GainGraph(F2, (1, 2, 3, 4), [(1, 2, 0), (2, 3, 0), (3, 4, 0), (1, 4, 0)])
    assert not is_balanced_chordal(c4)
    assert not signed_freeness_criterion(c4)
    assert not freeness_verdicts(c4)["df"]["bias"]
    chorded = GainGraph(
        F2, (1, 2, 3, 4), [(1, 2, 0), (2, 3, 0), (3, 4, 0), (1, 4, 0), (1, 3, 0)]
    )
    assert is_balanced_chordal(chorded)
    assert signed_freeness_criterion(chorded)
    assert freeness_verdicts(chorded)["df"]["bias"]


def test_unbalanced_triangle_is_an_induced_obstruction():
    tri = GainGraph(F2, (1, 2, 3), [(1, 2, 0), (2, 3, 0), (1, 3, 1)])
    assert has_induced_unbalanced_cycle(tri)
    assert not signed_freeness_criterion(tri)
    assert not freeness_verdicts(tri)["df"]["bias"]


def test_doubled_pair_disqualifies_induced_cycle():
    tri2 = GainGraph(F2, (1, 2, 3), [(1, 2, 0), (1, 2, 1), (2, 3, 0), (1, 3, 1)])
    assert not has_induced_unbalanced_cycle(tri2)


def test_balance_base_case_chi():
    for l in (1, 2, 3, 4):
        g = GainGraph(F2, tuple(range(1, l + 1)), ())
        assert chi_gaingraph_recursive(g, "bias") == IntPolynomial.from_roots([1] * l)


def test_threshold_forbidden_subgraphs():
    two_k2 = SimpleGraph.make((1, 2, 3, 4), [(1, 2), (3, 4)])
    p4 = SimpleGraph.make((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4)])
    c4 = SimpleGraph.make((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4), (1, 4)])
    star = SimpleGraph.make((1, 2, 3, 4), [(1, 2), (1, 3), (1, 4)])
    assert not is_threshold(two_k2)
    assert not is_threshold(p4)
    assert not is_threshold(c4)
    assert is_threshold(star)
    assert is_threshold(SimpleGraph.make((1, 2, 3), []))
    assert is_threshold(SimpleGraph.make((1,), []))


def test_threshold_construction_agrees_small():
    """Forbidden-subgraph recognition equals the dominating/isolated
    construction on every graph with up to 5 vertices."""
    verts = (1, 2, 3, 4, 5)
    pairs = list(itertools.combinations(verts, 2))
    for mask in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        g = SimpleGraph.make(verts, edges)
        by_subgraphs = is_threshold(g)
        # construction view: repeatedly strip isolated or dominating vertices
        left = set(verts)
        adj = {v: set() for v in verts}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        while left:
            for v in list(left):
                deg = len(adj[v] & left)
                if deg == 0 or deg == len(left) - 1:
                    left.remove(v)
                    break
            else:
                break
        assert by_subgraphs == (not left), edges


def test_edelman_reiner_on_complete_positive_quads():
    quad = (1, 2, 3, 4)
    pos = [(i, j, 0) for i, j in itertools.combinations(quad, 2)]
    for r in range(7):
        for negs in itertools.combinations(list(itertools.combinations(quad, 2)), r):
            g = GainGraph(F2, quad, pos + [(a, b, 1) for a, b in negs])
            er = edelman_reiner_freeness(g)
            assert er == signed_freeness_criterion(g)
            assert er == is_threshold(SimpleGraph.make(quad, negs))


def test_criterion_equals_deciders_on_three_vertices():
    states = ((), (0,), (1,), (0, 1))
    pairs = ((1, 2), (1, 3), (2, 3))
    for combo in itertools.product(states, repeat=3):
        edges = [(i, j, g) for (i, j), st in zip(pairs, combo) for g in st]
        g = GainGraph(F2, (1, 2, 3), edges)
        v = freeness_verdicts(g)
        assert signed_freeness_criterion(g) == v["df"]["bias"] == v["df"]["cone"]


@st.composite
def signed_graphs(draw):
    vs = tuple(range(1, draw(st.integers(1, 5)) + 1))
    ground = [(i, j, s) for i, j in itertools.combinations(vs, 2) for s in (0, 1)]
    edges = draw(st.lists(st.sampled_from(ground), unique=True)) if ground else []
    return GainGraph(F2, vs, edges)


PREDICATES = (
    is_balanced_chordal,
    has_induced_unbalanced_cycle,
    has_switching_obstruction,
    signed_freeness_criterion,
)


@settings(max_examples=60, deadline=None)
@given(signed_graphs(), st.permutations(range(1, 6)))
@example(OBSTRUCTION_4, [3, 1, 4, 2, 5])
def test_signed_predicates_are_switching_and_relabeling_invariant(g, perm):
    want = [p(g) for p in PREDICATES]
    for v in g.vertices:
        assert [p(switch_vertex(g, v)) for p in PREDICATES] == want, v
    edges = [(perm[i - 1], perm[j - 1], s) for i, j, s in g.edges]
    relabeled = GainGraph(F2, [perm[v - 1] for v in g.vertices], edges)
    assert [p(relabeled) for p in PREDICATES] == want
