"""Properties of chi computed from the intersection poset.

chi of the affinographic arrangement A, the bias arrangement B and the
cone of A must not change under an order-preserving relabeling of the
vertices, nor under potential switching g_ij -> g_ij + a_i - a_j of
integer gains: switching translates A and rescales the coordinates of B
by powers of q, so B's rows carry shifted (often negative) exponents.
Contracting an edge i -> j or its reverse j -> i gives graphs with equal
chi, and every member H of an arrangement satisfies deletion-restriction.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gainarr.arrangement import (
    build_affinographic,
    build_bias,
    build_cone,
    make_arrangement,
    restriction,
)
from gainarr.charpoly import chi_gaingraph_recursive, chi_poset
from gainarr.corpus import F2, vertex_pairs
from gainarr.gaingraph import GROUP_Z, GainGraph, contract_edge, gain_neg


def poset_chis(g):
    a = build_affinographic(g)
    return chi_poset(a), chi_poset(build_bias(g)), chi_poset(build_cone(a))


@st.composite
def gain_graphs(draw, group, min_edges=0):
    l = draw(st.integers(2 if min_edges else 1, 4))
    if group == GROUP_Z:
        ground = [(i, j, k) for i, j in vertex_pairs(l) for k in range(-2, 3)]
    else:
        ground = [(i, j, k) for i, j in vertex_pairs(l) for k in (0, 1)]
    edges = []
    if ground:
        edges = draw(
            st.lists(
                st.sampled_from(ground), min_size=min_edges, max_size=6, unique=True
            )
        )
    return GainGraph(group, tuple(range(1, l + 1)), edges)


any_graph = st.sampled_from([GROUP_Z, F2]).flatmap(gain_graphs)


def relabeled(draw, g):
    n = g.n_vertices
    labels = sorted(draw(st.sets(st.integers(-20, 40), min_size=n, max_size=n)))
    new = dict(zip(g.vertices, labels))
    return GainGraph(g.group, labels, [(new[i], new[j], k) for i, j, k in g.edges])


@settings(max_examples=100, deadline=None)
@given(any_graph, st.data())
def test_chi_invariant_under_order_preserving_relabeling(g, data):
    h = relabeled(data.draw, g)
    assert poset_chis(h) == poset_chis(g)


@settings(max_examples=100, deadline=None)
@given(gain_graphs(GROUP_Z), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_chi_invariant_under_potential_switching(g, potential):
    a = dict(zip(g.vertices, potential))
    switched = [(i, j, k + a[i] - a[j]) for i, j, k in g.edges]
    h = GainGraph(GROUP_Z, g.vertices, switched)
    chis = poset_chis(g)
    assert poset_chis(h) == chis
    assert chis[:2] == (
        chi_gaingraph_recursive(g, "affinographic"),
        chi_gaingraph_recursive(g, "bias"),
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([GROUP_Z, F2]).flatmap(lambda G: gain_graphs(G, 1)), st.data())
def test_contraction_orientation_does_not_change_chi(g, data):
    i, j, k = data.draw(st.sampled_from(g.edges))
    into_j = contract_edge(g, (i, j, k))
    into_i = contract_edge(g, (j, i, gain_neg(g.group, k)))
    assert into_j.vertices != into_i.vertices
    assert poset_chis(into_j) == poset_chis(into_i)
    for kind in ("affinographic", "bias"):
        assert chi_gaingraph_recursive(into_j, kind) == chi_gaingraph_recursive(
            into_i, kind
        )


BUILDERS = {
    "affinographic": build_affinographic,
    "bias": build_bias,
    "cone": lambda g: build_cone(build_affinographic(g)),
}


@settings(max_examples=100, deadline=None)
@given(any_graph, st.sampled_from(sorted(BUILDERS)), st.data())
def test_deletion_restriction(g, kind, data):
    arr = BUILDERS[kind](g)
    assume(arr.hyperplanes)
    h = data.draw(st.sampled_from(arr.hyperplanes))
    deleted = make_arrangement(
        arr.domain, arr.dim, [x for x in arr.hyperplanes if x != h]
    )
    assert chi_poset(arr) == chi_poset(deleted) - chi_poset(restriction(arr, h))
