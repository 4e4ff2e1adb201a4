"""Arrangement construction, restriction, and essentialization."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainarr.arrangement import (
    bias_domain,
    build_affinographic,
    build_bias,
    build_cone,
    essentialize,
    essentialize_with_map,
    make_arrangement,
    make_hyperplane,
    restriction,
    ziegler_restriction,
)
from gainarr.errors import ArrangementError
from gainarr.gaingraph import GROUP_Z, GainGraph, group_f
from gainarr.scalars import GF, QQ, pivot_columns


@st.composite
def gain_graphs(draw):
    """Graphs over Z, F_2 and F_3 on up to 4 vertices with any labels."""
    group = draw(st.sampled_from([GROUP_Z, group_f(2), group_f(3)]))
    l = draw(st.integers(0, 4))
    labels = sorted(draw(st.sets(st.integers(1, 9), min_size=l, max_size=l)))
    gains = range(-2, 3) if group == GROUP_Z else range(group[1])
    ground = [(i, j, g) for i, j in itertools.combinations(labels, 2) for g in gains]
    edges = draw(st.lists(st.sampled_from(ground), max_size=7)) if ground else []
    return GainGraph(group, labels, edges)


def normalized(D, dim, rows):
    return make_arrangement(D, dim, [make_hyperplane(D, c, k) for c, k in rows])


@settings(max_examples=150, deadline=None)
@given(gain_graphs())
def test_builders_match_the_normalizing_constructors(g):
    # each class written from its upper vertex, x_j - x_i = -g and
    # q^-g x_i - x_j = 0, so make_hyperplane has to rescale every row
    A = QQ if g.group == GROUP_Z else GF(g.group[1])
    B = bias_domain(g.group)
    n = g.n_vertices
    idx = {v: k for k, v in enumerate(g.vertices)}

    def vec(D, entries):
        return tuple(entries.get(k, D.zero) for k in range(n))

    affin = [
        (vec(A, {idx[i]: A.neg(A.one), idx[j]: A.one}), A.from_int(-g_))
        for i, j, g_ in g.edges
    ]
    cone = [(c + (A.neg(k),), A.zero) for c, k in affin]
    cone.append(((A.zero,) * n + (A.one,), A.zero))
    bias = [(vec(B, {k: B.one}), B.zero) for k in range(n)]
    bias += [
        (vec(B, {idx[i]: B.q_power(-g_), idx[j]: B.neg(B.one)}), B.zero)
        for i, j, g_ in g.edges
    ]
    built_cone = build_cone(build_affinographic(g))
    assert build_affinographic(g) == normalized(A, n, affin)
    assert built_cone == normalized(A, n + 1, cone)
    assert build_bias(g) == normalized(B, n, bias)
    # essentializing the cone projects it onto the pivot columns as it stands
    members = built_cone.hyperplanes
    pivots = pivot_columns(A, [list(h.coeffs) for h in members])
    rows = [(tuple(h.coeffs[p] for p in pivots), h.const) for h in members]
    ess, mapping = essentialize_with_map(built_cone)
    assert ess == normalized(A, len(pivots), rows)
    for h, (coeffs, const) in zip(members, rows):
        assert mapping[h] == make_hyperplane(A, coeffs, const)


def braid(l):
    edges = [(i, j, 0) for i in range(1, l) for j in range(i + 1, l + 1)]
    return GainGraph(GROUP_Z, tuple(range(1, l + 1)), edges)


def test_affinographic_shape():
    g = braid(4)
    arr = build_affinographic(g)
    assert arr.dim == 4
    assert len(arr.hyperplanes) == 6
    assert arr.is_central  # all constants zero here
    # one hyperplane per class, first nonzero coefficient normalized to 1
    for hp in arr.hyperplanes:
        lead = next(c for c in hp.coeffs if not QQ.is_zero(c))
        assert QQ.eq(lead, QQ.one)


def test_affinographic_parallel_classes_stay_distinct():
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, 0), (1, 2, 1), (1, 2, -1)])
    arr = build_affinographic(g)
    assert len(arr.hyperplanes) == 3
    assert not arr.is_central


def test_cone_adds_one_hyperplane_and_centralizes():
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, 1)])
    arr = build_affinographic(g)
    cone = build_cone(arr)
    assert cone.dim == arr.dim + 1
    assert len(cone.hyperplanes) == len(arr.hyperplanes) + 1
    assert cone.is_central
    # the hyperplane at infinity is the pure last-coordinate one
    assert any(
        all(cone.domain.is_zero(c) for c in hp.coeffs[:-1]) for hp in cone.hyperplanes
    )


def test_bias_shape_over_z():
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (2, 3, 2)])
    arr = build_bias(g)
    # coordinate hyperplanes plus one per edge class
    assert arr.dim == 3
    assert len(arr.hyperplanes) == 5
    assert arr.is_central
    assert arr.domain.name == "Q(q)"


def test_bias_shape_over_f3():
    g = GainGraph(group_f(3), (1, 2), [(1, 2, 1), (1, 2, 2)])
    arr = build_bias(g)
    assert len(arr.hyperplanes) == 4
    assert arr.domain.name == "Q(zeta_3)"


def test_bias_collapses_equal_gain_images():
    # q^0 = 1: the zero-gain bias hyperplane repeats per class only when
    # gains differ; identical classes were already merged by the graph
    g = GainGraph(group_f(2), (1, 2), [(1, 2, 0), (1, 2, 1)])
    arr = build_bias(g)
    assert len(arr.hyperplanes) == 4


def test_restriction_of_braid():
    arr = build_affinographic(braid(3))
    h = arr.hyperplanes[0]
    res = restriction(arr, h)
    assert res.dim == 2
    # the two other hyperplanes coincide on h
    assert len(res.hyperplanes) == 1


def test_restriction_requires_member():
    arr = build_affinographic(braid(3))
    stranger = make_hyperplane(QQ, (F(1), F(1), F(1)), F(0))
    with pytest.raises(ArrangementError):
        restriction(arr, stranger)


def test_ziegler_restriction_counts_coincidences():
    # cone over a 3-vertex graph, restricted to the infinity hyperplane:
    # multiplicities count the gain classes per vertex pair
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (1, 2, 1), (1, 3, 0), (2, 3, 2)])
    cone = build_cone(build_affinographic(g))
    z_hp = next(
        hp
        for hp in cone.hyperplanes
        if all(cone.domain.is_zero(c) for c in hp.coeffs[:-1])
    )
    res, mult = ziegler_restriction(cone, z_hp)
    assert res.dim == 3
    assert len(res.hyperplanes) == 3
    assert sorted(mult.values) == [1, 1, 2]
    assert mult.total() == 4


def test_essentialize_drops_lineality():
    arr = build_affinographic(braid(3))
    ess = essentialize(arr)
    assert ess.dim == 2
    assert len(ess.hyperplanes) == 3
    again = essentialize(ess)
    assert again.dim == ess.dim


def test_essentialize_with_map_tracks_hyperplanes():
    arr = build_affinographic(braid(3))
    ess, mapping = essentialize_with_map(arr)
    assert set(mapping.keys()) == set(arr.hyperplanes)
    assert set(mapping.values()) == set(ess.hyperplanes)
