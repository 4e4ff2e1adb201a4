"""Arrangement construction, restriction, and essentialization."""

from fractions import Fraction as F

import pytest

from gainarr.arrangement import (
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
from gainarr.scalars import QQ


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
