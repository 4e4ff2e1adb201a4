"""Rank-2 multiarrangement exponents and rank-3 freeness."""

from fractions import Fraction as F

import pytest

from gainarr.arrangement import (
    Multiplicity,
    build_affinographic,
    build_cone,
    essentialize_with_map,
    make_arrangement,
    make_hyperplane,
    ziegler_restriction,
)
from gainarr.charpoly import chi_gaingraph_recursive, chi_of_kind
from gainarr.corpus import three_vertex_instances
from gainarr.errors import ArrangementError, BoundExceeded, GraphError
from gainarr.gaingraph import GROUP_Z, GainGraph
from gainarr.lowdim import (
    CoincidenceResult,
    coincidence_3dim,
    exp2_closed_form,
    exp2_solver,
    exponent_shift_matches,
    from_ziegler,
    make_multiarrangement2d,
    schur_bialternant_check,
    yoshinaga_free3,
)
from gainarr.scalars import QQ, QQ_Q

X = (F(1), F(0))
Y = (F(0), F(1))
XY = (F(1), F(-1))


def multi(*pairs):
    return make_multiarrangement2d(QQ, list(pairs))


def test_simple_exponents():
    assert exp2_solver(multi((X, 1), (Y, 1), (XY, 1)), verify=True) == (1, 2)
    assert exp2_solver(multi((X, 2), (Y, 2)), verify=True) == (2, 2)
    assert exp2_solver(multi((X, 3), (Y, 1), (XY, 1)), verify=True) == (2, 3)
    assert exp2_solver(multi((X, 2), (Y, 2), (XY, 2)), verify=True) == (3, 3)


def test_exponents_sum_to_total_multiplicity():
    cases = [
        multi((X, 1), (Y, 1), (XY, 1)),
        multi((X, 3), (Y, 2), (XY, 2)),
        multi((X, 5), (Y, 1)),
    ]
    for m in cases:
        d1, d2 = exp2_solver(m)
        assert d1 + d2 == m.total()
        assert d1 <= d2


def test_degenerate_multiarrangements():
    assert exp2_solver(multi((X, 4)), verify=True) == (0, 4)
    assert exp2_solver(multi()) == (0, 0)


def test_duplicate_lines_combine():
    m = make_multiarrangement2d(QQ, [(X, 1), ((F(2), F(0)), 2)])
    assert len(m.lines) == 1
    assert m.total() == 3


def test_bad_multiplicity_rejected():
    with pytest.raises(ArrangementError):
        make_multiarrangement2d(QQ, [(X, 0)])


def test_multiplicity_cap():
    with pytest.raises(BoundExceeded):
        exp2_solver(multi((X, 40)))


def test_three_lines_closed_form():
    # dominant branch and both parities of the balanced branch
    assert exp2_closed_form(multi((X, 3), (Y, 1), (XY, 1)), "three_lines") == (2, 3)
    assert exp2_closed_form(multi((X, 1), (Y, 1), (XY, 1)), "three_lines") == (1, 2)
    assert exp2_closed_form(multi((X, 2), (Y, 2), (XY, 2)), "three_lines") == (3, 3)
    for m in (
        multi((X, 4), (Y, 2), (XY, 3)),
        multi((X, 1), (Y, 5), (XY, 2)),
        multi((X, 2), (Y, 3), (XY, 4)),
    ):
        assert exp2_solver(m) == exp2_closed_form(m, "three_lines")


def test_many_lines_closed_form():
    # enough distinct lines: exponents (|m| - n + 1, n - 1)
    m = multi((X, 1), (Y, 1), (XY, 1))
    assert exp2_closed_form(m, "many_lines") == (1, 2)
    m = multi((X, 2), (Y, 1), (XY, 1), ((F(1), F(-2)), 1))
    assert exp2_solver(m) == exp2_closed_form(m, "many_lines") == (2, 3)


def test_q_powers_closed_form():
    D = QQ_Q
    one, zero = D.one, D.zero

    def qmulti(s, t, gains):
        pairs = [((one, zero), s + 1), ((zero, one), t + 1)]
        pairs += [((one, D.neg(D.q_power(g))), 1) for g in gains]
        return make_multiarrangement2d(D, pairs)

    # wide case u >= s + t
    m = qmulti(0, 0, (0, 1))
    assert exp2_solver(m, verify=True) == exp2_closed_form(m, "q_powers") == (1, 3)
    # balanced case splits near the middle, both parities
    m = qmulti(1, 2, (0, 1, 2))
    assert exp2_solver(m) == exp2_closed_form(m, "q_powers")
    m = qmulti(2, 2, (-1, 0, 1))
    assert exp2_solver(m) == exp2_closed_form(m, "q_powers")


def test_solver_grid_against_q_powers_form():
    D = QQ_Q
    one, zero = D.one, D.zero
    for s in range(0, 2):
        for t in range(s, 3):
            for u in range(t, 4):
                pairs = [((one, zero), s + 1), ((zero, one), t + 1)]
                pairs += [((one, D.neg(D.q_power(g))), 1) for g in range(u)]
                m = make_multiarrangement2d(D, pairs)
                assert exp2_solver(m) == exp2_closed_form(m, "q_powers"), (s, t, u)


def test_from_ziegler():
    # restricting a rank-3 arrangement leaves a rank-2 multiarrangement
    b3ish = make_arrangement(
        QQ,
        3,
        [
            make_hyperplane(QQ, (F(1), F(0), F(0)), F(0)),
            make_hyperplane(QQ, (F(0), F(1), F(0)), F(0)),
            make_hyperplane(QQ, (F(0), F(0), F(1)), F(0)),
            make_hyperplane(QQ, (F(1), F(-1), F(0)), F(0)),
        ],
    )
    res, mult = ziegler_restriction(b3ish, b3ish.hyperplanes[0])
    m = from_ziegler(res, mult)
    assert m.total() == mult.total()
    assert len(m.lines) == len(res.hyperplanes)
    with pytest.raises(ArrangementError):
        from_ziegler(b3ish, mult)
    # one positive multiplicity per line
    for values in ((0,) + mult.values[1:], mult.values[1:], mult.values + (1,)):
        with pytest.raises(ArrangementError):
            from_ziegler(res, Multiplicity(values))


def test_schur_bialternant():
    s = schur_bialternant_check((2, 1), (0, 1, 2))
    assert not QQ_Q.is_zero(s)
    schur_bialternant_check((), (0, 1))
    schur_bialternant_check((3, 2, 1), (0, 1, 3))
    with pytest.raises(ArrangementError):
        schur_bialternant_check((1,), (2, 2))
    with pytest.raises(ArrangementError):
        schur_bialternant_check((1, 2), (0, 1))


def test_schur_of_no_points_is_one():
    # with no points all three determinants are 0 x 0, so s_() = 1
    assert QQ_Q.eq(schur_bialternant_check((), ()), QQ_Q.one)


def test_yoshinaga_fixtures():
    bool3 = make_arrangement(
        QQ,
        3,
        [
            make_hyperplane(QQ, (F(1), F(0), F(0)), F(0)),
            make_hyperplane(QQ, (F(0), F(1), F(0)), F(0)),
            make_hyperplane(QQ, (F(0), F(0), F(1)), F(0)),
        ],
    )
    free, payload = yoshinaga_free3(bool3, bool3.hyperplanes[0])
    assert free and payload == (1, 1, 1)
    gen = make_arrangement(
        QQ,
        3,
        [
            make_hyperplane(QQ, (F(1), F(0), F(0)), F(0)),
            make_hyperplane(QQ, (F(0), F(1), F(0)), F(0)),
            make_hyperplane(QQ, (F(0), F(0), F(1)), F(0)),
            make_hyperplane(QQ, (F(1), F(1), F(1)), F(0)),
            make_hyperplane(QQ, (F(1), F(2), F(3)), F(0)),
        ],
    )
    free, why = yoshinaga_free3(gen, gen.hyperplanes[0])
    assert not free and isinstance(why, str)


def test_from_ziegler_takes_the_restriction_as_it_stands():
    cone = build_cone(build_affinographic(GainGraph(
        GROUP_Z, (1, 2, 3), [(1, 2, 0), (1, 2, 1), (1, 3, 0), (2, 3, -1)]
    )))
    ess, _ = essentialize_with_map(cone)
    for h in ess.hyperplanes:
        res, mult = ziegler_restriction(ess, h)
        pairs = [(k.coeffs, m) for k, m in zip(res.hyperplanes, mult.values)]
        assert from_ziegler(res, mult) == make_multiarrangement2d(QQ, pairs)


def test_yoshinaga_free3_essentializes_its_input():
    # cones of rank 3, 2 (one parallel pair) and 1 (no edge) in dimension 4
    for edges, rank in (
        ([(1, 2, 0), (1, 3, 0), (2, 3, 1)], 3),
        ([(1, 2, 0), (1, 3, 0), (2, 3, 0)], 3),
        ([(1, 2, 0), (1, 2, 1)], 2),
        ([], 1),
    ):
        g = GainGraph(GROUP_Z, (1, 2, 3), edges)
        cone = build_cone(build_affinographic(g))
        ess, mapping = essentialize_with_map(cone)
        assert ess.dim == rank
        for h in cone.hyperplanes:
            got = yoshinaga_free3(cone, h)
            assert got == yoshinaga_free3(ess, mapping[h])
            assert got == yoshinaga_free3(cone, h, chi=chi_of_kind(g, "cone"))
    assert got == (True, (1,))
    assert yoshinaga_free3(ess, ess.hyperplanes[0]) == (True, (1,))
    # an essential arrangement comes back from essentialize unchanged
    assert essentialize_with_map(ess) == (ess, {h: h for h in ess.hyperplanes})


def test_yoshinaga_free3_refuses_rank_four():
    coords = [[F(int(t == k)) for t in range(4)] for k in range(4)]
    bool4 = make_arrangement(QQ, 4, [make_hyperplane(QQ, c, F(0)) for c in coords])
    with pytest.raises(ArrangementError):
        yoshinaga_free3(bool4, bool4.hyperplanes[0])


def test_exponent_shift_is_the_chi_shift():
    # chi_affin splits with root 0 and chi_bias(t) = chi_affin(t - 1)
    seen = set()
    for g in three_vertex_instances(1, 2):
        chi_a = chi_gaingraph_recursive(g, "affinographic")
        chi_b = chi_gaingraph_recursive(g, "bias")
        roots = chi_a.integer_roots()
        want = roots is not None and 0 in roots and chi_b == chi_a.shift(-1)
        res = CoincidenceResult(None, None, None, None, chi_a, chi_b)
        assert exponent_shift_matches(res) == want
        seen.add(want)
    assert seen == {True, False}


def test_coincidence_not_free_triangle():
    tri = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (1, 3, 0), (2, 3, 1)])
    res = coincidence_3dim(tri)
    assert not res.free_cone and not res.free_bias
    assert str(res.chi_affin) == "t^3 - 3t^2 + 3t"


def test_coincidence_free_fixtures():
    k3 = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (1, 3, 0), (2, 3, 0)])
    res = coincidence_3dim(k3)
    assert res.free_cone and res.free_bias
    assert res.detail_cone == (1, 1, 2)
    assert res.detail_bias == (1, 2, 3)
    assert exponent_shift_matches(res)

    empty = GainGraph(GROUP_Z, (1, 2, 3), [])
    res = coincidence_3dim(empty)
    assert res.free_cone and res.free_bias
    assert res.detail_bias == (1, 1, 1)
    assert exponent_shift_matches(res)


def test_coincidence_catalan_triple():
    cat = GainGraph(
        GROUP_Z,
        (1, 2, 3),
        [(i, j, g) for i in (1, 2) for j in range(i + 1, 4) for g in (-1, 0, 1)],
    )
    res = coincidence_3dim(cat)
    assert res.free_cone and res.free_bias
    assert res.detail_cone == (1, 4, 5)
    assert res.detail_bias == (1, 5, 6)
    assert exponent_shift_matches(res)


def test_coincidence_needs_three_vertices():
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, 0)])
    with pytest.raises(GraphError):
        coincidence_3dim(g)
