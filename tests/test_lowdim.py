"""Rank-2 multiarrangement exponents and rank-3 freeness."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainarr import lowdim
from gainarr.arrangement import (
    Hyperplane,
    Multiplicity,
    build_affinographic,
    build_bias,
    build_cone,
    essentialize_with_map,
    make_arrangement,
    make_hyperplane,
    ziegler_restriction,
)
from gainarr.charpoly import chi_gaingraph_recursive, chi_of_kind, chi_poset
from gainarr.corpus import three_vertex_instances, vertex_pairs
from gainarr.errors import (
    ArrangementError,
    BoundExceeded,
    GraphError,
    VerificationError,
)
from gainarr.families import make_family
from gainarr.gaingraph import GROUP_Z, GainGraph, group_f
from gainarr.intpoly import IntPolynomial
from gainarr.lowdim import (
    CoincidenceResult,
    _condition_rows,
    coincidence_3dim,
    exp2_many_lines,
    exp2_q_powers,
    exp2_solver,
    exp2_three_lines,
    exponent_shift_matches,
    from_ziegler,
    make_multiarrangement2d,
    schur_bialternant_check,
    yoshinaga_free3,
)
from gainarr.scalars import GF, QQ, QQ_Q, nullspace, pivot_columns, rank_of_rows

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
    # an int >= 1 and not a bool: 1.5 used to pass the m <= 0 check and fail
    # later in the solver, and True counted as 1
    for m in (0, -1, 1.5, True, F(1), "1"):
        with pytest.raises(ArrangementError):
            make_multiarrangement2d(QQ, [(X, m)])


def test_multiplicity_cap():
    with pytest.raises(BoundExceeded):
        exp2_solver(multi((X, 40)))


def test_three_lines_closed_form():
    # dominant branch and both parities of the balanced branch
    assert exp2_three_lines(3, 1, 1) == (2, 3)
    assert exp2_three_lines(1, 1, 1) == (1, 2)
    assert exp2_three_lines(2, 2, 2) == (3, 3)
    for mults in ((4, 2, 3), (1, 5, 2), (2, 3, 4)):
        m = multi(*zip((X, Y, XY), mults))
        assert exp2_solver(m) == exp2_three_lines(*mults)


def test_many_lines_closed_form():
    # enough distinct lines: exponents (|m| - n + 1, n - 1)
    assert exp2_many_lines(3, 3) == (1, 2)
    m = multi((X, 2), (Y, 1), (XY, 1), ((F(1), F(-2)), 1))
    assert exp2_solver(m) == exp2_many_lines(4, 5) == (2, 3)


def test_q_powers_closed_form():
    D = QQ_Q
    one, zero = D.one, D.zero

    def qmulti(s, t, gains):
        pairs = [((one, zero), s + 1), ((zero, one), t + 1)]
        pairs += [((one, D.neg(D.q_power(g))), 1) for g in gains]
        return make_multiarrangement2d(D, pairs)

    # wide case u >= s + t
    m = qmulti(0, 0, (0, 1))
    assert exp2_solver(m, verify=True) == exp2_q_powers(0, 0, 2) == (1, 3)
    # balanced case splits near the middle, both parities
    m = qmulti(1, 2, (0, 1, 2))
    assert exp2_solver(m) == exp2_q_powers(1, 2, 3)
    m = qmulti(2, 2, (-1, 0, 1))
    assert exp2_solver(m) == exp2_q_powers(2, 2, 3)


def test_solver_grid_against_q_powers_form():
    D = QQ_Q
    one, zero = D.one, D.zero
    for s in range(0, 2):
        for t in range(s, 3):
            for u in range(t, 4):
                pairs = [((one, zero), s + 1), ((zero, one), t + 1)]
                pairs += [((one, D.neg(D.q_power(g))), 1) for g in range(u)]
                m = make_multiarrangement2d(D, pairs)
                assert exp2_solver(m) == exp2_q_powers(s, t, u), (s, t, u)


def test_closed_forms_refuse_out_of_range_shapes():
    for args in ((0, 1, 1), (2, -1, 3)):
        with pytest.raises(ArrangementError):
            exp2_three_lines(*args)
    for n, total in ((3, 5), (4, 3), (1, 1)):
        with pytest.raises(ArrangementError):
            exp2_many_lines(n, total)
    for s, t, u in ((-1, 0, 0), (2, 1, 3), (1, 3, 2)):
        with pytest.raises(ArrangementError):
            exp2_q_powers(s, t, u)


# distinct points of the projective line over Q: None is the line y = 0
qq_slopes = st.one_of(
    st.none(), st.fractions(min_value=-5, max_value=5, max_denominator=4)
)


def slope_line(c):
    return (F(0), F(1)) if c is None else (F(1), c)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(qq_slopes, min_size=3, max_size=3, unique=True),
    st.lists(st.integers(1, 6), min_size=3, max_size=3),
)
def test_solver_matches_three_lines_on_random_lines(slopes, mults):
    m = multi(*zip(map(slope_line, slopes), mults))
    assert exp2_solver(m) == exp2_three_lines(*mults)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.data())
def test_solver_matches_many_lines_on_random_lines(n, data):
    slopes = data.draw(st.lists(qq_slopes, min_size=n, max_size=n, unique=True))
    total = data.draw(st.integers(n, 2 * n - 2))
    extra = st.integers(0, n - 1)
    mults = [1] * n
    for k in data.draw(st.lists(extra, min_size=total - n, max_size=total - n)):
        mults[k] += 1
    m = multi(*zip(map(slope_line, slopes), mults))
    assert exp2_solver(m) == exp2_many_lines(n, total)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.data())
def test_solver_matches_q_powers_on_random_gains(u, data):
    D = QQ_Q
    t = data.draw(st.integers(0, u))
    s = data.draw(st.integers(0, t))
    gains = data.draw(st.lists(st.integers(-3, 3), min_size=u, max_size=u, unique=True))
    pairs = [((D.one, D.zero), s + 1), ((D.zero, D.one), t + 1)]
    pairs += [((D.one, D.neg(D.q_power(g))), 1) for g in gains]
    m = make_multiarrangement2d(D, pairs)
    assert exp2_solver(m) == exp2_q_powers(s, t, u)


def assert_hilbert_function(m):
    # every degree-d kernel has the dimension of the free module with the
    # solver's exponents; nullspace's in-domain elimination, checked against
    # the solver's rank over the integer image
    D, total = m.domain, m.total()
    pair = exp2_solver(m)
    for d in range(total + 1):
        rows = _condition_rows(D, m.lines, m.mults, d)
        got = len(nullspace(D, rows, 2 * (d + 1)))
        assert got == sum(max(0, d - e + 1) for e in pair), (m, pair, d)


def test_hilbert_function_of_small_shapes():
    assert_hilbert_function(multi())
    for line in (X, Y):
        for k in (1, 2, 5):
            assert_hilbert_function(multi((line, k)))
    assert_hilbert_function(multi((Y, 4), (X, 1)))
    assert_hilbert_function(multi((Y, 1), (XY, 3), ((F(1), F(2)), 2)))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(qq_slopes, min_size=1, max_size=5, unique=True),
    st.lists(st.integers(1, 4), min_size=5, max_size=5),
)
def test_hilbert_function_over_qq(slopes, mults):
    assert_hilbert_function(multi(*zip(map(slope_line, slopes), mults)))


# q-power slopes c q^g; (0, 0) is the line x and None the line y.  |m| stays
# at most 8: a Q(q) nullspace at degree 12 can take seconds
q_slopes = [None, (0, 0)] + [(c, g) for c in (1, -1, 2) for g in range(-2, 3)]


def q_line(s):
    D = QQ_Q
    if s is None:
        return (D.zero, D.one)
    c, g = s
    return (D.one, D.mul(D.from_int(c), D.q_power(g)))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(q_slopes), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(1, 2), min_size=4, max_size=4),
)
def test_hilbert_function_over_q_of_q(slopes, mults):
    m = make_multiarrangement2d(QQ_Q, [(q_line(s), k) for s, k in zip(slopes, mults)])
    assert_hilbert_function(m)


def test_verify_checks_kernel_dimensions(monkeypatch):
    # exponents (3, 4); one rank short reads (2, 5), and the degree-2
    # nullspace is empty where the Hilbert function of (2, 5) gives 1
    m = multi((X, 3), (Y, 2), (XY, 2))
    real = lowdim.rank_of_rows
    lowdim.clear_caches()
    monkeypatch.setattr(lowdim, "rank_of_rows", lambda D, rows: real(D, rows) - 1)
    with pytest.raises(VerificationError, match="degree-2 kernel dimension 0, not 1"):
        exp2_solver(m, verify=True)
    monkeypatch.undo()
    assert exp2_solver(m, verify=True) == (3, 4)


def test_solver_refuses_impossible_kernel_dimensions(monkeypatch):
    # odd |m| = 3 leaves a kernel at degree 1; a full rank there fits no pair
    m = multi((X, 1), (Y, 1), ((F(1), F(3)), 1))
    lowdim.clear_caches()
    monkeypatch.setattr(lowdim, "rank_of_rows", lambda D, rows: len(rows[0]))
    with pytest.raises(VerificationError, match="kernel dimension 0 at 1"):
        exp2_solver(m)
    monkeypatch.setattr(lowdim, "rank_of_rows", lambda D, rows: len(rows[0]) + 1)
    with pytest.raises(VerificationError, match="kernel dimension -1 at 1"):
        exp2_solver(m)
    monkeypatch.undo()
    assert exp2_solver(m) == (1, 2)


def test_condition_rows_scale_each_normal_to_its_pivot():
    for d in range(4):
        got = _condition_rows(QQ, [(F(2), F(4)), (F(0), F(3))], (2, 1), d)
        want = _condition_rows(QQ, [(F(1), F(2)), Y], (2, 1), d)
        assert nullspace(QQ, got, 2 * d + 2) == nullspace(QQ, want, 2 * d + 2)


def test_verify_over_f2_where_every_point_is_on_a_line():
    # x, y, x + y cover F2^2, so no point off the arrangement exists; the
    # rank form of Saito's test needs none
    m = make_multiarrangement2d(GF(2), [((1, 0), 1), ((0, 1), 1), ((1, 1), 2)])
    assert exp2_solver(m, verify=True) == (2, 2)


def assert_kernel_dims_follow_chi(arr, chi):
    # a free arrangement's exponents are its chi roots (Terao), so the
    # degree-d kernel in ell = arr.dim variables has the dimension
    # sum C(d - e + ell - 1, ell - 1), d up to the largest root
    roots, ell = chi.integer_roots(), arr.dim
    normals = [h.coeffs for h in arr.hyperplanes]
    for d in range(max(roots) + 1):
        rows = _condition_rows(arr.domain, normals, [1] * len(normals), d)
        dim = ell * math.comb(d + ell - 1, ell - 1) - rank_of_rows(arr.domain, rows)
        assert dim == sum(math.comb(d - e + ell - 1, ell - 1) for e in roots if e <= d)
    return roots


def b3():
    units = [tuple(F(int(i == k)) for i in range(3)) for k in range(3)]
    pairs = [
        tuple(F(1) if i == a else F(s) if i == b else F(0) for i in range(3))
        for a in range(3)
        for b in range(a + 1, 3)
        for s in (1, -1)
    ]
    return make_arrangement(QQ, 3, [make_hyperplane(QQ, c, F(0)) for c in units + pairs])


def test_kernel_dims_in_three_and_four_variables():
    arr = b3()
    assert assert_kernel_dims_follow_chi(arr, chi_poset(arr)) == [1, 3, 5]
    # the extended Catalan graph, l = 3, m = 1: its cone as built (ell = 4,
    # 10 hyperplanes, lineality 1) and its bias side over Q(q)
    g = make_family("catalan", 3, 1)
    cone = build_cone(build_affinographic(g))
    assert (cone.dim, len(cone.hyperplanes)) == (4, 10)
    assert assert_kernel_dims_follow_chi(cone, chi_of_kind(g, "cone")) == [0, 1, 4, 5]
    bias = build_bias(g)
    assert bias.domain is QQ_Q
    assert assert_kernel_dims_follow_chi(bias, chi_of_kind(g, "bias")) == [1, 5, 6]


def derivation(ell, d, terms):
    """The vector of sum c x^e d/dx_i over (i, e, c) in _condition_rows'
    column layout."""
    monos = lowdim._monomials(ell, d)
    v = [F(0)] * (ell * len(monos))
    for i, e, c in terms:
        v[i * len(monos) + monos.index(e)] = F(c)
    return v


def power_sum(k, times=(0, 0, 0)):
    # x^times * sum x_i^k d/dx_i
    e = [tuple(t + k * (j == i) for j, t in enumerate(times)) for i in range(3)]
    return (k + sum(times), derivation(3, k + sum(times), [(i, e[i], 1) for i in range(3)]))


def test_saito_accepts_the_b3_basis_and_rejects_a_multiple():
    normals = [h.coeffs for h in b3().hyperplanes]
    ones = [1] * len(normals)
    basis = [power_sum(1), power_sum(3), power_sum(5)]
    assert lowdim._is_saito_basis(QQ, normals, ones, basis)
    # x1^2 * sum x_i^3 d/dx_i has degree 5 too, but lies in S theta_3
    assert not lowdim._is_saito_basis(QQ, normals, ones, basis[:2] + [power_sum(3, (2, 0, 0))])
    # two of them are not a basis of a rank-3 module
    assert not lowdim._is_saito_basis(QQ, normals, ones, basis[:2])


def test_saito_needs_multiples_of_degree_m():
    # y^2: x d/dx and y d/dx lie in D and are independent as vectors, and
    # their only relation, y (x d/dx) - x (y d/dx), has degree |m| = 2
    normals, mults = [Y], [2]
    x_dx = (1, derivation(2, 1, [(0, (1, 0), 1)]))
    y_dx = (1, derivation(2, 1, [(0, (0, 1), 1)]))
    assert not lowdim._is_saito_basis(QQ, normals, mults, [x_dx, y_dx])
    dx = (0, derivation(2, 0, [(0, (0, 0), 1)]))
    y2_dy = (2, derivation(2, 2, [(1, (0, 2), 1)]))
    assert lowdim._is_saito_basis(QQ, normals, mults, [dx, y2_dy])


def test_saito_checks_each_derivation_against_the_conditions():
    # d/dx and x^2 d/dy have degrees summing to |m| = 2 and determinant x^2,
    # but x^2 d/dy sends y to x^2, which y^2 does not divide
    dx = (0, derivation(2, 0, [(0, (0, 0), 1)]))
    x2_dy = (2, derivation(2, 2, [(1, (2, 0), 1)]))
    assert not lowdim._is_saito_basis(QQ, [Y], [2], [dx, x2_dy])


def test_saito_over_q_of_q_decides_what_q_equal_2_leaves_open():
    D = QQ_Q
    q = D.q
    qm2 = D.sub(q, D.from_int(2))
    lines, mults = [(D.one, D.zero), (D.zero, D.one)], [1, 1]

    def theta(cx, cy):  # cx x d/dx + cy y d/dy
        v = [D.zero] * 4
        v[1], v[2] = cx, cy  # x is monomial (1, 0), y is (0, 1)
        return (1, v)

    x_dx = theta(D.one, D.zero)
    # independent, but equal to x d/dx at q = 2
    assert lowdim._is_saito_basis(D, lines, mults, [x_dx, theta(D.one, qm2)])
    # a denominator that vanishes at q = 2
    assert lowdim._is_saito_basis(D, lines, mults, [x_dx, theta(D.one, D.inv(qm2))])
    assert not lowdim._is_saito_basis(D, lines, mults, [x_dx, theta(qm2, D.zero)])


def binary_det(D, t1, d1, t2, d2):
    """Coefficients of P1 Q2 - Q1 P2 for theta_k = P_k d/dx + Q_k d/dy, the
    determinant that the rank form of Saito's test stands in for."""

    def mul(a, b):
        out = [D.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = D.add(out[i + j], D.mul(x, y))
        return out

    p1, q1, p2, q2 = t1[: d1 + 1], t1[d1 + 1 :], t2[: d2 + 1], t2[d2 + 1 :]
    return [D.sub(a, b) for a, b in zip(mul(p1, q2), mul(q1, p2))]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(q_slopes), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 2), min_size=3, max_size=3),
    st.data(),
)
def test_saito_rank_matches_the_determinant_over_q_of_q(slopes, mults, data):
    # combinations of kernel vectors, with coefficients that vanish at q = 2
    # or are zero, are a basis iff their determinant is nonzero
    D = QQ_Q
    m = make_multiarrangement2d(D, [(q_line(s), k) for s, k in zip(slopes, mults)])
    coeffs = [D.zero, D.one, D.from_int(-1), D.q, D.sub(D.q, D.from_int(2))]
    thetas = []
    for d in exp2_solver(m):
        basis = nullspace(D, _condition_rows(D, m.lines, m.mults, d), 2 * d + 2)
        theta = [D.zero] * (2 * d + 2)
        for v in basis:
            c = data.draw(st.sampled_from(coeffs))
            theta = [D.add(x, D.mul(c, y)) for x, y in zip(theta, v)]
        thetas.append((d, theta))
    (d1, t1), (d2, t2) = thetas
    det_nonzero = any(not D.is_zero(x) for x in binary_det(D, t1, d1, t2, d2))
    assert lowdim._is_saito_basis(D, m.lines, m.mults, thetas) == det_nonzero


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
    # one positive int multiplicity per line, not a bool
    bad = [(m,) + mult.values[1:] for m in (0, 1.5, True)]
    for values in bad + [mult.values[1:], mult.values + (1,)]:
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


@st.composite
def small_graphs(draw, group):
    l = draw(st.integers(1, 4))
    gains = range(-2, 3) if group == GROUP_Z else range(3)
    ground = [(i, j, g) for i, j in vertex_pairs(l) for g in gains]
    edges = []
    if ground:
        edges = draw(st.lists(st.sampled_from(ground), max_size=6, unique=True))
    return GainGraph(group, tuple(range(1, l + 1)), edges)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GROUP_Z, group_f(3)]).flatmap(small_graphs))
def test_rank_is_dim_less_the_multiplicity_of_root_zero(g):
    # the argument yoshinaga_free3 reads its rank by, against a pivot pass
    for kind, arr in (
        ("cone", build_cone(build_affinographic(g))),
        ("bias", build_bias(g)),
    ):
        chi = chi_of_kind(g, kind)
        zeros = next(i for i, c in enumerate(chi.coeffs) if c)
        rows = [list(h.coeffs) for h in arr.hyperplanes]
        assert zeros == arr.dim - len(pivot_columns(arr.domain, rows)), kind


def test_yoshinaga_free3_refuses_bad_input_whatever_chi_says():
    # t^3 + 1 has no (t - 1) factor, so chi alone would refute freeness
    refuting = IntPolynomial((1, 0, 0, 1))
    coords = [[F(int(t == k)) for t in range(3)] for k in range(3)]
    bool3 = make_arrangement(QQ, 3, [make_hyperplane(QQ, c, F(0)) for c in coords])
    assert yoshinaga_free3(bool3, bool3.hyperplanes[0], chi=refuting)[0] is False
    foreign = make_hyperplane(QQ, (F(1), F(1), F(0)), F(0))
    with pytest.raises(ArrangementError, match="not in arrangement"):
        yoshinaga_free3(bool3, foreign, chi=refuting)
    shifted = make_hyperplane(QQ, coords[0], F(1))
    affine = make_arrangement(QQ, 3, bool3.hyperplanes[1:] + (shifted,))
    with pytest.raises(ArrangementError, match="central"):
        yoshinaga_free3(affine, shifted, chi=refuting)


def test_yoshinaga_free3_checks_chi_rank_against_the_pivot_pass():
    # a rank-2 cone in dimension 4 handed a chi that reads rank 3
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (1, 2, 1)])
    cone = build_cone(build_affinographic(g))
    wrong = IntPolynomial.t_power(1) * IntPolynomial.from_roots([1, 1, 1])
    with pytest.raises(VerificationError, match="rank 3"):
        yoshinaga_free3(cone, cone.hyperplanes[0], chi=wrong)


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


def test_coincidence_builds_only_what_chi_leaves_open(monkeypatch):
    # each side equals yoshinaga_free3 on its built arrangement, and is
    # built only when its chi splits with rank 3
    def last(arr):
        D = arr.domain
        return Hyperplane((D.zero,) * (arr.dim - 1) + (D.one,), D.zero)

    built = []
    for name in ("build_cone", "build_bias"):
        real = getattr(lowdim, name)

        def counted(arg, real=real, name=name):
            built.append(name)
            return real(arg)

        monkeypatch.setattr(lowdim, name, counted)
    graphs = open_sides = 0
    for g in three_vertex_instances(1, 2):
        graphs += 1
        built.clear()
        res = coincidence_3dim(g)
        cone = build_cone(build_affinographic(g))
        bias = build_bias(g)
        chis = chi_of_kind(g, "cone"), chi_gaingraph_recursive(g, "bias")
        want = [
            yoshinaga_free3(arr, last(arr), chi=chi)
            for arr, chi in zip((cone, bias), chis)
        ]
        got = [(res.free_cone, res.detail_cone), (res.free_bias, res.detail_bias)]
        assert got == want
        # rank 3 (dim - 3 roots 0) and chi = t^(dim - 3) (t - 1)(t - d1)(t - d2)
        expect = []
        for name, dim, chi in zip(("build_cone", "build_bias"), (4, 3), chis):
            roots = chi.integer_roots()
            if roots is not None and roots.count(0) == dim - 3 and 1 in roots:
                expect.append(name)
        assert built == expect, tuple(g)
        open_sides += len(expect)
    assert 0 < open_sides < 2 * graphs
