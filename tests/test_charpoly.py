"""Characteristic polynomials: three computations, one answer."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gainarr.arrangement import (
    build_affinographic,
    build_bias,
    build_cone,
    make_arrangement,
    make_hyperplane,
)
from gainarr.charpoly import (
    _chi_rec,
    _complement_count,
    _interpolate,
    _poset_from_rows,
    chi_finite_field_oracle,
    chi_gaingraph_recursive,
    chi_of_kind,
    chi_poset,
    clear_caches,
    intersection_poset,
    region_count,
)
from gainarr.corpus import iter_z_graphs
from gainarr.errors import BoundExceeded, VerificationError
from gainarr.gaingraph import GROUP_Z, GainGraph, group_f
from gainarr.intpoly import IntPolynomial, T
from gainarr.scalars import GF, QQ, QQ_Q, ZZ, cyclotomic, integer_image


def braid(l):
    edges = [(i, j, 0) for i in range(1, l) for j in range(i + 1, l + 1)]
    return GainGraph(GROUP_Z, tuple(range(1, l + 1)), edges)


def test_braid_chi_is_falling_factorial():
    for l in (2, 3, 4):
        chi = chi_gaingraph_recursive(braid(l), "affinographic")
        assert chi == IntPolynomial.from_roots(list(range(l)))


def test_edgeless():
    g = GainGraph(GROUP_Z, (1, 2, 3), [])
    assert chi_gaingraph_recursive(g, "affinographic") == IntPolynomial.t_power(3)
    assert chi_gaingraph_recursive(g, "bias") == IntPolynomial.from_roots([1, 1, 1])


def test_one_edge():
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, 0)])
    assert chi_gaingraph_recursive(g, "affinographic") == T * IntPolynomial((-1, 1))
    assert chi_gaingraph_recursive(g, "bias") == IntPolynomial.from_roots([1, 2])


def test_unbalanced_triangle():
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (2, 3, 0), (1, 3, 1)])
    chi = chi_gaingraph_recursive(g, "affinographic")
    assert chi == T * IntPolynomial((3, -3, 1))


def test_long_deletion_chain_stays_shallow():
    # 601 parallel classes: a deletion chain longer than the interpreter's
    # recursion limit allows at two frames per memoized call
    clear_caches()
    k = 601
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, c) for c in range(k)])
    assert chi_gaingraph_recursive(g, "affinographic") == IntPolynomial((0, -k, 1))
    assert chi_gaingraph_recursive(g, "bias") == IntPolynomial.from_roots([1, k + 1])


def test_one_memo_entry_serves_both_kinds():
    clear_caches()
    g = GainGraph(GROUP_Z, (1, 2, 3, 4), [(1, 2, 0), (1, 3, 1), (2, 4, -1), (3, 4, 0)])
    chi_gaingraph_recursive(g, "affinographic")
    before = _chi_rec.cache_info()
    assert chi_gaingraph_recursive(g, "bias").shift(1) == chi_gaingraph_recursive(
        g, "affinographic"
    )
    chi_of_kind(g, "cone")
    after = _chi_rec.cache_info()
    assert after.misses == before.misses
    assert after.currsize == before.currsize
    assert after.hits == before.hits + 3


def test_cone_relation():
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (2, 3, 1), (1, 3, -1)])
    chi_a = chi_gaingraph_recursive(g, "affinographic")
    assert chi_of_kind(g, "cone") == IntPolynomial((-1, 1)) * chi_a


def test_shift_identity_fixtures():
    for edges in ([], [(1, 2, 0)], [(1, 2, 0), (2, 3, 2)], [(1, 2, 0), (1, 2, 1)]):
        g = GainGraph(GROUP_Z, (1, 2, 3), edges)
        a = chi_gaingraph_recursive(g, "affinographic")
        b = chi_gaingraph_recursive(g, "bias")
        assert a == b.shift(1)


def test_poset_agrees_with_recursion():
    graphs = [
        GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (2, 3, 1), (1, 3, -1)]),
        GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (1, 2, 1), (2, 3, 0)]),
        GainGraph(group_f(2), (1, 2, 3), [(1, 2, 0), (2, 3, 1), (1, 3, 1)]),
    ]
    for g in graphs:
        assert chi_poset(build_affinographic(g)) == chi_gaingraph_recursive(
            g, "affinographic"
        )
        assert chi_poset(build_bias(g)) == chi_gaingraph_recursive(g, "bias")
        assert chi_poset(build_cone(build_affinographic(g))) == chi_of_kind(g, "cone")


def test_finite_field_oracle_agrees():
    graphs = [
        GainGraph(GROUP_Z, (1, 2), [(1, 2, 0), (1, 2, 3)]),
        GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (2, 3, 1), (1, 3, -1)]),
        braid(4),
    ]
    for g in graphs:
        assert chi_finite_field_oracle(g) == chi_gaingraph_recursive(
            g, "affinographic"
        )


# ---------------------------------------------------------------------------
# the reduced point count against a count over all of F_p^l


def full_count(l, edges, p):
    return sum(
        all((x[i] - x[j] - g) % p for i, j, g in edges)
        for x in itertools.product(range(p), repeat=l)
    )


@pytest.mark.parametrize("m", [2, 4, 5, 6])
def test_reduced_count_matches_full_count(m):
    # every Z graph on <= 3 vertices with <= 4 edges and |gain| <= 2; at
    # m = 2 distinct gains collide, so forbidden values repeat, and the
    # count is the same over a composite modulus
    n = 0
    for l in range(4):
        for g in iter_z_graphs(l, 4, 2):
            edges = [(i - 1, j - 1, gain) for i, j, gain in g.edges]
            assert _complement_count(l, edges, m) == full_count(l, edges, m), g
            n += 1
    assert n == 1974


def test_oracle_modulus_bound_is_tight():
    # the triangle's cycle has gain sum 3 = l * max|gain|: 0 mod 3 though
    # unbalanced, so m = 3 miscounts, while every m above the bound counts chi
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 1), (2, 3, 1), (1, 3, -1)])
    edges = [(i - 1, j - 1, gain) for i, j, gain in g.edges]
    chi = chi_gaingraph_recursive(g, "affinographic")
    assert (_complement_count(3, edges, 3), chi(3)) == (6, 9)
    for m in range(4, 12):
        assert _complement_count(3, edges, m) == chi(m)
    assert chi_finite_field_oracle(g) == chi


@st.composite
def small_z_graphs(draw):
    l = draw(st.integers(0, 5))
    bound = 1 if l == 5 else 2
    labels = sorted(draw(st.sets(st.integers(1, 9), min_size=l, max_size=l)))
    ground = [
        (i, j, g)
        for i, j in itertools.combinations(labels, 2)
        for g in range(-bound, bound + 1)
    ]
    edges = draw(st.lists(st.sampled_from(ground), max_size=8)) if ground else []
    return GainGraph(GROUP_Z, labels, edges)


@settings(max_examples=40, deadline=None)
@given(small_z_graphs())
@example(GainGraph(GROUP_Z, (), []))
@example(GainGraph(GROUP_Z, (1, 2, 3, 4, 5), []))
# disconnected, vertex 5 isolated, gain 0 and parallel classes 0 and 1
@example(GainGraph(GROUP_Z, (1, 2, 3, 4, 5), [(1, 2, 0), (1, 2, 1), (3, 4, -1)]))
# the vertex fixed to 0 by translation is isolated
@example(GainGraph(GROUP_Z, (2, 5, 7), [(5, 7, 0), (5, 7, -2), (5, 7, 2)]))
def test_finite_field_oracle_matches_recursion(g):
    assert chi_finite_field_oracle(g) == chi_gaingraph_recursive(g, "affinographic")


# ---------------------------------------------------------------------------
# integer interpolation against Lagrange's form over Fraction


def fraction_interpolate(xs, ys):
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [Fraction(yi)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = [Fraction(0)] + num
            for k in range(len(num) - 1):
                num[k] -= num[k + 1] * xj
            den *= xi - xj
        for k, c in enumerate(num):
            coeffs[k] += c / den
    return coeffs


def assert_interpolates_like_fraction(xs, ys):
    ref = fraction_interpolate(xs, ys)
    if all(c.denominator == 1 for c in ref):
        assert _interpolate(xs, ys) == tuple(int(c) for c in ref)
    else:
        with pytest.raises(VerificationError):
            _interpolate(xs, ys)


small_points = st.lists(st.integers(-60, 60), min_size=1, max_size=7, unique=True)


@settings(max_examples=150, deadline=None)
@given(small_points, st.data())
def test_interpolate_recovers_integer_polynomials(xs, data):
    coeffs = data.draw(
        st.lists(st.integers(-(10**6), 10**6), min_size=len(xs), max_size=len(xs))
    )
    ys = [IntPolynomial(coeffs)(x) for x in xs]
    assert _interpolate(xs, ys) == tuple(coeffs)
    assert_interpolates_like_fraction(xs, ys)


@settings(max_examples=150, deadline=None)
@given(small_points, st.data())
def test_interpolate_matches_fraction_reference(xs, data):
    ys = data.draw(
        st.lists(st.integers(-(10**4), 10**4), min_size=len(xs), max_size=len(xs))
    )
    assert_interpolates_like_fraction(xs, ys)


def test_interpolate_rejects_non_integral_points():
    # the line through (0, 0) and (2, 1) is t / 2
    assert fraction_interpolate([0, 2], [0, 1]) == [0, Fraction(1, 2)]
    with pytest.raises(VerificationError):
        _interpolate([0, 2], [0, 1])
    # through (1, 0), (3, 0) and (5, 1): (t - 1)(t - 3) / 8, not in Z[t]
    with pytest.raises(VerificationError):
        _interpolate([1, 3, 5], [0, 0, 1])


def test_poset_moebius_structure():
    arr = build_affinographic(braid(3))
    poset = intersection_poset(arr)
    # braid(3): bottom, three hyperplanes, one triple line
    assert len(poset.flats) == 5
    assert chi_poset(arr) == IntPolynomial.from_roots([0, 1, 2])


def test_poset_bound():
    g = braid(4)
    with pytest.raises(BoundExceeded):
        chi_poset(build_affinographic(g), max_hyperplanes=3)


def test_region_count():
    assert region_count(chi_gaingraph_recursive(braid(3), "affinographic")) == 6
    # an affine line arrangement: 3 parallel plus one crossing
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, -1), (1, 2, 0), (1, 2, 1)])
    assert region_count(chi_gaingraph_recursive(g, "affinographic")) == 4


def test_chi_of_kind_names():
    g = GainGraph(GROUP_Z, (1, 2), [(1, 2, 0)])
    assert chi_of_kind(g, "affinographic") == chi_gaingraph_recursive(
        g, "affinographic"
    )
    assert chi_of_kind(g, "bias") == chi_gaingraph_recursive(g, "bias")
    with pytest.raises(Exception):
        chi_of_kind(g, "nonsense")


# ---------------------------------------------------------------------------
# the integer image against elimination over the original domain


def exact_poset(arr):
    rows = [h.augmented_row() for h in arr.hyperplanes]
    return _poset_from_rows(arr.domain, rows, arr.dim)


def assert_matches_exact(arr):
    poset = intersection_poset(arr)
    assert (poset.flats, poset.mobius) == exact_poset(arr)


def q_poly(D, terms):
    """sum of c * q^e over (c, e) in terms, negative e included."""
    acc = D.zero
    for c, e in terms:
        acc = D.add(acc, D.mul(D.from_int(c), D.q_power(e)))
    return acc


@st.composite
def arrangements(draw, D, entry):
    dim = draw(st.integers(1, 3))
    hps = []
    for _ in range(draw(st.integers(0, 7))):
        coeffs = draw(st.lists(entry, min_size=dim, max_size=dim))
        if all(D.is_zero(c) for c in coeffs):
            continue
        hps.append(make_hyperplane(D, coeffs, draw(entry)))
    return make_arrangement(D, dim, hps)


small = st.integers(-3, 3)
q_entries = st.lists(st.tuples(small, st.integers(-2, 2)), max_size=3)
ENTRIES = {
    "Q": (QQ, st.builds(Fraction, small, st.integers(1, 4))),
    "Q(q)": (QQ_Q, q_entries.map(lambda t: q_poly(QQ_Q, t))),
    "F3": (GF(3), small.map(GF(3).from_int)),
    "Q(zeta_2)": (cyclotomic(2), small.map(cyclotomic(2).from_int)),
}


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_integer_image_matches_exact_poset(name):
    D, entry = ENTRIES[name]

    @settings(max_examples=60, deadline=None)
    @given(arrangements(D, entry))
    def check(arr):
        assert_matches_exact(arr)

    check()


def test_integer_image_domains():
    assert integer_image(QQ, [])[0] is ZZ
    assert integer_image(QQ_Q, [])[0] is ZZ
    assert integer_image(cyclotomic(2), [])[0] is ZZ
    assert integer_image(GF(3), [])[0] is GF(3)
    D3 = cyclotomic(3)
    g = GainGraph(group_f(3), (1, 2, 3), [(1, 2, 1), (2, 3, 2), (1, 3, 0)])
    arr = build_bias(g)
    rows = [h.augmented_row() for h in arr.hyperplanes]
    assert arr.domain is D3
    assert integer_image(D3, rows) == (D3, rows)
    assert_matches_exact(arr)


def test_q_specialization_keeps_flats_that_q_equals_2_merges():
    # x - q y = 0 and x - 2 y = 0 are distinct lines through the origin;
    # evaluating at q = 2 would make them one hyperplane
    D = QQ_Q
    arr = make_arrangement(
        D,
        2,
        [
            make_hyperplane(D, (D.one, D.neg(D.q)), D.zero),
            make_hyperplane(D, (D.one, D.from_int(-2)), D.zero),
        ],
    )
    poset = intersection_poset(arr)
    assert len(poset.flats) == 4
    assert (poset.flats, poset.mobius) == exact_poset(arr)
    assert chi_poset(arr) == IntPolynomial.from_roots([1, 1])


def test_integer_image_on_switched_bias_rows():
    # gains of mixed sign give rows with negative powers of q
    edges = [(1, 2, -3), (1, 2, 2), (2, 3, 1), (1, 4, -1), (3, 4, 0)]
    g = GainGraph(GROUP_Z, (1, 2, 3, 4), edges)
    for arr in (build_bias(g), build_affinographic(g), build_cone(build_affinographic(g))):
        assert_matches_exact(arr)
