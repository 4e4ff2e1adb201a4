"""Exact arithmetic domains and fraction-free linear algebra."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainarr.errors import BoundExceeded, DomainError
from gainarr.scalars import (
    GF,
    MAX_CYCLOTOMIC_DEGREE,
    PRIMALITY_BOUND,
    QQ,
    QQ_Q,
    ZZ,
    SpanTracker,
    cyclotomic,
    det,
    is_prime,
    nullspace,
    pivot_columns,
    psub,
    rank_of_rows,
    rref,
)

DOMAINS = [QQ, GF(5), QQ_Q, cyclotomic(3)]


@pytest.mark.parametrize("D", DOMAINS, ids=lambda d: d.name)
def test_field_axioms_spot(D):
    a = D.from_int(7)
    b = D.from_int(-3)
    assert D.eq(D.add(a, b), D.from_int(4))
    assert D.eq(D.mul(a, b), D.from_int(-21))
    assert D.eq(D.sub(a, a), D.zero)
    assert D.eq(D.mul(a, D.inv(a)), D.one)
    assert D.is_zero(D.mul(a, D.zero))
    assert D.eq(D.neg(D.neg(b)), b)


@pytest.mark.parametrize("D", DOMAINS, ids=lambda d: d.name)
def test_divide_by_zero_rejected(D):
    with pytest.raises(DomainError):
        D.inv(D.zero)


def test_prime_field_wraps():
    F5 = GF(5)
    assert F5.eq(F5.from_int(12), F5.from_int(2))
    assert F5.eq(F5.inv(F5.from_int(2)), F5.from_int(3))
    with pytest.raises(DomainError):
        GF(6)


def test_is_prime_matches_sieve():
    n = 10_000
    sieve = [False, False] + [True] * (n - 1)
    for p in range(2, 101):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    assert [is_prime(k) for k in range(-3, n + 1)] == [False] * 3 + sieve
    with pytest.raises(DomainError, match="9 is not prime"):
        cyclotomic(9)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert is_prime(1_000_000_007)
    # strong pseudoprime to every prime base up to 37; base 41 exposes it
    assert not is_prime(318665857834031151167461)
    assert not is_prime(1_000_000_007 * 998_244_353)
    assert not is_prime((2**61 - 1) * 1_000_003)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    with pytest.raises(DomainError, match="only decided below"):
        is_prime(PRIMALITY_BOUND)


def test_integers_row_primitive():
    assert ZZ.row_primitive([6, -4, 0, 10]) == [3, -2, 0, 5]
    assert ZZ.row_primitive([0, 0]) == [0, 0]
    assert ZZ.row_primitive([3, 5]) == [3, 5]
    assert rank_of_rows(ZZ, [[2, 4, 6], [1, 2, 3], [0, 1, 1]]) == 2


def test_rational_functions_q_algebra():
    D = QQ_Q
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert D.eq(D.mul(D.q_power(a), D.q_power(b)), D.q_power(a + b))
    assert D.eq(D.q_power(0), D.one)
    assert D.eq(D.inv(D.q_power(2)), D.q_power(-2))
    # (q - 1)(q + 1) = q^2 - 1
    qm1 = D.sub(D.q_power(1), D.one)
    qp1 = D.add(D.q_power(1), D.one)
    assert D.eq(D.mul(qm1, qp1), D.sub(D.q_power(2), D.one))


def test_cyclotomic_root_of_unity():
    for p in (2, 3, 5):
        D = cyclotomic(p)
        z = D.q_power(1)
        acc = D.one
        for _ in range(p):
            acc = D.mul(acc, z)
        assert D.eq(acc, D.one)
        # 1 + z + ... + z^(p-1) = 0
        s = D.zero
        for k in range(p):
            s = D.add(s, D.q_power(k))
        assert D.is_zero(s)
        # powers are pairwise distinct
        powers = [D.q_power(k) for k in range(p)]
        assert all(
            not D.eq(powers[i], powers[j])
            for i in range(p)
            for j in range(i + 1, p)
        )


def test_row_primitive_clears_denominators():
    D = QQ_Q
    half = D.make((1,), (2,))
    vec = [D.mul(half, D.q_power(-2)), D.q_power(1), D.zero]
    out = D.row_primitive(vec)
    assert all(d == (1,) for _, d in out)
    # scaling must not change which entries vanish
    assert [D.is_zero(x) for x in out] == [False, False, True]


def test_row_primitive_preserves_rank():
    D = QQ_Q
    rows = [
        [D.q_power(2), D.one],
        [D.mul(D.from_int(3), D.q_power(2)), D.from_int(3)],
        [D.one, D.q_power(1)],
    ]
    assert rank_of_rows(D, rows) == 2
    scaled = [[D.mul(D.make((1,), (5, 7)), x) for x in r] for r in rows]
    assert rank_of_rows(D, scaled) == 2


def test_rank_and_det_rationals():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(4), Fraction(5), Fraction(6)],
        [Fraction(7), Fraction(8), Fraction(9)],
    ]
    assert rank_of_rows(QQ, rows) == 2
    assert QQ.is_zero(det(QQ, rows))
    rows[2][2] = Fraction(10)
    assert rank_of_rows(QQ, rows) == 3
    assert det(QQ, rows) == Fraction(-3)


def test_det_permutation_sign():
    rows = [
        [QQ.zero, QQ.one, QQ.zero],
        [QQ.one, QQ.zero, QQ.zero],
        [QQ.zero, QQ.zero, QQ.one],
    ]
    assert det(QQ, rows) == Fraction(-1)


def test_nullspace_orthogonal_to_rows():
    D = GF(7)
    rows = [
        [D.from_int(1), D.from_int(2), D.from_int(3), D.from_int(4)],
        [D.from_int(2), D.from_int(4), D.from_int(6), D.from_int(1)],
    ]
    basis = nullspace(D, rows, 4)
    assert len(basis) == 4 - rank_of_rows(D, rows)
    for v in basis:
        for r in rows:
            acc = D.zero
            for x, y in zip(r, v):
                acc = D.add(acc, D.mul(x, y))
            assert D.is_zero(acc)


def test_rref_idempotent():
    rows = [
        [Fraction(2), Fraction(4), Fraction(0)],
        [Fraction(1), Fraction(2), Fraction(1)],
    ]
    red, pivots = rref(QQ, rows)
    again, pivots2 = rref(QQ, red)
    assert red == again and pivots == pivots2
    for r, p in zip(red, pivots):
        assert r[p] == Fraction(1)


def test_span_tracker_membership():
    t = SpanTracker(QQ, 3)
    assert t.add([Fraction(1), Fraction(1), Fraction(0)])
    assert t.add([Fraction(0), Fraction(1), Fraction(1)])
    assert not t.add([Fraction(1), Fraction(2), Fraction(1)])
    assert t.rank == 2
    assert t.contains([Fraction(2), Fraction(3), Fraction(1)])
    assert not t.contains([Fraction(0), Fraction(0), Fraction(1)])


def test_span_tracker_fraction_free_over_q_of_q():
    # denominators in the input rows must not leak into tracked rows
    D = QQ_Q
    t = SpanTracker(D, 2)
    t.add([D.make((1,), (1, 2)), D.one])
    t.add([D.one, D.q_power(-3)])
    for row in t.rows:
        for _, den in row:
            assert den == (1,)


def test_cyclotomic_degree_bound():
    assert MAX_CYCLOTOMIC_DEGREE == 100
    assert cyclotomic(101).p == 101
    with pytest.raises(BoundExceeded, match="MAX_CYCLOTOMIC_DEGREE"):
        cyclotomic(103)
    with pytest.raises(BoundExceeded):
        cyclotomic(2**61 - 1)


# ---------------------------------------------------------------------------
# pivot_columns over the integer image against rref over the domain itself

small = st.integers(-3, 3)
fractions = st.builds(Fraction, small, st.integers(1, 4))
laurent = st.lists(st.tuples(small, st.integers(-2, 2)), max_size=3)


def laurent_poly(terms):
    """sum of c * q^e over (c, e) in terms, negative e included."""
    D = QQ_Q
    acc = D.zero
    for c, e in terms:
        acc = D.add(acc, D.mul(D.from_int(c), D.q_power(e)))
    return acc


def q_quotient(num, den):
    den = laurent_poly(den)
    num = laurent_poly(num)
    return num if QQ_Q.is_zero(den) else QQ_Q.mul(num, QQ_Q.inv(den))


ENTRIES = {
    "Q": (QQ, fractions),
    "Q(q)": (QQ_Q, st.builds(q_quotient, laurent, laurent)),
    "F3": (GF(3), small.map(GF(3).from_int)),
    "Q(zeta_2)": (cyclotomic(2), st.tuples(fractions)),
    "Q(zeta_3)": (cyclotomic(3), st.tuples(fractions, fractions)),
}


@st.composite
def matrices(draw, D, entry):
    """Up to 5 rows of width 1..4; zero rows and zero entries are common."""
    width = draw(st.integers(1, 4))
    zero_row = st.just([D.zero] * width)
    row = st.lists(st.one_of(st.just(D.zero), entry), min_size=width, max_size=width)
    return draw(st.lists(st.one_of(zero_row, row), max_size=5))


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_pivot_columns_match_rref(name):
    D, entry = ENTRIES[name]

    @settings(max_examples=80, deadline=None)
    @given(matrices(D, entry))
    def check(rows):
        pivots = rref(D, rows)[1]
        assert pivot_columns(D, rows) == pivots
        assert rank_of_rows(D, rows) == len(pivots)

    check()


def leibniz(D, rows):
    """det as the signed sum over permutations."""
    n = len(rows)
    total = D.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = D.neg(D.one) if inversions % 2 else D.one
        for i, j in enumerate(perm):
            term = D.mul(term, rows[i][j])
        total = D.add(total, term)
    return total


@pytest.mark.parametrize("name", ["Q", "F7", "Q(q)"])
def test_det_and_rref_against_definitions(name):
    D, entry = {
        "Q": (QQ, fractions),
        "F7": (GF(7), small.map(GF(7).from_int)),
        "Q(q)": ENTRIES["Q(q)"],
    }[name]
    entries = st.one_of(st.just(D.zero), entry)
    square = st.integers(0, 3).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )

    @settings(max_examples=60, deadline=None)
    @given(square, st.data())
    def check(rows, data):
        assert D.eq(det(D, rows), leibniz(D, rows))
        # the reduced row echelon form depends on the row space only
        assert rref(D, data.draw(st.permutations(rows))) == rref(D, rows)

    check()


def rref_kernel(D, rows, width):
    """The kernel basis read off rref: per free column f, v_f = 1 and
    v_p = -row[f] on each reduced row with pivot p."""
    red, pivots = rref(D, rows)
    basis = []
    for f in range(width):
        if f not in pivots:
            v = [D.zero] * width
            v[f] = D.one
            for row, p in zip(red, pivots):
                v[p] = D.neg(row[f])
            basis.append(v)
    return basis


@st.composite
def kernel_problems(draw, D, entry):
    """(rows, width): up to 5 rows of width 1..5, often with a row that is a
    combination of two others, so the rank falls short."""
    width = draw(st.integers(1, 5))
    row = st.lists(st.one_of(st.just(D.zero), entry), min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=5))
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        rows.append([D.add(D.mul(a, x), D.mul(b, y)) for x, y in zip(rows[0], rows[1])])
    return rows, width


@pytest.mark.parametrize("name", ["Q", "F5", "Q(q)", "Q(zeta_3)"])
def test_nullspace_is_the_basis_read_off_rref(name):
    D, entry = {
        "Q": (QQ, fractions),
        "F5": (GF(5), small.map(GF(5).from_int)),
        "Q(q)": ENTRIES["Q(q)"],
        "Q(zeta_3)": ENTRIES["Q(zeta_3)"],
    }[name]
    deficient = 0

    @settings(max_examples=80, deadline=None)
    @given(kernel_problems(D, entry))
    def check(problem):
        nonlocal deficient
        rows, width = problem
        got, want = nullspace(D, rows, width), rref_kernel(D, rows, width)
        assert len(got) == len(want)
        for u, v in zip(got, want):
            assert all(D.eq(x, y) for x, y in zip(u, v)), (rows, got, want)
        deficient += len(rref(D, rows)[1]) < min(len(rows), width)

    check()
    assert deficient


def test_rationals_row_primitive_is_a_primitive_integer_row():
    F = Fraction
    assert QQ.row_primitive([F(1, 2), F(-1, 3), F(0)]) == [3, -2, 0]
    assert QQ.row_primitive([F(2, 3), F(4, 5)]) == [5, 6]
    assert QQ.row_primitive([F(6), F(-4), F(10)]) == [3, -2, 5]
    assert QQ.row_primitive([F(0), F(0)]) == [0, 0]
    assert all(isinstance(x, Fraction) for x in QQ.row_primitive([F(1, 2), F(3)]))
    # an in-domain tracker over Q keeps its rows primitive integer vectors
    t = SpanTracker(QQ, 3)
    for row in ([F(1, 2), F(1, 3), F(0)], [F(2, 7), F(0), F(5, 3)], [F(1), F(1), F(1)]):
        t.add(row)
    assert all(x.denominator == 1 for r in t.rows for x in r)


def test_zero_row_keeps_q0_above_two():
    # with a zero row the product of the row norms would be 0 and q0 = 2,
    # where (1, q, 0) and (1, 2, 0) coincide; the norm floor keeps rank 2
    D = QQ_Q
    rows = [
        [D.one, D.q, D.zero],
        [D.one, D.from_int(2), D.zero],
        [D.zero, D.zero, D.zero],
    ]
    assert pivot_columns(D, rows) == rref(D, rows)[1] == [0, 1]
    assert rank_of_rows(D, rows) == 2


# CyclotomicField passes psub Fraction lists that may end in zeros
fraction_lists = st.tuples(
    st.lists(st.fractions(max_denominator=6), max_size=5), st.integers(0, 2)
).map(lambda t: t[0] + [Fraction(0)] * t[1])


@given(fraction_lists, fraction_lists)
def test_psub_on_fraction_lists_is_the_trimmed_difference(a, b):
    n = max(len(a), len(b))
    diff = [
        (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)
    ]
    while diff and diff[-1] == 0:
        diff.pop()
    assert psub(a, b) == tuple(diff)
    assert psub(a, a) == ()
