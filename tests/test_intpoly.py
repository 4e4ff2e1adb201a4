"""Integer polynomials in one variable t."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gainarr.errors import DomainError
from gainarr.intpoly import IntPolynomial, T

coeff_lists = st.lists(st.integers(-50, 50), max_size=8)
polys = coeff_lists.map(IntPolynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
polys_or_zero = st.one_of(st.just(IntPolynomial()), polys)


def trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def reference_quotient(a, b):
    """a / b in Z[t] by long division over Q, or None if b does not divide a."""
    rem = [Fraction(c) for c in a.coeffs]
    d = b.coeffs
    q = [Fraction(0)] * max(0, len(rem) - len(d) + 1)
    while len(rem) >= len(d) and rem:
        c = rem[-1] / d[-1]
        k = len(rem) - len(d)
        q[k] = c
        for i in range(len(d)):
            rem[k + i] -= c * d[i]
        while rem and rem[-1] == 0:
            rem.pop()
    if rem or any(x.denominator != 1 for x in q):
        return None
    return IntPolynomial(int(x) for x in q)


def test_ring_operations():
    p = IntPolynomial((1, 2))  # 2t + 1
    q = IntPolynomial((-1, 1))  # t - 1
    assert p + q == IntPolynomial((0, 3))
    assert p - q == IntPolynomial((2, 1))
    assert p * q == IntPolynomial((-1, -1, 2))
    assert 3 * q == IntPolynomial((-3, 3))
    assert (p - p).is_zero
    assert T * T == IntPolynomial.t_power(2)


def test_call_and_shift():
    p = IntPolynomial.from_roots([1, 2, 3])
    assert p(0) == -6 and p(2) == 0 and p(4) == 6
    assert p.shift(1) == IntPolynomial.from_roots([0, 1, 2])
    assert p.shift(-1)(3) == p(2)


def test_from_roots_monic_and_sorted_invariance():
    assert IntPolynomial.from_roots([2, 1]) == IntPolynomial.from_roots([1, 2])
    assert IntPolynomial.from_roots([]) == IntPolynomial((1,))
    assert IntPolynomial.from_roots([0, 0]).coeffs == (0, 0, 1)


def test_exact_quotient():
    p = IntPolynomial.from_roots([1, 4, 4])
    q = p.exact_quotient(IntPolynomial((-4, 1)))
    assert q == IntPolynomial.from_roots([1, 4])
    assert IntPolynomial((-4, 1)).divides(p)
    assert not IntPolynomial((-2, 1)).divides(p)
    assert p.exact_quotient(IntPolynomial((-2, 1))) is None
    with pytest.raises(DomainError):
        p.exact_quotient(IntPolynomial(()))


@given(polys, st.integers(-20, 20), st.integers(-20, 20))
def test_shift_is_translation(p, a, x):
    assert p.shift(a)(x) == p(x + a)
    assert p.shift(a).shift(-a) == p


@given(polys, nonzero_polys)
def test_exact_quotient_matches_long_division(a, b):
    assert a.exact_quotient(b) == reference_quotient(a, b)
    assert b.divides(a) == (reference_quotient(a, b) is not None)


@given(polys, nonzero_polys)
def test_exact_quotient_of_a_product(q, b):
    # divisors that do divide, monic or not; one more makes most not divide
    a = q * b
    assert a.exact_quotient(b) == q
    assert b.divides(a)
    bumped = a + IntPolynomial((1,))
    assert bumped.exact_quotient(b) == reference_quotient(bumped, b)


def test_integer_roots_with_multiplicity():
    p = IntPolynomial.from_roots([1, 1, 5])
    assert p.integer_roots() == [1, 1, 5]
    assert T.integer_roots() == [0]
    # t^2 + 1 has no roots at all
    assert IntPolynomial((1, 0, 1)).integer_roots() is None
    # t^2 - 2 splits over R but not over Z
    assert IntPolynomial((-2, 0, 1)).integer_roots() is None


def test_integer_roots_needs_monic_split():
    # (t - 1)(t + 2): negative roots disqualify a characteristic polynomial
    assert IntPolynomial((-2, 1, 1)).integer_roots() is None


def test_str_and_factored():
    p = IntPolynomial.from_roots([0, 1, 1])
    assert str(p) == "t^3 - 2t^2 + t"
    assert p.factored_str() == "t(t - 1)^2"
    assert IntPolynomial((1,)).factored_str() == "1"
    # no factored form when the polynomial does not split over Z
    assert IntPolynomial((1, 0, 1)).factored_str() is None


def test_degree_of_zero():
    assert IntPolynomial(()).degree == -1
    assert IntPolynomial(()).is_zero


@given(polys_or_zero, polys_or_zero)
def test_sum_and_difference_are_coefficientwise(p, q):
    n = max(len(p.coeffs), len(q.coeffs))
    a = list(p.coeffs) + [0] * (n - len(p.coeffs))
    b = list(q.coeffs) + [0] * (n - len(q.coeffs))
    assert (p + q).coeffs == trimmed(x + y for x, y in zip(a, b))
    assert (p - q).coeffs == trimmed(x - y for x, y in zip(a, b))
    assert (-p).coeffs == tuple(-x for x in a[: len(p.coeffs)])
    assert (p - p).coeffs == ()


@given(polys_or_zero, st.integers(-20, 20))
def test_shift_is_the_binomial_expansion(p, a):
    # p(t + a) = sum_k c_k (t + a)^k, expanded coefficient by coefficient
    c = p.coeffs
    want = [
        sum(c[k] * math.comb(k, i) * a ** (k - i) for k in range(i, len(c)))
        for i in range(len(c))
    ]
    got = p.shift(a).coeffs
    assert type(got) is tuple
    assert got == trimmed(want)
