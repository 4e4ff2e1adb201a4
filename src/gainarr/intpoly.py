"""Dense integer polynomials in one variable t.

This is the value type for characteristic polynomials: immutable, hashable,
exact.  Coefficients are stored ascending with no trailing zeros.
"""

from __future__ import annotations

from collections import Counter

from .errors import DomainError
from .scalars import _poly_str, padd, pdiv_exact, peval, pmul, pneg, psub, ptrim


def _divisors(n):
    """Positive divisors of n > 0, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _deflate(coeffs, r):
    """Synthetic division by (t - r); returns (quotient, remainder)."""
    n = len(coeffs) - 1
    q = [0] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        q[k] = acc
        acc = coeffs[k] + r * acc
    return q, acc


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", ptrim(tuple(coeffs)))

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    @staticmethod
    def t_power(n):
        return IntPolynomial((0,) * n + (1,))

    @staticmethod
    def from_roots(roots):
        """Monic product of (t - r) over the given integer roots."""
        c = (1,)
        for r in roots:
            c = pmul(c, (-r, 1))
        return IntPolynomial(c)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        return _trimmed(padd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return _trimmed(psub(self.coeffs, other.coeffs))

    def __neg__(self):
        return _trimmed(pneg(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        return IntPolynomial(pmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __call__(self, x):
        return peval(self.coeffs, x)

    def shift(self, a):
        """p(t + a) by repeated synthetic division; the leading coefficient stays."""
        c = list(self.coeffs)
        for i in range(len(c) - 1):
            for k in range(len(c) - 2, i - 1, -1):
                c[k] += a * c[k + 1]
        return _trimmed(tuple(c))

    def exact_quotient(self, other):
        """self / other in Z[t], or None when other does not divide self.

        Exact: pdiv_exact runs the long division over Q[t] in integers and
        fails exactly when a quotient coefficient leaves Z or the remainder
        is nonzero.  The quotient over Q[t] is unique, so None means no
        quotient exists in Z[t].
        """
        if other.is_zero:
            raise DomainError("division by zero polynomial")
        try:
            return IntPolynomial(pdiv_exact(self.coeffs, other.coeffs))
        except DomainError:
            return None

    def divides(self, other):
        """True when self divides other exactly in Z[t]."""
        if self.is_zero:
            return other.is_zero
        return other.exact_quotient(self) is not None

    def integer_roots(self):
        """All roots with multiplicity, ascending, when the polynomial is
        lc * product of (t - r) with every r a nonnegative integer.

        Returns None when it does not split in that form.
        """
        if self.is_zero:
            return None
        coeffs = list(self.coeffs)
        roots = []
        while len(coeffs) > 1 and coeffs[0] == 0:
            roots.append(0)
            coeffs.pop(0)
        while len(coeffs) > 1:
            found = False
            for r in _divisors(abs(coeffs[0])):
                q, rem = _deflate(coeffs, r)
                if rem == 0:
                    roots.append(r)
                    coeffs = q
                    found = True
                    break
            if not found:
                return None
        return sorted(roots)

    def factored_str(self):
        """Product form over integer roots, or None if it does not split."""
        roots = self.integer_roots()
        if roots is None:
            return None
        lc = self.coeffs[-1]
        parts = [] if lc == 1 else [str(lc)]
        for r, m in sorted(Counter(roots).items()):
            base = "t" if r == 0 else f"(t - {r})"
            parts.append(base if m == 1 else f"{base}^{m}")
        return "".join(parts) if parts else "1"

    def to_json(self):
        """The JSON form: coefficients, product form and string."""
        coeffs, factored = list(self.coeffs), self.factored_str()
        return {"coeffs": coeffs, "factored": factored, "str": str(self)}

    def __str__(self):
        return _poly_str(self.coeffs, "t")

    def __repr__(self):
        return f"IntPolynomial({self.coeffs!r})"


def _trimmed(coeffs):
    """The IntPolynomial of a trimmed tuple, such as padd, psub and pneg
    return on trimmed input, without trimming it again."""
    p = object.__new__(IntPolynomial)
    object.__setattr__(p, "coeffs", coeffs)
    return p


ONE = IntPolynomial((1,))
T = IntPolynomial((0, 1))
T_MINUS_1 = IntPolynomial((-1, 1))
