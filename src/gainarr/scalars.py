"""Exact scalar domains and exact linear algebra.

Four fields are provided behind one small protocol: the rationals Q, prime
fields F_p, the rational function field Q(q) in a formal variable q, and
cyclotomic fields Q(zeta_p).  Payloads are plain immutable hashable values
(Fraction, int, tuple pairs, Fraction tuples) that Python orders, so
hyperplanes and lines sort as plain tuples; all arithmetic goes through
the domain object, which is a stateless singleton per field.  The ring Z
(int payloads) carries only what the fraction-free SpanTracker, which
never divides, asks of a domain: integer_image maps rows over Q, Q(zeta_2)
and Q(q) to Z with every rank kept, and pivot_columns, rank_of_rows and
the intersection poset eliminate there.  nullspace runs a SpanTracker in
the field itself, kept small over Q and Q(q) by row_primitive; over Q(q)
that tracker is also the exact reference of the integer_image tests.
det and rref divide in the field, by one forward elimination that rref
follows with back substitution; rref is the reference for nullspace.

Dense univariate polynomials over Z are represented as tuples of ints in
ascending degree with no trailing zeros; the zero polynomial is ().  The
ring operations of these kernels also serve CyclotomicField on its
Fraction coefficient lists.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import BoundExceeded, DomainError

# ---------------------------------------------------------------------------
# dense integer polynomial kernels


def ptrim(c):
    """Strip trailing zeros, return a tuple."""
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return ptrim(out)


def pneg(a):
    return tuple(-x for x in a)


def psub(a, b):
    n = len(a) - len(b)
    out = list(a) if n >= 0 else list(a) + [0] * -n
    for i, x in enumerate(b):
        out[i] -= x
    # when a is longer, out keeps a's top coefficient: nonzero means trimmed
    return tuple(out) if n > 0 and out[-1] else ptrim(out)


def pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def pscale(a, k):
    if k == 0:
        return ()
    return tuple(x * k for x in a)


def peval(a, x):
    """a(x) by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def pcontent(a):
    """gcd of coefficients, nonnegative; 0 for the zero polynomial."""
    g = 0
    for x in a:
        g = math.gcd(g, x)
        if g == 1:
            break
    return g


def pprimitive(a):
    """Divide out the content.  Sign of the leading coefficient is kept."""
    g = pcontent(a)
    if g <= 1:
        return a
    return tuple(x // g for x in a)


def ppseudo_rem(a, b):
    """Pseudo-remainder of a by b: lc(b)^(deg a - deg b + 1) * a mod b."""
    if not b:
        raise DomainError("pseudo-remainder by zero polynomial")
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        la = a[-1]
        a = [lb * x for x in a]
        for i in range(db + 1):
            a[da - db + i] -= la * b[i]
        a = list(ptrim(a))
    return tuple(a)


def pgcd(a, b):
    """Primitive gcd in Z[x] with positive leading coefficient."""
    a, b = pprimitive(a), pprimitive(b)
    while b:
        a, b = b, pprimitive(ppseudo_rem(a, b))
    if a and a[-1] < 0:
        a = pneg(a)
    return a


def pdiv_exact(a, b):
    """Quotient of a by b when b divides a in Q[x] and both are in Z[x].

    The quotient has integer coefficients whenever b is primitive (Gauss).
    Raises DomainError exactly when b does not divide a in Z[x]: some
    quotient coefficient leaves Z or the remainder is nonzero.
    """
    if not b:
        raise DomainError("division by zero polynomial")
    if not a:
        return ()
    q = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = rem[db + k]
        if c % lb:
            raise DomainError("inexact polynomial division")
        c //= lb
        q[k] = c
        if c:
            for i in range(db + 1):
                rem[k + i] -= c * b[i]
    if any(rem):
        raise DomainError("inexact polynomial division")
    return ptrim(q)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases above is exact for every n below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality for n below PRIMALITY_BOUND.

    Trial division by the 13 bases settles every n < 43^2; larger n get
    a strong-probable-prime test to each base, which no composite below
    PRIMALITY_BOUND passes.  Raises DomainError at or above the bound.
    """
    if n >= PRIMALITY_BOUND:
        raise DomainError(f"primality of {n} is only decided below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_str(a, var):
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if not c:
            continue
        if e == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            term = f"{mag}{var}" if e == 1 else f"{mag}{var}^{e}"
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append((" + " if c > 0 else " - ") + term)
    return "".join(parts)


# ---------------------------------------------------------------------------
# domains


class Rationals:
    """The field Q with Fraction payloads."""

    name = "Q"
    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if not a:
            raise DomainError("division by zero in Q")
        return 1 / a

    def is_zero(self, a):
        return not a

    def eq(self, a, b):
        return a == b

    def row_primitive(self, vec):
        """The row times the lcm of its denominators over the gcd of its
        numerators: a primitive integer vector, as Z's row_primitive."""
        m = math.lcm(*(x.denominator for x in vec))
        g = math.gcd(*(x.numerator for x in vec))
        if g == 0 or (m == 1 and g == 1):
            return vec
        return [Fraction(x.numerator * (m // x.denominator) // g) for x in vec]

    def __repr__(self):
        return "Q"


class Integers:
    """The ring Z with int payloads: the operations SpanTracker uses."""

    name = "Z"
    char = 0

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return not a

    def row_primitive(self, vec):
        """The row divided by the gcd of its entries."""
        g = math.gcd(*vec)
        if g <= 1:
            return vec
        return [x // g for x in vec]

    def __repr__(self):
        return "Z"


class PrimeField:
    """F_p with int payloads in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DomainError(f"division by zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def row_primitive(self, vec):
        return vec

    def __repr__(self):
        return self.name


class RationalFunctions:
    """Q(q), payloads are canonical pairs (num, den) of Z[q] tuples.

    Canonical means: den nonzero with positive leading coefficient, the
    primitive parts of num and den are coprime in Z[q], and the integer
    contents of num and den are coprime.  Zero is ((), (1,)).
    """

    name = "Q(q)"
    char = 0

    def __init__(self):
        self.zero = ((), (1,))
        self.one = ((1,), (1,))
        self.q = ((0, 1), (1,))

    def make(self, num, den):
        num, den = ptrim(num), ptrim(den)
        if not den:
            raise DomainError("zero denominator in Q(q)")
        if not num:
            return self.zero
        g = pgcd(num, den)
        if len(g) > 1 or g[0] != 1:
            num, den = pdiv_exact(num, g), pdiv_exact(den, g)
        k = math.gcd(pcontent(num), pcontent(den))
        if k > 1:
            num = tuple(x // k for x in num)
            den = tuple(x // k for x in den)
        if den[-1] < 0:
            num, den = pneg(num), pneg(den)
        return (num, den)

    def from_int(self, n):
        return ((n,), (1,)) if n else self.zero

    def q_power(self, g):
        """q^g for any integer g, negative powers included."""
        mono = (0,) * abs(g) + (1,)
        return (mono, (1,)) if g >= 0 else ((1,), mono)

    def add(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == (1,) and bd == (1,):
            return (padd(an, bn), (1,))
        return self.make(padd(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd))

    def sub(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == (1,) and bd == (1,):
            return (psub(an, bn), (1,))
        return self.make(psub(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd))

    def neg(self, a):
        return (pneg(a[0]), a[1])

    def mul(self, a, b):
        an, ad = a
        bn, bd = b
        if not an or not bn:
            return self.zero
        if ad == (1,) and bd == (1,):
            if an == (1,):
                return (bn, (1,))
            if bn == (1,):
                return (an, (1,))
            return (pmul(an, bn), (1,))
        return self.make(pmul(an, bn), pmul(ad, bd))

    def inv(self, a):
        an, ad = a
        if not an:
            raise DomainError("division by zero in Q(q)")
        if an[-1] < 0:
            an, ad = pneg(an), pneg(ad)
        return (ad, an)

    def is_zero(self, a):
        return not a[0]

    def eq(self, a, b):
        return a == b

    def row_primitive(self, vec):
        """The row rescaled by a nonzero scalar to keep entries small.

        Clears denominators with one common multiple, then divides out the
        gcd of the numerators (polynomial part and integer content).
        Scaling a row never changes spans, ranks, or which entries are
        zero, which is all the elimination code asks of it.
        """
        lcm_prim = (1,)
        lcm_cont = 1
        has_den = False
        for n, d in vec:
            if n and d != (1,):
                has_den = True
                c = pcontent(d)
                lcm_cont = lcm_cont * c // math.gcd(lcm_cont, c)
                dp = pprimitive(d)
                g = pgcd(lcm_prim, dp)
                lcm_prim = pdiv_exact(pmul(lcm_prim, dp), g)
        if has_den:
            scale = (pscale(lcm_prim, lcm_cont), (1,))
            vec = [self.mul(x, scale) for x in vec]
        nums = [n for n, _ in vec if n]
        if not nums:
            return vec
        content = 0
        g = ()
        for n in nums:
            if content != 1:
                content = math.gcd(content, pcontent(n))
            if g != (1,):
                g = pgcd(g, n)
        if content <= 1 and g == (1,):
            return vec
        out = []
        for n, d in vec:
            if not n:
                out.append(self.zero)
                continue
            if g != (1,):
                n = pdiv_exact(n, g)
            if content > 1:
                n = tuple(c // content for c in n)
            out.append((n, (1,)))
        return out

    def __repr__(self):
        return "Q(q)"


# a Q(zeta_p) payload is p - 1 Fractions and a product costs (p - 1)^2 of
# them, so larger degrees are refused before any payload is built
MAX_CYCLOTOMIC_DEGREE = 100
_ZERO = Fraction(0)


class CyclotomicField:
    """Q(zeta_p) for prime p, reduced modulo the p-th cyclotomic polynomial.

    Payloads are tuples of p-1 Fractions, coefficients of 1, z, ..., z^(p-2)
    where z is a primitive p-th root of unity.  For p = 2 this is Q with
    z = -1 wearing a length-1 tuple.  Degrees p - 1 above
    MAX_CYCLOTOMIC_DEGREE raise BoundExceeded.
    """

    char = 0

    def __init__(self, p):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if p - 1 > MAX_CYCLOTOMIC_DEGREE:
            raise BoundExceeded(
                f"Q(zeta_{p}) has degree {p - 1},"
                f" above MAX_CYCLOTOMIC_DEGREE = {MAX_CYCLOTOMIC_DEGREE}"
            )
        self.p = p
        self.name = f"Q(zeta_{p})"
        n = p - 1
        self.zero = (Fraction(0),) * n
        self.one = (Fraction(1),) + (Fraction(0),) * (n - 1)

    def from_int(self, k):
        n = self.p - 1
        return (Fraction(k),) + (Fraction(0),) * (n - 1)

    def q_power(self, g):
        """zeta^g; any integer g, taken mod p."""
        g %= self.p
        n = self.p - 1
        if g < n:
            return tuple(Fraction(1 if i == g else 0) for i in range(n))
        # z^(p-1) = -(1 + z + ... + z^(p-2))
        return (Fraction(-1),) * n

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        n = self.p - 1
        prod = list(pmul(a, b))
        # reduce z^k for k >= n using z^n = -(1 + ... + z^(n-1))
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k]
            if c:
                for i in range(n):
                    prod[k - n + i] -= c
        # pmul leaves the slots it never touched as int 0
        return tuple(x or _ZERO for x in prod[:n])

    def inv(self, a):
        if all(x == 0 for x in a):
            raise DomainError(f"division by zero in {self.name}")
        # extended Euclid in Q[z] against Phi_p = 1 + z + ... + z^(p-1)
        phi = [Fraction(1)] * self.p
        r0, s0 = phi, [Fraction(0)]
        r1, s1 = [Fraction(x) for x in a], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                c = r1[0]
                inv = [x / c for x in s1]
                inv += [Fraction(0)] * (self.p - 1 - len(inv))
                return tuple(inv[: self.p - 1])
            q, rem = self._qdivmod(r0, r1)
            r0, s0, r1, s1 = r1, s1, rem, psub(s0, pmul(q, s1))

    @staticmethod
    def _qdivmod(a, b):
        a = list(a)
        while a and a[-1] == 0:
            a.pop()
        q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
        lb = b[-1]
        while len(a) >= len(b) and a:
            c = a[-1] / lb
            k = len(a) - len(b)
            q[k] = c
            for i in range(len(b)):
                a[k + i] -= c * b[i]
            while a and a[-1] == 0:
                a.pop()
        return q, a

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def eq(self, a, b):
        return a == b

    def row_primitive(self, vec):
        return vec

    def __repr__(self):
        return self.name


ZZ = Integers()
QQ = Rationals()
QQ_Q = RationalFunctions()


@lru_cache(maxsize=None)
def GF(p):
    return PrimeField(p)


@lru_cache(maxsize=None)
def cyclotomic(p):
    return CyclotomicField(p)


# ---------------------------------------------------------------------------
# exact linear algebra


class SpanTracker:
    """Incremental row-space tracker using fraction-free elimination.

    Rows are reduced by cross-multiplication only (r' = p*r - c*pivot_row),
    which is valid over any integral domain and never divides, so Q(q)
    entries stay denominator-free when the inputs are.  Supports rank,
    membership, and incremental extension.  Scaling a row never changes
    the answers this class gives.
    """

    def __init__(self, domain, width):
        self.domain = domain
        self.width = width
        self.rows = []  # kept sorted by pivot column
        self.pivots = []

    def copy(self):
        t = SpanTracker.__new__(SpanTracker)
        t.domain = self.domain
        t.width = self.width
        t.rows = [list(r) for r in self.rows]
        t.pivots = list(self.pivots)
        return t

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Eliminate against all tracked rows; returns a scaled residual."""
        D = self.domain
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not D.is_zero(c):
                lead = row[p]
                v = D.row_primitive(
                    [D.sub(D.mul(lead, x), D.mul(c, y)) for x, y in zip(v, row)]
                )
        return v

    def add(self, vec):
        """Insert a row; returns True if it enlarged the span."""
        D = self.domain
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if not D.is_zero(x)), None)
        if piv is None:
            return False
        v = D.row_primitive(v)
        # back-eliminate so reduce() stays a single pass
        for k, row in enumerate(self.rows):
            c = row[piv]
            if not D.is_zero(c):
                lead = v[piv]
                self.rows[k] = D.row_primitive(
                    [D.sub(D.mul(lead, x), D.mul(c, y)) for x, y in zip(row, v)]
                )
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True

    def contains(self, vec):
        D = self.domain
        return all(D.is_zero(x) for x in self.reduce(vec))


def integer_image(domain, rows):
    """(domain, rows) to eliminate over in place of the given ones.

    Every set of rows restricted to every set of columns keeps its rank.
    Rows over Q, Q(zeta_2) and Q(q) are mapped to Z:

      Q          each row times the lcm of its denominators;
      Q(zeta_2)  the single coordinate, a rational (zeta_2 = -1), then as Q;
      Q(q)       each row times the product of its distinct denominators,
                 then q := q0 = 2 + k! * prod(the k largest row norms);
      F_p, Q(zeta_p) for odd p, Z: the rows and domain as they are.

    Here k = min(#rows, width) bounds the size of any square minor, width
    = len(rows[0]), and a row's norm is the largest coefficient l1-norm
    among its Z[q] entries, floored at 1.

    A row scaled by a nonzero element of Z[q] spans the same space, so
    clearing denominators changes no rank.  q0 is exact.  Take any j x j
    minor over Z[q], j <= k.  Expanding the determinant gives j! products
    of one entry per row, so its coefficient l1-norm is at most k! * prod
    (the k largest row norms) = q0 - 2; this needs every norm >= 1, which
    the floor gives zero rows (unfloored, a zero row could make q0 = 2).
    By Cauchy's bound, every root r of its q-free part has |r| <= 1 +
    max|a_i / a_lead| <= q0 - 1, so a nonzero minor stays nonzero at q0,
    and a zero one stays zero because evaluation is a ring map.
    """
    if domain is QQ_Q:
        rows = [_cleared_numerators(r) for r in rows]
        k = min(len(rows), len(rows[0])) if rows else 0
        norms = sorted(max([1, *(sum(map(abs, n)) for n in r)]) for r in rows)
        q0 = 2 + math.factorial(k) * math.prod(norms[len(norms) - k :])
        return ZZ, [[peval(n, q0) for n in r] for r in rows]
    if isinstance(domain, CyclotomicField) and domain.p == 2:
        domain, rows = QQ, [[x[0] for x in r] for r in rows]
    if domain is QQ:
        out = []
        for r in rows:
            m = math.lcm(*(x.denominator for x in r))
            out.append([x.numerator * (m // x.denominator) for x in r])
        return ZZ, out
    return domain, rows


def _cleared_numerators(row):
    """The Z[q] entries of a Q(q) row times the product of its distinct
    denominators."""
    dens = {d for n, d in row if n} - {(1,)}
    out = []
    for n, d in row:
        for other in dens - {d}:
            n = pmul(n, other)
        out.append(n)
    return out


def pivot_columns(domain, rows):
    """The pivot columns of rref(domain, rows), found over integer_image.

    Column c is a pivot exactly when the columns up to c have larger rank
    than the columns before c, which depends only on the row space; the
    image keeps the rank of every column prefix.  SpanTracker's rows stay
    in echelon form, so its pivots are these columns.
    """
    if not rows:
        return []
    D, rows = integer_image(domain, rows)
    t = SpanTracker(D, len(rows[0]))
    for r in rows:
        t.add(r)
    return t.pivots


def rank_of_rows(domain, rows):
    """Rank of the row list, decided over integer_image."""
    return len(pivot_columns(domain, rows))


def _echelon(D, rows):
    """Forward field elimination: (echelon rows, pivot columns, row swaps).

    Row k leads at pivots[k]; zero rows are dropped.  Swaps give det's sign.
    """
    work = [list(r) for r in rows]
    pivots = []
    swaps = 0
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        below = (k for k in range(r, len(work)) if not D.is_zero(work[k][col]))
        piv = next(below, None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            swaps += 1
        inv = D.inv(work[r][col])
        for k in range(r + 1, len(work)):
            c = work[k][col]
            if not D.is_zero(c):
                f = D.mul(c, inv)
                work[k] = [D.sub(x, D.mul(f, y)) for x, y in zip(work[k], work[r])]
        pivots.append(col)
    return work[: len(pivots)], pivots, swaps


def rref(domain, rows):
    """Reduced row echelon form with field division.

    Returns (rows, pivot_columns); output rows have 1 in their pivot column
    and zeros in every other pivot column: _echelon, then back substitution.
    """
    D = domain
    out, pivots, _ = _echelon(D, rows)
    for k in range(len(out) - 1, -1, -1):
        p = pivots[k]
        inv = D.inv(out[k][p])
        out[k] = target = [D.mul(inv, x) for x in out[k]]
        for i in range(k):
            c = out[i][p]
            if not D.is_zero(c):
                out[i] = [D.sub(x, D.mul(c, y)) for x, y in zip(out[i], target)]
    return out, pivots


def nullspace(domain, rows, width):
    """Basis of the right kernel, read off an in-domain SpanTracker: its rows
    are back-eliminated, zero at the other rows' pivots, so each is its rref
    row times row[p], and reduced echelon form is unique.  Per free column f,
    v_f = 1 and v_p = -row[f] / row[p] for each row and its pivot p."""
    D = domain
    t = SpanTracker(D, width)
    for r in rows:
        t.add(r)
    basis = []
    for f in sorted(set(range(width)) - set(t.pivots)):
        v = [D.zero] * width
        v[f] = D.one
        for row, p in zip(t.rows, t.pivots):
            if not D.is_zero(row[f]):
                v[p] = D.neg(D.mul(row[f], D.inv(row[p])))
        basis.append(v)
    return basis


def det(domain, rows):
    """Determinant: the signed product of _echelon's pivots, forward only."""
    D = domain
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("determinant of a non-square matrix")
    echelon, pivots, swaps = _echelon(D, rows)
    if len(pivots) < n:
        return D.zero
    result = D.neg(D.one) if swaps % 2 else D.one
    for k, row in enumerate(echelon):
        result = D.mul(result, row[k])
    return result
