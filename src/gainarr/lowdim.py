"""Derivation modules of multiarrangements, rank-2 exponents and the
rank-3 freeness test.

theta = sum f_i d/dx_i in ell variables lies in D(A, m) iff alpha^m(alpha)
divides theta(alpha) for every member; _condition_rows writes that, for
f_i of degree d, as linear conditions by substituting each member's pivot
variable, and nullspace reads their kernel off SpanTracker.
_is_saito_basis is Saito's criterion as one rank: ell derivations with
degrees summing to |m| are a basis iff their monomial multiples of degree
|m| are independent.  exp2_solver, their rank-2 caller, reads both
exponents off one kernel dimension; each states its argument.
exp2_three_lines, exp2_many_lines and exp2_q_powers are known exponents of
special shapes, computed from the shape parameters alone.

yoshinaga_free3 decides freeness of a central arrangement of rank at most
3, reading the rank from chi: rank <= 2 is free, and rank 3 is free iff
chi = t^(dim - 3) (t - 1)(t - d1)(t - d2) with integer d1, d2 and the
Ziegler restriction to any member has exponents exactly (d1, d2), which
one pivot pass gives.  coincidence_3dim runs it on the coned affinographic
and the bias side of a 3-vertex integer gain graph, built only where chi
leaves the verdict open, and checks they agree.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add

from .arrangement import (
    Hyperplane,
    build_affinographic,
    build_bias,
    build_cone,
    essentialize_with_map,
    make_hyperplane,
    ziegler_restriction,
)
from .charpoly import _chi_rec, chi_of_kind, chi_poset
from .errors import ArrangementError, BoundExceeded, GraphError, VerificationError
from .gaingraph import GROUP_Z
from .intpoly import IntPolynomial, T_MINUS_1
from .scalars import QQ, QQ_Q, det, nullspace, peval, rank_of_rows

MULT_CAP = 30


def clear_caches():
    _exp2.cache_clear()


class Multiarrangement2D(namedtuple("Multiarrangement2D", "domain lines mults")):
    """Lines through the origin of a plane, canonical coefficient pairs
    (a, b) with first nonzero entry one, and their positive multiplicities."""

    __slots__ = ()

    def total(self):
        return sum(self.mults)


def make_multiarrangement2d(domain, pairs):
    """pairs: iterable of ((a, b), mult), mult an int >= 1 (not a bool)."""
    combined = {}
    for (a, b), m in pairs:
        if type(m) is not int or m < 1:
            raise ArrangementError(f"multiplicities must be positive ints, got {m!r}")
        h = make_hyperplane(domain, (a, b), domain.zero)
        combined[h.coeffs] = combined.get(h.coeffs, 0) + m
    lines = tuple(sorted(combined))
    return Multiarrangement2D(domain, lines, tuple(combined[c] for c in lines))


def from_ziegler(arr2, mult):
    """A Ziegler restriction to a plane as a Multiarrangement2D: its members
    are canonical, distinct and sorted, so their normals are the lines."""
    if arr2.dim != 2 or not arr2.is_central:
        raise ArrangementError("expected a central restriction to a plane")
    lines = tuple(h.coeffs for h in arr2.hyperplanes)
    values = mult.values
    if len(values) != len(lines) or any(type(m) is not int or m < 1 for m in values):
        raise ArrangementError("expected one positive int multiplicity per line")
    return Multiarrangement2D(arr2.domain, lines, values)


@lru_cache(maxsize=256)
def _monomials(nvars, d):
    """Degree-d exponent tuples, ascending: one coefficient block's columns."""
    if nvars == 0:
        return ((),) if d == 0 else ()
    return tuple((i, *e) for i in range(d + 1) for e in _monomials(nvars - 1, d - i))


def _condition_rows(domain, normals, mults, d):
    """Linear conditions on theta = sum f_i d/dx_i, every f_i of degree d,
    for theta in D(A, m); columns are f_0's coefficients, then f_1's, ...

    For a member alpha with pivot p (its first nonzero entry, scaled to 1),
    x_p = u + L, L = -sum_{j>p} a_j x_j, makes theta(alpha) a polynomial in
    u and the other variables, and alpha^m divides it iff the coefficient
    of u^r x^mu vanishes for every r < m: one row per such monomial,
    u^r taking x_p's place.  x^e contributes the coefficient of
    u^r x^(mu - e) in (u + L)^(e_p), over any field.
    """
    D = domain
    ell = len(normals[0]) if normals else 0
    monos = _monomials(ell, d)
    n = len(monos)
    rows = []
    for a, m in zip(normals, mults):
        p = next(i for i, x in enumerate(a) if not D.is_zero(x))
        a = a if D.eq(a[p], D.one) else [D.mul(D.inv(a[p]), x) for x in a]
        tail = [(j, x, D.neg(x)) for j, x in enumerate(a) if j > p and not D.is_zero(x)]
        powers = [{(0,) * ell: D.one}]  # (u + L)^k, its terms u^r with r < m
        for _ in range(d):
            nxt = {}
            for nu, c in powers[-1].items():
                moves = [(j, D.mul(c, neg)) for j, _, neg in tail]
                if nu[p] + 1 < m:
                    moves.append((p, c))
                for j, v in moves:
                    key = nu[:j] + (nu[j] + 1,) + nu[j + 1 :]
                    nxt[key] = D.add(nxt[key], v) if key in nxt else v
            powers.append(nxt)
        block = {mu: [D.zero] * (ell * n) for mu in monos if mu[p] < m}
        for col, e in enumerate(monos):
            rest = e[:p] + (0,) + e[p + 1 :]
            for nu, c in powers[e[p]].items():
                row = block[tuple(map(add, rest, nu))]
                row[p * n + col] = c
                for j, x, _ in tail:
                    row[j * n + col] = D.mul(x, c)
        rows.extend(block.values())
    return rows


def _is_saito_basis(domain, normals, mults, derivations):
    """Whether ell derivations, (degree, vector in _condition_rows' columns)
    pairs, with degrees d_j summing to |m| and passing their condition rows
    (row . theta = 0), form a basis of D(A, m).  Their determinant is then
    c Q, as alpha^m(alpha) divides it and both have degree |m|, so they are
    a basis iff c != 0 (Saito; Ziegler, 1989), iff they are independent over
    S.  At rank s < ell, a nonzero s x s minor and one more column give by
    Cramer's rule a relation whose coefficient on theta_j is an s x s minor,
    of degree <= |m| - d_j; times a monomial it has degree |m|.  So they are
    a basis iff the multiples x^beta theta_j, |beta| = |m| - d_j, are
    independent: one rank, exact over every field.  Over Q(q) it is first
    taken at q = 2 if no denominator vanishes there: a minor's value is the
    minor of the values, so full rank there is full rank; a drop proves
    nothing, and rank_of_rows decides."""
    D = domain
    ell, total = len(derivations), sum(mults)
    shapes = [len(theta) == ell * len(_monomials(ell, d)) for d, theta in derivations]
    shapes += [len(a) == ell for a in normals]
    if sum(d for d, _ in derivations) != total or not all(shapes):
        return False
    top = {e: k for k, e in enumerate(_monomials(ell, total))}
    rows = []
    for d, theta in derivations:
        monos = _monomials(ell, d)
        support = [(k, x) for k, x in enumerate(theta) if not D.is_zero(x)]
        for row in _condition_rows(D, normals, mults, d):
            dot = reduce(D.add, (D.mul(row[k], x) for k, x in support), D.zero)
            if not D.is_zero(dot):
                return False
        for beta in _monomials(ell, total - d):
            v = [D.zero] * (ell * len(top))
            for k, x in support:
                i, e = divmod(k, len(monos))
                v[i * len(top) + top[tuple(map(add, monos[e], beta))]] = x
            rows.append(v)
    if D is QQ_Q and all(peval(den, 2) for r in rows for _, den in r):
        at2 = [[Fraction(peval(n, 2), peval(den, 2)) for n, den in r] for r in rows]
        if rank_of_rows(QQ, at2) == len(rows):
            return True
    return rank_of_rows(D, rows) == len(rows)


def exp2_solver(multi, verify=False):
    """Exponents (d1, d2) of a rank-2 multiarrangement, d1 <= d2.

    D(A, m) is free with d1 + d2 = |m| (Ziegler, 1989), so its degree-d
    part has the dimension h(d) = max(0, d - d1 + 1) + max(0, d - d2 + 1).
    At d = floor((|m| - 1) / 2) < |m|/2 <= d2 the kernel of the degree-d
    conditions has dimension k = max(0, d - d1 + 1), so d1 = d + 1 - k; k = 0
    means d1 >= |m|/2, which only even |m| allows, with d1 = d2 = |m|/2.  A
    reading outside 0 <= k <= d + 1, or k = 0 with odd |m|, raises
    VerificationError; no line reads (0, 0) at d = -1.  With verify=True the
    kernels at d1 and d2 must have dimension h and a pair of their vectors
    must pass _is_saito_basis, else VerificationError.  |m| above MULT_CAP
    raises BoundExceeded.
    """
    total = multi.total()
    if total > MULT_CAP:
        raise BoundExceeded(f"exp2 solver capped at |m| = {MULT_CAP}, got {total}")
    return _exp2(multi, verify)


@lru_cache(maxsize=None)
def _exp2(multi, verify):
    total = multi.total()
    d = (total - 1) // 2
    rows = _condition_rows(multi.domain, multi.lines, multi.mults, d)
    k = 2 * (d + 1) - rank_of_rows(multi.domain, rows)
    if not 0 <= k <= d + 1 or (k == 0 and total % 2):
        raise VerificationError(f"no exponents give kernel dimension {k} at {d}")
    d1 = d + 1 - k
    return _verify_pair(multi, d1, total - d1) if verify else (d1, total - d1)


def _verify_pair(multi, d1, d2):
    """exp2_solver's verify=True check: the degree-d1 kernel's first vector
    with the degree-d2 kernel's first, last, then others (second on if
    d1 = d2); on the lowdim suite one of the first two is a basis."""
    D, lines, mults = multi
    ker = {}
    for d in dict.fromkeys((d1, d2)):
        ker[d] = nullspace(D, _condition_rows(D, lines, mults, d), 2 * d + 2)
        got, want = len(ker[d]), max(0, d - d1 + 1) + max(0, d - d2 + 1)
        if got != want:
            raise VerificationError(f"degree-{d} kernel dimension {got}, not {want}")
    theta1, second = ker[d1][0], ker[d2]
    for theta2 in second[1:] if d1 == d2 else second[:1] + second[:0:-1]:
        if _is_saito_basis(D, lines, mults, [(d1, theta1), (d2, theta2)]):
            return (d1, d2)
    raise VerificationError(f"Saito check failed for exponents ({d1}, {d2})")


# ---------------------------------------------------------------------------
# closed forms


def exp2_three_lines(m1, m2, m3):
    """Exponents of three distinct lines with multiplicities m1, m2, m3 in
    characteristic zero: (m2 + m3, m1) when the largest, m1, is at least
    the other two together, else |m| split as evenly as possible."""
    if min(m1, m2, m3) < 1:
        raise ArrangementError("multiplicities must be positive")
    m1, m2, m3 = sorted((m1, m2, m3), reverse=True)
    if m1 >= m2 + m3:
        return (m2 + m3, m1)
    total = m1 + m2 + m3
    k = total // 2
    return (k, k) if total % 2 == 0 else (k, k + 1)


def exp2_many_lines(n, total):
    """Exponents (|m| - n + 1, n - 1) of n distinct lines with total
    multiplicity |m| when n >= |m|/2 + 1, in any characteristic."""
    if not n <= total <= 2 * n - 2:
        raise ArrangementError(f"needs n <= |m| <= 2n - 2: n={n}, |m|={total}")
    return (total - n + 1, n - 1)


def exp2_q_powers(s, t, u):
    """Exponents of x^(s+1) y^(t+1) prod_{g in L} (x - q^g y) over Q(q), L
    a set of u distinct integers, 0 <= s <= t <= u."""
    if not 0 <= s <= t <= u:
        raise ArrangementError(f"needs 0 <= s <= t <= u: s={s}, t={t}, u={u}")
    if u >= s + t:
        return (s + t + 1, u + 1)
    total = s + t + u
    k = total // 2
    return (k + 1, k + 1) if total % 2 == 0 else (k + 1, k + 2)


# ---------------------------------------------------------------------------
# Schur bialternant cross-check


def schur_bialternant_check(partition, gains):
    """Check a_lambda = s_lambda * Vandermonde at the points x_i = q^{g_i}.

    a_lambda is the alternant det[x_i^(lambda_j + n - j)]; s_lambda is
    computed independently by the Jacobi-Trudi determinant in complete
    homogeneous sums.  gains must be distinct integers.  Returns the Q(q)
    payload of s_lambda evaluated at the points.
    """
    D = QQ_Q
    lam = tuple(partition)
    n = len(gains)
    if len(lam) > n:
        raise ArrangementError("partition longer than the point list")
    if len(set(gains)) != n:
        raise ArrangementError("gains must be distinct")
    lam = lam + (0,) * (n - len(lam))
    if any(lam[i] < lam[i + 1] for i in range(n - 1)) or any(p < 0 for p in lam):
        raise ArrangementError("not a partition")
    qp = D.q_power  # x_i^k = q^(g_i k); lambda = 0 gives the Vandermonde
    alternant, vandermonde = (
        det(D, [[qp(g * (mu[j] + n - 1 - j)) for j in range(n)] for g in gains])
        for mu in (lam, (0,) * n)
    )
    if D.is_zero(vandermonde):
        raise ArrangementError("repeated points, Vandermonde vanishes")

    # complete homogeneous sums by the variable-extension recurrence
    # no points: all three determinants are 0 x 0, and s_() = 1
    max_h = lam[0] + n if n else 0
    h = [D.one] + [D.zero] * max_h  # h of zero variables
    for x in map(qp, gains):
        new = list(h)
        for k in range(1, max_h + 1):
            new[k] = D.add(h[k], D.mul(x, new[k - 1]))
        h = new

    jt = [[lam[i] - i + j for j in range(n)] for i in range(n)]
    schur = det(D, [[h[k] if k >= 0 else D.zero for k in row] for row in jt])
    if not D.eq(alternant, D.mul(schur, vandermonde)):
        raise VerificationError(
            f"bialternant identity fails for {partition} at {gains}"
        )
    return schur


# ---------------------------------------------------------------------------
# rank 3


def yoshinaga_free3(arr, h, chi=None):
    """Freeness of a central arrangement of rank at most 3.

    chi is arr's characteristic polynomial, chi_poset(arr) when None, and
    gives the rank: every flat contains the center, so chi(arr) =
    t^(dim - rank) chi(ess arr), and the constant term of chi(ess arr) is
    mu of the center, nonzero in a geometric lattice (Rota, 1964), over
    every field.  So the rank is dim less the multiplicity of the root 0.
    Rank <= 2 is free, exponents the roots of chi / t^(dim - rank).  Rank 3
    is free iff that quotient is (t - 1)(t - d1)(t - d2), 0 <= d1 <= d2
    integers, and the Ziegler restriction to h has exponents exactly
    (d1, d2).  Only that restriction runs essentialize_with_map's pivot
    pass, for coordinates, and the pass must find chi's rank.  A
    non-central arr and an h outside it are refused before chi is read,
    rank > 3 before any verdict.  Returns (free, payload): the exponents
    on success, else a refutation string.  The verdict is independent of
    which member h is chosen.
    """
    if not arr.is_central:
        raise ArrangementError("yoshinaga_free3 needs a central arrangement")
    if h not in arr.hyperplanes:
        raise ArrangementError("restriction hyperplane not in arrangement")
    if chi is None:
        chi = chi_poset(arr)
    free, roots = _chi_verdict(arr.dim, chi)
    if free is not None:
        return free, roots
    ess, mapping = essentialize_with_map(arr)
    if ess.dim != 3:
        raise VerificationError(f"chi gives rank 3, the pivot pass {ess.dim}")
    restricted, mult = ziegler_restriction(ess, mapping[h])
    exps = exp2_solver(from_ziegler(restricted, mult))
    if exps == roots:
        return True, (1,) + roots
    return False, f"Ziegler exponents {exps} differ from chi roots {roots}"


def _chi_verdict(dim, chi):
    """yoshinaga_free3's (free, payload) from chi alone, or (None, (d1, d2))
    when the restriction decides: rank 3, chi = t^(dim-3)(t-1)(t-d1)(t-d2)."""
    drop = next((i for i, c in enumerate(chi.coeffs) if c), 0)
    rank = dim - drop
    if rank > 3:
        raise ArrangementError(f"expected rank at most 3, got {rank}")
    chi = IntPolynomial(chi.coeffs[drop:])
    if rank < 3:
        roots = chi.integer_roots()
        if roots is None:
            raise VerificationError(
                f"rank <= 2 central arrangement with non-split chi {chi}"
            )
        return True, tuple(roots)
    quad = chi.exact_quotient(T_MINUS_1)
    if quad is None:
        return False, f"chi {chi} has no (t - 1) factor"
    roots = quad.integer_roots()
    if roots is None:
        return False, f"chi {chi} does not split over (t - 1)"
    return None, tuple(roots)


class CoincidenceResult(
    namedtuple(
        "CoincidenceResult",
        "free_cone free_bias detail_cone detail_bias chi_affin chi_bias",
    )
):
    """Rank-3 freeness of the coned affinographic and the bias side.

    detail_cone and detail_bias hold a free side's exponents as a tuple or
    the reason a side is not free as a string; chi_affin and chi_bias are
    chi of the affinographic and the bias arrangement.
    """

    __slots__ = ()


def coincidence_3dim(graph):
    """Run cone-side and bias-side rank-3 freeness on a 3-vertex Z graph.

    The two verdicts must agree; a disagreement raises VerificationError,
    which coincidence_suite records as a verdict-coincidence failure.  A
    side's arrangement is built only when its chi leaves the verdict to the
    Ziegler restriction to its last coordinate hyperplane, which its builder
    always adds: z = 0 for the cone (of rank below 4), x3 = 0 for the bias.
    """
    if graph.group != GROUP_Z or graph.n_vertices != 3:
        raise GraphError("coincidence check is for 3-vertex integer gain graphs")
    chi_a, chi_b = _chi_rec(graph)
    verdicts = []
    for dim, chi, build in (
        (4, chi_of_kind(graph, "cone"), lambda: build_cone(build_affinographic(graph))),
        (3, chi_b, lambda: build_bias(graph)),
    ):
        verdict = _chi_verdict(dim, chi)
        if verdict[0] is None:
            arr = build()
            D = arr.domain
            last = Hyperplane((D.zero,) * (dim - 1) + (D.one,), D.zero)
            verdict = yoshinaga_free3(arr, last, chi=chi)
        verdicts.append(verdict)
    (free_a, detail_a), (free_b, detail_b) = verdicts

    if free_a != free_b:
        raise VerificationError(
            f"cone and bias freeness disagree on {tuple(graph)}:"
            f" cone={free_a} bias={free_b}"
        )
    return CoincidenceResult(free_a, free_b, detail_a, detail_b, chi_a, chi_b)


def exponent_shift_matches(result: CoincidenceResult):
    """Cor-style shift: cone exponents (0, 1, d2, d3) pair with bias
    exponents (1, d2 + 1, d3 + 1).  Only meaningful on free instances.  The
    cone's roots are 1 and chi_affin's, so this reads: 0 is a root of
    chi_affin and chi_bias's roots are chi_affin's plus one."""
    a = result.chi_affin.integer_roots()
    b = result.chi_bias.integer_roots()
    return a is not None and 0 in a and b == [r + 1 for r in a]
