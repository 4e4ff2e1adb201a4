"""Rank-2 multiarrangement exponents and the rank-3 freeness test.

Rank-2 multiarrangements are always free; their exponent pair (d1, d2)
satisfies d1 + d2 = |m|, so the solver reads both off one kernel
dimension, at degree floor((|m| - 1) / 2); exp2_solver states the
argument.  A derivation theta = P1 d/dx + P2 d/dy with homogeneous
degree-d coefficients lies in D(A, m) iff alpha^m(H) divides
theta(alpha) for every line; those are linear conditions on the
coefficients of P1, P2, expressed here through exact remainder expansion
(binomial coefficients, valid in any characteristic).  exp2_three_lines,
exp2_many_lines and exp2_q_powers are known exponents of special shapes,
computed from the shape parameters alone.

yoshinaga_free3 decides freeness of a central arrangement of rank at most
3, reading the rank from chi: rank <= 2 is free, and rank 3 is free iff
chi = t^(dim - 3) (t - 1)(t - d1)(t - d2) with integer d1, d2 and the
Ziegler restriction to any member has exponents exactly (d1, d2).  Only
that restriction essentializes, in one pivot pass.

coincidence_3dim runs it on the coned affinographic and the bias side of a
3-vertex integer gain graph, built only where chi leaves the verdict open,
and checks they agree.  Each stage takes the canonical members and the
chi that the stage before it established.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

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
from .scalars import QQ_Q, det, nullspace, rank_of_rows

MULT_CAP = 30


def clear_caches():
    _exp2.cache_clear()


class Multiarrangement2D(namedtuple("Multiarrangement2D", "domain lines mults")):
    """Lines through the origin of a plane with positive multiplicities.

    lines are canonical coefficient pairs (a, b), first nonzero entry one;
    mults is aligned with lines.
    """

    __slots__ = ()

    def total(self):
        return sum(self.mults)


def make_multiarrangement2d(domain, pairs):
    """pairs: iterable of ((a, b), mult)."""
    combined = {}
    for (a, b), m in pairs:
        if m <= 0:
            raise ArrangementError("multiplicities must be positive")
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
    if len(mult.values) != len(lines) or not all(m > 0 for m in mult.values):
        raise ArrangementError("expected one positive multiplicity per line")
    return Multiarrangement2D(arr2.domain, lines, mult.values)


def _condition_rows(domain, lines, mults, d):
    """Linear conditions on (P1 coeffs, P2 coeffs) for theta in D(A, m).

    P = sum p_i x^i y^(d-i).  For a line x + c y the condition is that the
    coefficients of u^r y^(d-r), r < m, vanish in F(u - c y, y) where
    F = P1 + c P2; for the line y it is that P2's y-degree is at least m.
    """
    D = domain
    width = 2 * (d + 1)
    rows = []
    for (a, b), m in zip(lines, mults):
        if D.is_zero(a):
            # line y: F = P2, need y^m | P2, so p2_i = 0 for i > d - m
            for i in range(max(0, d - m + 1), d + 1):
                row = [D.zero] * width
                row[(d + 1) + i] = D.one
                rows.append(row)
            continue
        c = b  # canonical a = 1
        negc = D.neg(c)
        powers = [D.one]
        for _ in range(d):
            powers.append(D.mul(powers[-1], negc))
        for r in range(min(m, d + 1)):
            row = [D.zero] * width
            for i in range(r, d + 1):
                coef = D.mul(D.from_int(math.comb(i, r)), powers[i - r])
                row[i] = coef
                row[(d + 1) + i] = D.mul(c, coef)
            rows.append(row)
        # m > d + 1 needs no rows for r > d: the r <= d rows already force F = 0
    return rows


def exp2_solver(multi, verify=False):
    """Exponents (d1, d2) of a rank-2 multiarrangement, d1 <= d2.

    D(A, m) is free with d1 + d2 = |m| (Ziegler, 1989), so its degree-d
    part has the dimension h(d) = max(0, d - d1 + 1) + max(0, d - d2 + 1).
    At d = floor((|m| - 1) / 2), d < |m|/2 <= d2, so the kernel of the
    degree-d conditions has dimension k = max(0, d - d1 + 1): d1 = d + 1 - k.
    k = 0 means d1 > d, so d1 >= |m|/2, which only even |m| allows, with
    d1 = d2 = |m|/2.  A reading outside 0 <= k <= d + 1, or k = 0 with odd
    |m|, raises VerificationError.  This covers no line, (0, 0) read at
    d = -1, and one line, (0, m).  With verify=True the kernels at d1 and d2
    must have dimension h, and a derivation pair of those degrees must pass
    the Saito determinant identity det = c * Q, c nonzero; VerificationError
    is raised otherwise.  |m| above MULT_CAP raises BoundExceeded.
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


def _solve_at(multi, d, exponents):
    """The degree-d derivations, as many as h(d) for these exponents."""
    D = multi.domain
    rows = _condition_rows(D, multi.lines, multi.mults, d)
    basis = nullspace(D, rows, 2 * (d + 1))
    want = sum(max(0, d - e + 1) for e in exponents)
    if len(basis) != want:
        raise VerificationError(f"degree-{d} kernel dimension {len(basis)}, not {want}")
    return basis


def _verify_pair(multi, d1, d2):
    """Saito check: some derivation pair has determinant c * Q, c != 0."""
    D = multi.domain
    theta1 = _solve_at(multi, d1, (d1, d2))[0]
    q_poly = _defining_product(multi)
    for theta2 in _solve_at(multi, d2, (d1, d2)):
        det_poly = _pair_determinant(D, theta1, d1, theta2, d2)
        scalar = _proportional(D, det_poly, q_poly)
        if scalar is not None and not D.is_zero(scalar):
            return (d1, d2)
    raise VerificationError(
        f"Saito determinant check failed for exponents ({d1}, {d2})"
    )


def _defining_product(multi):
    """Coefficients of prod alpha^m, homogeneous of degree |m|."""
    D = multi.domain
    poly = [D.one]  # coefficients of x^i y^(deg - i), ascending i
    for (a, b), m in zip(multi.lines, multi.mults):
        for _ in range(m):
            poly = _hommul(D, poly, (b, a))  # times a x + b y
    return poly


def _hommul(D, p, q):
    """Product of two binary forms given as coefficients of x^i y^(deg - i),
    ascending i."""
    out = [D.zero] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if not D.is_zero(x):
            for j, y in enumerate(q):
                out[i + j] = D.add(out[i + j], D.mul(x, y))
    return out


def _pair_determinant(D, theta1, d1, theta2, d2):
    """Coefficients of P1(1) P2(2) - P2(1) P1(2), degree d1 + d2."""
    p1a, p2a = theta1[: d1 + 1], theta1[d1 + 1 :]
    p1b, p2b = theta2[: d2 + 1], theta2[d2 + 1 :]
    left = _hommul(D, p1a, p2b)
    right = _hommul(D, p2a, p1b)
    return [D.sub(x, y) for x, y in zip(left, right)]


def _proportional(D, p, q):
    """The scalar c with p = c q, or None; q is nonzero."""
    lead = next((i for i, x in enumerate(q) if not D.is_zero(x)), None)
    if lead is None:
        raise VerificationError("zero defining polynomial")
    if len(p) != len(q):
        return None
    if D.is_zero(p[lead]):
        return D.zero if all(D.is_zero(x) for x in p) else None
    c = D.mul(p[lead], D.inv(q[lead]))
    for x, y in zip(p, q):
        if not D.eq(x, D.mul(c, y)):
            return None
    return c


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
    xs = [D.q_power(g) for g in gains]

    def xpow(x, k):
        out = D.one
        for _ in range(k):
            out = D.mul(out, x)
        return out

    alternant = det(
        D, [[xpow(xs[i], lam[j] + n - 1 - j) for j in range(n)] for i in range(n)]
    )
    vandermonde = det(D, [[xpow(xs[i], n - 1 - j) for j in range(n)] for i in range(n)])
    if D.is_zero(vandermonde):
        raise ArrangementError("repeated points, Vandermonde vanishes")

    # complete homogeneous sums by the variable-extension recurrence
    # no points: all three determinants are 0 x 0, and s_() = 1
    max_h = lam[0] + n if n else 0
    h = [D.one] + [D.zero] * max_h  # h of zero variables
    for x in xs:
        new = list(h)
        for k in range(1, max_h + 1):
            new[k] = D.add(h[k], D.mul(x, new[k - 1]))
        h = new

    def h_at(k):
        if k < 0:
            return D.zero
        return h[k]

    schur = det(
        D, [[h_at(lam[i] - i + j) for j in range(n)] for i in range(n)]
    )
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
