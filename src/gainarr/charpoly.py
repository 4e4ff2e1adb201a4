"""Characteristic polynomials three independent ways.

1. chi_poset: build the intersection poset of an arrangement layer by
   layer, run the Mobius recursion, and sum mu(X) t^dim(X).  Works over
   any of the exact domains, affine or central.  Rows over Q, Q(zeta_2)
   and Q(q) are first mapped to an exact integer image and eliminated
   over Z; scalars.integer_image carries the argument that this changes
   no flat.
2. chi_gaingraph_recursive: deletion-contraction on the gain graph with
   base case t^l for the affinographic arrangement and (t-1)^l for the
   bias arrangement, pivoting on the lexicographically smallest edge; one
   pass computes both, memoized as a pair on the graph, its own key.  The
   memo holds one object per distinct chi and per distinct pair.
   chi_of_kind also serves the cone, (t - 1) * chi_affin, from a memo on
   the affinographic chi.
3. chi_finite_field_oracle: count complement points of the affinographic
   arrangement of an integer-gain graph modulo consecutive integers above
   l * max|gain| and interpolate; extra moduli cross-check the
   interpolation.  Its docstring argues why any such modulus, prime or
   not, counts chi, and why the pure-Python count may be reduced by
   translation and by the last vertex; it shares no code with 1 or 2.

The three must agree; tests and the verify suites enforce that.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import lcm

from .errors import BoundExceeded, GraphError, VerificationError
from .gaingraph import GROUP_Z, GainGraph, contract_edge
from .intpoly import IntPolynomial, T_MINUS_1
from .scalars import SpanTracker, integer_image, pmul

DEFAULT_MAX_HYPERPLANES = 24
ORACLE_CONTROL_POINTS = 2  # chi_finite_field_oracle's checks past interpolation
ORACLE_MAX_VERTICES = 5


# ---------------------------------------------------------------------------
# intersection poset


class Flat(namedtuple("Flat", "closure rank")):
    """A nonempty intersection of hyperplanes.

    closure: indices of every hyperplane containing the flat.
    rank: codimension in the ambient space.
    """

    __slots__ = ()


class IntersectionPoset(
    namedtuple("IntersectionPoset", "arrangement flats mobius")
):
    """All flats ordered by reverse inclusion, with Mobius values.

    flats[0] is the ambient space; mobius is aligned with flats.
    """

    __slots__ = ()

    def __len__(self):
        return len(self.flats)


def intersection_poset(arr, max_hyperplanes=DEFAULT_MAX_HYPERPLANES):
    """Layered closure construction of the poset of nonempty flats.

    The flats are built from scalars.integer_image of the augmented rows
    (coeffs | const), eliminated over Z whenever the domain is Q, Q(zeta_2)
    or Q(q).  That image keeps the rank of every row and column subset, as
    its docstring argues, hence every emptiness test, closure and mu.

    The covered skip is exact.  From a rank-r flat F, once H_k is joined,
    every H_k' in closure(F v H_k) outside closure(F) is skipped: F cap H_k
    lies in H_k', and F cap H_k and F cap H_k' are both rank-(r+1) flats,
    so they are equal and the join is the same flat.
    """
    if len(arr) > max_hyperplanes:
        raise BoundExceeded(
            f"poset construction capped at {max_hyperplanes} hyperplanes,"
            f" arrangement has {len(arr)}"
        )
    rows = [h.augmented_row() for h in arr.hyperplanes]
    D, rows = integer_image(arr.domain, rows)
    flats, mobius = _poset_from_rows(D, rows, arr.dim)
    return IntersectionPoset(arr, flats, mobius)


def _poset_from_rows(D, rows, dim):
    """(flats, mobius) of the augmented rows, eliminated over D.

    Distinct joins from one flat F share only closure(F), and a row found
    parallel to F lies in no join, so the closure of F v H_k is closure(F),
    k, and the later uncovered rows that the new span contains.
    """
    n_h = len(rows)
    bottom = Flat(frozenset(), 0)
    found = {bottom.closure: bottom}
    layer = [(bottom, SpanTracker(D, dim + 1))]
    while layer:
        nxt = []
        for flat, tracker in layer:
            covered = set(flat.closure)
            for k in range(n_h):
                if k in covered:
                    continue
                res = tracker.reduce(rows[k])
                if all(D.is_zero(x) for x in res[:-1]):
                    # residual constant nonzero: empty; zero cannot happen
                    # for k outside the closure
                    continue
                t2 = tracker.copy()
                # res is reduced already, and reducing it again changes
                # nothing, so this leaves t2 as t2.add(rows[k]) would
                t2.add(res)
                closure = flat.closure.union(
                    [k],
                    (m for m in range(k + 1, n_h)
                     if m not in covered and t2.contains(rows[m])),
                )
                covered |= closure
                if closure not in found:
                    f2 = Flat(closure, flat.rank + 1)
                    found[closure] = f2
                    nxt.append((f2, t2))
        layer = nxt

    flats = sorted(found.values(), key=lambda f: (f.rank, sorted(f.closure)))
    mobius = []
    for i, x in enumerate(flats):
        if x.rank == 0:
            mobius.append(1)
            continue
        acc = 0
        for j, y in enumerate(flats[:i]):
            if y.closure < x.closure:
                acc += mobius[j]
        # flats are rank-sorted, so every Y strictly below X precedes it
        mobius.append(-acc)
    return tuple(flats), tuple(mobius)


def chi_poset(arr, max_hyperplanes=DEFAULT_MAX_HYPERPLANES):
    """Characteristic polynomial via the Mobius function of the poset."""
    poset = intersection_poset(arr, max_hyperplanes)
    coeffs = [0] * (arr.dim + 1)
    for flat, mu in zip(poset.flats, poset.mobius):
        coeffs[arr.dim - flat.rank] += mu
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# deletion-contraction on gain graphs

# a memoized call takes two interpreter frames; see _chi_rec
_CHAIN_STRIDE = 32
# the kinds in the order of the pair _chi_rec returns
_CHI_KINDS = ("affinographic", "bias")
# one shared object per distinct chi (cone chi included) and per chi pair
_INTERNED = {}


def clear_caches():
    _chi_rec.cache_clear()
    _cone.cache_clear()
    _INTERNED.clear()


def _intern(value):
    return _INTERNED.setdefault(value, value)


def chi_gaingraph_recursive(graph, kind):
    """chi of the affinographic or bias arrangement by deletion-contraction.

    kind is "affinographic" or "bias".  The recursion always pivots on the
    lexicographically smallest edge class in its canonical orientation, so
    results are reproducible node for node.
    """
    if kind not in _CHI_KINDS:
        raise GraphError(f"unknown arrangement kind {kind!r}")
    return _chi_rec(graph)[_CHI_KINDS.index(kind)]


@lru_cache(maxsize=None)
def _chi_rec(graph):
    """(chi affinographic, chi bias) by memoized deletion-contraction on the
    first edge.

    One pass serves both kinds exactly.  Both arrangements satisfy
    chi(G) = chi(G - e) - chi(G / e) for the same deletion and the same
    contraction, so the two recursions visit the same graphs through the
    same pivots and differ only at the edgeless base: t^n for the empty
    affinographic arrangement, (t - 1)^n for the n coordinate hyperplanes
    of the bias one.  Each component of the pair is the sum its own
    recursion would accumulate.

    The deletions of a graph are its edge suffixes.  Before recursing, the
    suffixes whose length is a multiple of _CHAIN_STRIDE are evaluated,
    shortest first, so no deletion chain runs more than _CHAIN_STRIDE calls
    deep before it meets a memoized suffix.  Each contraction drops a
    vertex, so the depth is at most about (_CHAIN_STRIDE + 1) per vertex,
    however many parallel classes the graph has.  Those suffixes are ones
    the recursion evaluates anyway, so the memo ends up the same.

    Results are interned: many graphs share a chi, and the memo keeps one
    object per distinct polynomial and per distinct pair.
    """
    group, vs, es = graph
    if not es:
        n = len(vs)
        a, b = IntPolynomial.t_power(n), IntPolynomial.from_roots([1] * n)
    else:
        for m in range(_CHAIN_STRIDE, len(es), _CHAIN_STRIDE):
            _chi_rec(GainGraph._make((group, vs, es[-m:])))
        a_del, b_del = _chi_rec(GainGraph._make((group, vs, es[1:])))
        a_con, b_con = _chi_rec(contract_edge(graph, es[0]))
        a, b = a_del - a_con, b_del - b_con
    return _intern((_intern(a), _intern(b)))


def chi_of_kind(graph, kind):
    """kind in {"affinographic", "bias", "cone"}.

    The cone's chi is (t - 1) * chi_affin, memoized on the interned
    affinographic chi, so graphs that share it share one cone polynomial;
    charpoly.clear_caches() empties that memo with the others.
    """
    if kind == "cone":
        return _cone(_chi_rec(graph)[0])
    if kind == "bias":
        return _chi_rec(graph)[1]
    return chi_gaingraph_recursive(graph, kind)


@lru_cache(maxsize=None)
def _cone(chi_affin):
    return _intern(T_MINUS_1 * chi_affin)


# ---------------------------------------------------------------------------
# point-counting oracle


def _complement_count(l, edges, m):
    """Points of (Z/m)^l off every hyperplane x_i - x_j = g, (i, j, g) in
    edges with 0 <= i < j < l; see chi_finite_field_oracle."""
    if l < 2:
        return m**l
    # x_j must avoid x_i - g for each edge (i, j, g) to an earlier vertex i
    back = [[] for _ in range(l)]
    for i, j, g in edges:
        back[j].append((i, -g))
    xs = [0] * l

    def count(k):
        forbidden = {(xs[i] + s) % m for i, s in back[k]}
        if k == l - 1:
            return m - len(forbidden)
        total = 0
        for v in range(m):
            if v not in forbidden:
                xs[k] = v
                total += count(k + 1)
        return total

    return m * count(1)


def _interpolate(xs, ys):
    """Integer coefficients, ascending, of the polynomial of degree below
    len(xs) through the points (xs[i], ys[i]); xs must be distinct.

    Lagrange's form over one common denominator: the basis numerator
    N_i = prod_(j != i) (t - x_j) has integer coefficients and the basis
    polynomial is N_i / d_i with d_i = prod_(j != i) (x_i - x_j).  With
    L = lcm |d_i| the sum is (sum_i y_i (L / d_i) N_i) / L, whose numerator
    is computed over Z; a coefficient L does not divide means the points
    lie on no polynomial in Z[t], and VerificationError is raised.
    """
    nums, dens = [], []
    for i, xi in enumerate(xs):
        num = (1,)
        den = 1
        for j, xj in enumerate(xs):
            if j != i:
                num = pmul(num, (-xj, 1))
                den *= xi - xj
        nums.append(num)
        dens.append(den)
    L = lcm(*dens)
    total = [0] * len(xs)
    for y, num, den in zip(ys, nums, dens):
        scale = y * (L // den)
        for k, c in enumerate(num):
            total[k] += scale * c
    if any(c % L for c in total):
        raise VerificationError("finite field counts do not interpolate in Z[t]")
    return tuple(c // L for c in total)


def chi_finite_field_oracle(graph):
    """Point-count chi of the affinographic arrangement of a Z-gain graph.

    Counts complement points in (Z/m)^l at the consecutive moduli
    m = B+1, ..., B+l+1, where B = l * max|gain|, Lagrange-interpolates
    the degree-l polynomial, and checks the result at ORACLE_CONTROL_POINTS
    further moduli.  More than ORACLE_MAX_VERTICES vertices raise
    BoundExceeded.

    Any modulus m > B counts chi(m), prime or not.  By inclusion-exclusion
    over the edge sets S, the complement has sum_S (-1)^|S| N_S(m) points,
    where N_S(m) counts the points of (Z/m)^l on every hyperplane of S.
    That is m^c(S), c(S) the number of components of S, when every
    fundamental cycle of S has gain sum = 0 (mod m), and 0 otherwise.  A
    fundamental cycle has at most l edges, so its gain sum has absolute
    value at most B < m: it is 0 mod m exactly when it is 0, that is, when
    the cycle is balanced.  So the count is the sum over balanced S of
    (-1)^|S| m^c(S), which is chi(m).

    The count is exact, pure Python, and visits at most m^(l-2) points.
    Translation: x -> x + c(1, ..., 1) maps every hyperplane x_i - x_j = g
    onto itself, so it permutes the complement.  Each orbit has m points,
    exactly one of them with x_0 = 0, so the complement has m times as
    many points as its slice x_0 = 0.  Last vertex: a point lies in the
    complement exactly when each x_j avoids the values x_i - g of its
    edges (i, j, g) to earlier vertices i, because every hyperplane is
    tested once, at its later vertex.  So x_1, ..., x_(l-2) run over their
    allowed values only, and the last coordinate, whose allowed values are
    the m minus the distinct forbidden ones, is counted, not enumerated.
    """
    if graph.group != GROUP_Z:
        raise GraphError("finite field oracle needs integer gains")
    l = graph.n_vertices
    if l > ORACLE_MAX_VERTICES:
        raise BoundExceeded(
            f"finite field oracle capped at {ORACLE_MAX_VERTICES} vertices"
        )
    bound = l * max((abs(g) for _, _, g in graph.edges), default=0)
    moduli = range(bound + 1, bound + l + 2 + ORACLE_CONTROL_POINTS)
    idx = {v: k for k, v in enumerate(graph.vertices)}
    # edges are canonical and vertices sorted, so idx[i] < idx[j]
    edges = [(idx[i], idx[j], g) for i, j, g in graph.edges]
    counts = [_complement_count(l, edges, m) for m in moduli]

    poly = IntPolynomial(_interpolate(moduli[: l + 1], counts[: l + 1]))
    for m, n in zip(moduli[l + 1 :], counts[l + 1 :]):
        if poly(m) != n:
            raise VerificationError(
                f"control modulus {m}: counted {n}, polynomial gives {poly(m)}"
            )
    return poly


def region_count(chi):
    """Number of chambers of a real arrangement from its chi: (-1)^l chi(-1)."""
    val = (-1) ** chi.degree * chi(-1)
    if val <= 0:
        raise VerificationError(f"nonpositive region count {val}")
    return val
