"""Hyperplane arrangements over exact domains.

Three constructions from a gain graph Gamma on vertices v_1 < ... < v_l:

  build_affinographic: x_i - x_j = g for each class [i, j, g], over Q for
      integer gains and over F_p for F_p gains.
  build_cone: homogenize with a new last coordinate z and add {z = 0}.
  build_bias: x_i = 0 for every vertex plus x_i - q^g x_j = 0 for every
      class, over Q(q) for integer gains and over Q(zeta_p) for F_p gains.

Hyperplanes are stored canonically: the first nonzero coefficient is 1.
Arrangements keep their hyperplanes sorted, so equal arrangements compare
equal structurally.  make_hyperplane and make_arrangement establish this
for outside input; the builders construct it and only sort: a member leads
with the 1 at its lower vertex (classes are i < j on sorted vertices) or
coordinate, build_cone only appends -const, and distinct edge classes give
distinct hyperplanes, as F_p gains are reduced and g, q^g, zeta^g differ.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .errors import ArrangementError
from .gaingraph import GROUP_Z
from .scalars import GF, QQ, QQ_Q, cyclotomic, pivot_columns


class Hyperplane(namedtuple("Hyperplane", "coeffs const")):
    """coeffs . x = const, with coeffs canonicalized."""

    __slots__ = ()

    def augmented_row(self):
        """The row (coeffs | const) that elimination code works on."""
        return list(self.coeffs) + [self.const]


def make_hyperplane(domain, coeffs, const):
    """Canonicalize: scale so the first nonzero coefficient is one."""
    coeffs = tuple(coeffs)
    lead = next((c for c in coeffs if not domain.is_zero(c)), None)
    if lead is None:
        raise ArrangementError("hyperplane with zero coefficient vector")
    if not domain.eq(lead, domain.one):
        inv = domain.inv(lead)
        coeffs = tuple(domain.mul(inv, c) for c in coeffs)
        const = domain.mul(inv, const)
    return Hyperplane(coeffs, const)


class Arrangement(namedtuple("Arrangement", "domain dim hyperplanes")):
    """A finite set of distinct hyperplanes in a fixed ambient dimension."""

    __slots__ = ()

    def __len__(self):
        return len(self.hyperplanes)

    @property
    def is_central(self):
        return all(self.domain.is_zero(h.const) for h in self.hyperplanes)


def make_arrangement(domain, dim, hyperplanes):
    hyperplanes = set(hyperplanes)
    for h in hyperplanes:
        if len(h.coeffs) != dim:
            raise ArrangementError("hyperplane dimension mismatch")
    return Arrangement(domain, dim, tuple(sorted(hyperplanes)))


class Multiplicity(namedtuple("Multiplicity", "values")):
    """Multiplicity function on an arrangement's hyperplanes."""

    __slots__ = ()  # values is aligned with arrangement.hyperplanes

    def total(self):
        return sum(self.values)


# ---------------------------------------------------------------------------
# constructions from gain graphs


def _affin_domain(group):
    return QQ if group == GROUP_Z else GF(group[1])


def bias_domain(group):
    return QQ_Q if group == GROUP_Z else cyclotomic(group[1])


def build_affinographic(graph):
    """x_i - x_j = g per edge class, one coordinate per vertex in order."""
    D = _affin_domain(graph.group)
    idx = {v: k for k, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    hps = []
    for i, j, g in graph.edges:
        coeffs = [D.zero] * n
        coeffs[idx[i]] = D.one
        coeffs[idx[j]] = D.neg(D.one)
        hps.append(Hyperplane(tuple(coeffs), D.from_int(g)))
    return Arrangement(D, n, tuple(sorted(hps)))


def build_cone(arr):
    """Homogenize with a last coordinate z and adjoin {z = 0}."""
    D = arr.domain
    n = arr.dim
    hps = [Hyperplane(h.coeffs + (D.neg(h.const),), D.zero) for h in arr.hyperplanes]
    hps.append(Hyperplane((D.zero,) * n + (D.one,), D.zero))
    return Arrangement(D, n + 1, tuple(sorted(hps)))


def build_bias(graph):
    """All coordinate hyperplanes plus x_i = q^g x_j per edge class."""
    D = bias_domain(graph.group)
    idx = {v: k for k, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    hps = []
    for k in range(n):
        coeffs = [D.zero] * n
        coeffs[k] = D.one
        hps.append(Hyperplane(tuple(coeffs), D.zero))
    for i, j, g in graph.edges:
        coeffs = [D.zero] * n
        coeffs[idx[i]] = D.one
        coeffs[idx[j]] = D.neg(D.q_power(g))
        hps.append(Hyperplane(tuple(coeffs), D.zero))
    return Arrangement(D, n, tuple(sorted(hps)))


# ---------------------------------------------------------------------------
# geometric operations


def _traces(arr, h):
    """Yield the trace on h of each other member of arr, in member order.

    Coordinates on h are the ambient ones with h's pivot variable
    eliminated.  Members parallel to h (empty trace) are skipped; a
    member whose trace is all of h is a duplicate and raises.
    """
    D = arr.domain
    if h not in arr.hyperplanes:
        raise ArrangementError("restriction hyperplane not in arrangement")
    piv = next(k for k, c in enumerate(h.coeffs) if not D.is_zero(c))
    # on h: x_piv = const - sum_{t != piv} coeffs[t] x_t   (pivot coeff is 1)
    for k2 in arr.hyperplanes:
        if k2 == h:
            continue
        a = k2.coeffs
        factor = a[piv]
        coeffs = tuple(
            D.sub(a[t], D.mul(factor, h.coeffs[t]))
            for t in range(arr.dim)
            if t != piv
        )
        const = D.sub(k2.const, D.mul(factor, h.const))
        if all(D.is_zero(c) for c in coeffs):
            if D.is_zero(const):
                raise ArrangementError("duplicate hyperplane in restriction")
            continue  # parallel to h, empty trace
        yield make_hyperplane(D, coeffs, const)


def restriction(arr, h):
    """The arrangement {K cap h : K, nonempty and proper} inside h.

    Coordinates on h are the ambient ones with h's pivot variable
    eliminated.  Parallel hyperplanes (empty trace) are dropped; distinct
    hyperplanes with equal traces merge.
    """
    return make_arrangement(arr.domain, arr.dim - 1, _traces(arr, h))


def ziegler_restriction(arr, h):
    """Restriction to h with natural multiplicities.

    Requires a central arrangement.  Each restricted hyperplane's
    multiplicity is the number of members of arr - {h} whose trace it is.
    """
    if not arr.is_central:
        raise ArrangementError("Ziegler restriction needs a central arrangement")
    # central, so a member with an empty trace would duplicate h and raise
    counts = Counter(_traces(arr, h))
    restricted = make_arrangement(arr.domain, arr.dim - 1, counts.keys())
    mult = Multiplicity(tuple(counts[h2] for h2 in restricted.hyperplanes))
    return restricted, mult


def essentialize(arr):
    """Quotient a central arrangement by the common intersection subspace.

    New coordinates are the pivot coordinates of the row space of the
    coefficient vectors; the result has ambient dimension equal to the rank.
    """
    ess, _ = essentialize_with_map(arr)
    return ess


def essentialize_with_map(arr):
    """essentialize plus {old hyperplane: new hyperplane}, in one pivot pass.

    Every nonzero vector of the row space leads at a pivot column, so the
    projected members keep their leading 1, stay distinct and stay sorted;
    an essential arrangement comes back unchanged, with the identity map.
    """
    if not arr.is_central:
        raise ArrangementError("essentialize needs a central arrangement")
    pivots = pivot_columns(arr.domain, [list(h.coeffs) for h in arr.hyperplanes])
    mapping = {
        h: Hyperplane(tuple(h.coeffs[p] for p in pivots), h.const)
        for h in arr.hyperplanes
    }
    return Arrangement(arr.domain, len(pivots), tuple(mapping.values())), mapping
