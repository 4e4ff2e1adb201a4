"""Named gain-graph families and digraph-level freeness criteria.

The families are integer gain graphs on vertices 1..l whose difference
arrangement (or whose bias arrangement, for the dms family) is the named
one: braid, Boolean, extended Catalan, extended Shi.  A digraph with
ascending arcs encodes the graphs "complete zero layer plus some gain-one
edges"; for those, freeness and supersolvability of the arrangement reduce
to finite digraph conditions.  ab_free_criterion (Athanasiadis 1998)
checks each ordered pair of arcs for the two forbidden induced shapes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations

from .errors import BoundExceeded, GraphError
from .gaingraph import F2, GROUP_Z, GainGraph

FAMILY_KINDS = ("coxeter", "boolean", "catalan", "shi", "dms")

# a family graph holds C(l, 2) * |gains| edge classes, so its size is
# checked arithmetically and refused before any vertex or edge is built
MAX_FAMILY_VERTICES = 1000
MAX_FAMILY_EDGE_CLASSES = 100_000

# complete 3-vertex graph carrying both gains over the two-element group;
# a free arrangement fixture (only freeness is asserted of it)
EDELMAN_REINER_3 = GainGraph._make((
    F2,
    (1, 2, 3),
    tuple((i, j, g) for i in (1, 2) for j in range(i + 1, 4) for g in (0, 1)),
))


def make_family(kind, l, m=0):
    """Gain graph for a named family on vertices 1..l.

    coxeter: all [i,j,0] (braid arrangement).
    boolean: edgeless (coordinate arrangement, via the bias construction).
    catalan: all [i,j,g] with -m <= g <= m.
    shi: all [i,j,g] with -(m-1) <= g <= m, m >= 1.
    dms: the catalan graph, meant to be read through its bias arrangement.

    More than MAX_FAMILY_VERTICES vertices or MAX_FAMILY_EDGE_CLASSES edge
    classes raise BoundExceeded.
    """
    if kind not in FAMILY_KINDS:
        raise GraphError(f"unknown family kind {kind!r}")
    if l < 2:
        raise GraphError("families need at least two vertices")
    if m < 0:
        raise GraphError("multiplicity parameter must be nonnegative")
    if kind == "boolean":
        lo, hi = 0, -1
    elif kind == "coxeter":
        lo, hi = 0, 0
    elif kind in ("catalan", "dms"):
        lo, hi = -m, m
    else:  # shi
        if m < 1:
            raise GraphError("shi needs m >= 1")
        lo, hi = -(m - 1), m
    classes = l * (l - 1) // 2 * (hi - lo + 1)
    if l > MAX_FAMILY_VERTICES or classes > MAX_FAMILY_EDGE_CLASSES:
        raise BoundExceeded(
            f"{kind} family with l = {l}, m = {m} has {l} vertices and"
            f" {classes} edge classes; the caps are MAX_FAMILY_VERTICES ="
            f" {MAX_FAMILY_VERTICES} and MAX_FAMILY_EDGE_CLASSES ="
            f" {MAX_FAMILY_EDGE_CLASSES}"
        )
    vertices = range(1, l + 1)
    gains = range(lo, hi + 1)
    edges = [(i, j, g) for i in vertices for j in range(i + 1, l + 1) for g in gains]
    return GainGraph(GROUP_Z, vertices, edges)


def raney(l, s, r):
    """Raney number r/(l s + r) * binom(l s + r, l), exactly.

    Counts are nonnegative; l s + r must be positive.  A non-integer value
    signals invalid parameters and raises.
    """
    if l < 0 or s < 0 or r < 0:
        raise ValueError("raney parameters must be nonnegative")
    n = l * s + r
    if n <= 0:
        raise ValueError("raney needs l*s + r > 0")
    value = Fraction(r, n) * math.comb(n, l)
    if value.denominator != 1:
        raise ValueError(f"raney({l}, {s}, {r}) is not an integer")
    return int(value)


class Digraph(namedtuple("Digraph", "n_vertices arcs")):
    """Directed graph on 1..n with every arc ascending (i < j)."""

    __slots__ = ()

    @staticmethod
    def make(n, arcs):
        seen = set()
        for i, j in arcs:
            if not (1 <= i < j <= n):
                raise GraphError(f"arc ({i}, {j}) must ascend within 1..{n}")
            seen.add((i, j))
        return Digraph(n, tuple(sorted(seen)))


def digraph_to_gaingraph(dg):
    """Complete zero layer plus a gain-one edge per arc."""
    edges = [
        (i, j, 0)
        for i in range(1, dg.n_vertices + 1)
        for j in range(i + 1, dg.n_vertices + 1)
    ]
    edges.extend((i, j, 1) for i, j in dg.arcs)
    return GainGraph(GROUP_Z, range(1, dg.n_vertices + 1), edges)


def ab_free_criterion(dg):
    """No induced two-arc directed path and no induced pair of disjoint arcs.

    Induced means the subset's arc set is exactly the stated shape.  Over
    ordered pairs of arcs (a, b), (c, d): b == c with (a, d) absent is an
    induced path a -> b -> d (a transitive triangle is not), and four
    distinct endpoints with no other arc among them are induced disjoint
    arcs.
    """
    arcs = set(dg.arcs)
    for (a, b), (c, d) in permutations(dg.arcs, 2):
        if b == c and (a, d) not in arcs:
            return False
        quad = sorted({a, b, c, d})
        if len(quad) == 4 and len(arcs.intersection(combinations(quad, 2))) == 2:
            return False
    return True


def ab_supersolvable_criterion(dg):
    """All arcs share one terminal vertex or all share one initial vertex."""
    if len(dg.arcs) <= 1:
        return True
    tails = {i for i, _ in dg.arcs}
    heads = {j for _, j in dg.arcs}
    return len(tails) == 1 or len(heads) == 1
