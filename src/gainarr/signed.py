"""Signed graph predicates: the F_2 gain specialization.

A signed graph here is a gain graph with group F_2; positive edges carry
gain 0 and negative edges gain 1.  The freeness criterion for the coned
arrangement of a signed graph is a conjunction of three checks:

  1. every balanced cycle of length >= 4 has a chord that closes a
     balanced cycle with one of its arcs (arc gains are XORs of prefixes),
  2. no induced subgraph is exactly one unbalanced cycle of length >= 3,
  3. no 4-vertex induced subgraph, renamed to 1..4, lies in the orbit of
     OBSTRUCTION_4 under relabeling and gaingraph.switch_vertex.

is_threshold and edelman_reiner_freeness cover the complete-positive-part
special case: with all positive edges present, freeness is equivalent to
the negative part being a threshold graph: no 4 vertices whose sorted
degrees are those of 2K2, P4 or C4, cross-checked by vertex elimination.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .errors import BoundExceeded, GraphError, VerificationError
from .gaingraph import (
    F2,
    MAX_SCAN_VERTICES,
    GainGraph,
    enumerate_cycles,
    induced_subgraph,
    switch_vertex,
)

# 4-vertex obstruction: pairs {1,2} and {3,4} doubled, {1,3} negative only,
# the remaining pairs positive only
OBSTRUCTION_4 = GainGraph(
    F2,
    (1, 2, 3, 4),
    [
        (1, 2, 0),
        (1, 2, 1),
        (3, 4, 0),
        (3, 4, 1),
        (1, 3, 1),
        (1, 4, 0),
        (2, 3, 0),
        (2, 4, 0),
    ],
)


class SimpleGraph(namedtuple("SimpleGraph", "vertices edges")):
    """An ordinary graph: sorted vertices, sorted i < j pairs."""

    __slots__ = ()

    @staticmethod
    def make(vertices, edges):
        vs = tuple(sorted(set(vertices)))
        vset = set(vs)
        pairs = set()
        for a, b in edges:
            if a == b:
                raise GraphError(f"loop at {a}")
            if a not in vset or b not in vset:
                raise GraphError(f"edge ({a},{b}) outside vertex set")
            pairs.add((a, b) if a < b else (b, a))
        return SimpleGraph(vs, tuple(sorted(pairs)))


def _as_f2(graph):
    if graph.group != F2:
        raise GraphError("signed predicates need F_2 gains")
    return graph


def _splits_over_a_chord(cyc, gains):
    """Some chord of the balanced cycle closes a balanced cycle with an arc.

    prefix[t] XORs the gains up to position t, so the arc from a to b has
    gain prefix[a] ^ prefix[b]; over F_2 a class has one gain both ways."""
    prefix = [0]
    for _, _, s in cyc.edges[:-1]:
        prefix.append(prefix[-1] ^ s)
    k = len(cyc)
    return any(
        prefix[a] ^ prefix[b] == s
        for a, b in itertools.combinations(range(k), 2)
        if 1 < b - a < k - 1
        for s in gains.get((cyc.vertices[a], cyc.vertices[b]), ())
    )


def is_balanced_chordal(graph):
    """Every balanced cycle of length >= 4 splits over some chord.

    A chord is any edge class between non-consecutive cycle vertices; it
    splits the cycle into two subcycles, and for a balanced cycle the two
    are balanced or unbalanced together, so one check suffices.
    """
    g = _as_f2(graph)
    gains = {}
    for i, j, s in g.edges:
        gains.setdefault((i, j), []).append(s)
        gains.setdefault((j, i), []).append(s)
    return all(
        cyc.gain or _splits_over_a_chord(cyc, gains)
        for cyc in enumerate_cycles(g, min_length=4)
    )


def _sorted_degrees(pairs):
    """The sorted degrees of the vertices that the pairs touch."""
    degree = {}
    for a, b in pairs:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    return sorted(degree.values())


def has_induced_unbalanced_cycle(graph):
    """Some vertex subset induces exactly one cycle, and it is unbalanced.

    Subsets containing a doubled pair never qualify: the induced subgraph
    is then more than a plain cycle.
    """
    g = _as_f2(graph)
    if g.n_vertices > MAX_SCAN_VERTICES:
        raise BoundExceeded(
            f"induced cycle scan capped at {MAX_SCAN_VERTICES} vertices"
        )
    for size in range(3, g.n_vertices + 1):
        for subset in itertools.combinations(g.vertices, size):
            sg = induced_subgraph(g, subset)
            if len(sg.edges) != size:
                continue
            pairs = {(i, j) for i, j, _ in sg.edges}
            # no doubled pair, 2-regular on the subset, and connected: one
            # cycle (on 6 or more vertices, 2-regular can be two cycles)
            if (
                len(pairs) == size
                and _sorted_degrees(pairs) == [2] * size
                and _connected(subset, pairs)
                and sum(s for _, _, s in sg.edges) % 2
            ):
                return True
    return False


def _connected(vertices, pairs):
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = vertices[0]
    seen = {start}
    stack = [start]
    while stack:
        for nb in adj.get(stack.pop(), ()):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(vertices)


def _relabeled(graph, order):
    """graph with order[k] renamed k + 1 (a reversed F_2 class keeps its gain)."""
    new = {v: k for k, v in enumerate(order, 1)}
    return GainGraph(F2, new.values(), [(new[i], new[j], s) for i, j, s in graph.edges])


@functools.cache
def _obstruction_orbit():
    """Every relabeling of OBSTRUCTION_4 to 1..4, switched at every subset."""
    orbit = set()
    for order in itertools.permutations(OBSTRUCTION_4.vertices):
        relabeled = _relabeled(OBSTRUCTION_4, order)
        for r in range(5):
            for flips in itertools.combinations(relabeled.vertices, r):
                orbit.add(functools.reduce(switch_vertex, flips, relabeled))
    return frozenset(orbit)


def has_switching_obstruction(graph):
    """Some 4 vertices induce a graph switching-equivalent to OBSTRUCTION_4."""
    g = _as_f2(graph)
    for subset in itertools.combinations(g.vertices, 4):
        sg = induced_subgraph(g, subset)
        # the obstruction has 8 classes, and switching keeps the count
        if len(sg.edges) == 8 and _relabeled(sg, subset) in _obstruction_orbit():
            return True
    return False


def signed_freeness_criterion(graph):
    """The three-part freeness characterization for signed gain graphs."""
    g = _as_f2(graph)
    return (
        is_balanced_chordal(g)
        and not has_induced_unbalanced_cycle(g)
        and not has_switching_obstruction(g)
    )


# ---------------------------------------------------------------------------
# threshold graphs and the complete-positive-part case

# 2K2, P4 and C4: the 4-vertex graphs with these sorted degrees
_NOT_THRESHOLD = ([1, 1, 1, 1], [1, 1, 2, 2], [2, 2, 2, 2])


def _is_threshold_by_subgraphs(g: SimpleGraph):
    edges = set(g.edges)
    for quad in itertools.combinations(g.vertices, 4):
        sub = [p for p in itertools.combinations(quad, 2) if p in edges]
        if _sorted_degrees(sub) in _NOT_THRESHOLD:
            return False
    return True


def _is_threshold_by_elimination(g: SimpleGraph):
    verts = set(g.vertices)
    edges = set(g.edges)
    while verts:
        degree = {v: 0 for v in verts}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        n = len(verts)
        pick = next(
            (v for v in sorted(verts) if degree[v] == 0 or degree[v] == n - 1),
            None,
        )
        if pick is None:
            return False
        verts.remove(pick)
        edges = {(a, b) for a, b in edges if pick not in (a, b)}
    return True


def is_threshold(g: SimpleGraph):
    """No induced 2K2, C4, or P4; cross-checked by vertex elimination."""
    by_scan = _is_threshold_by_subgraphs(g)
    by_elim = _is_threshold_by_elimination(g)
    if by_scan != by_elim:
        raise VerificationError(
            f"threshold checks disagree on {g}: scan={by_scan} elim={by_elim}"
        )
    return by_scan


def edelman_reiner_freeness(graph):
    """For complete positive part: free iff the negative part is threshold."""
    g = _as_f2(graph)
    pos = {(i, j) for i, j, s in g.edges if s == 0}
    needed = set(itertools.combinations(g.vertices, 2))
    if pos != needed:
        raise GraphError("criterion needs every positive edge present")
    negative = tuple((i, j) for i, j, s in g.edges if s == 1)
    return is_threshold(SimpleGraph(g.vertices, negative))
