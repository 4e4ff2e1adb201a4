"""Signed graph predicates: the F_2 gain specialization.

A signed graph here is a gain graph with group F_2; positive edges carry
gain 0 and negative edges gain 1.  The freeness criterion for the coned
arrangement of a signed graph is a conjunction of three checks:

  1. every balanced cycle of length >= 4 has a chord splitting it into two
     balanced cycles,
  2. no induced subgraph is exactly one unbalanced cycle of length >= 3,
  3. no 4-vertex induced subgraph is switching-equivalent to the doubled
     obstruction graph OBSTRUCTION_4 below.

is_threshold and edelman_reiner_freeness cover the complete-positive-part
special case: with all positive edges present, freeness is equivalent to
the negative part being a threshold graph.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import BoundExceeded, GraphError, VerificationError
from .gaingraph import (
    F2,
    GainGraph,
    _gain_along,
    enumerate_cycles,
    induced_subgraph,
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


def is_balanced_chordal(graph, max_vertices=10):
    """Every balanced cycle of length >= 4 splits over some chord.

    A chord is any edge class between non-consecutive cycle vertices; it
    splits the cycle into two subcycles, and for a balanced cycle the two
    are balanced or unbalanced together, so one check suffices.
    """
    g = _as_f2(graph)
    by_pair = {}
    for e in g.edges:
        by_pair.setdefault((e[0], e[1]), []).append(e)
    for cyc in enumerate_cycles(g, min_length=4, max_vertices=max_vertices):
        if cyc.gain != 0:
            continue
        k = len(cyc.vertices)
        # prefix[t] = gain along the traversal from position 0 to t
        prefix = [0]
        for t, cls in enumerate(cyc.edges[:-1]):
            prefix.append(
                (prefix[-1] + _gain_along(F2, cls, cyc.vertices[t], cyc.vertices[t + 1]))
                % 2
            )
        found = False
        for a in range(k):
            for b in range(a + 2, k):
                if a == 0 and b == k - 1:
                    continue  # consecutive around the wrap
                va, vb = cyc.vertices[a], cyc.vertices[b]
                pair = (va, vb) if va < vb else (vb, va)
                for cls in by_pair.get(pair, ()):
                    arc = (prefix[b] - prefix[a]) % 2
                    back = _gain_along(F2, cls, vb, va)
                    if (arc + back) % 2 == 0:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if not found:
            return False
    return True


def has_induced_unbalanced_cycle(graph, max_vertices=10):
    """Some vertex subset induces exactly one cycle, and it is unbalanced.

    Subsets containing a doubled pair never qualify: the induced subgraph
    is then more than a plain cycle.
    """
    g = _as_f2(graph)
    n = g.n_vertices
    if n > max_vertices:
        raise BoundExceeded(f"induced cycle scan capped at {max_vertices} vertices")
    for size in range(3, n + 1):
        for subset in itertools.combinations(g.vertices, size):
            sg = induced_subgraph(g, subset)
            if len(sg.edges) != size:
                continue
            pairs = {(i, j) for i, j, _ in sg.edges}
            if len(pairs) != size:
                continue  # doubled pair inside the subset
            degree = {}
            for i, j in pairs:
                degree[i] = degree.get(i, 0) + 1
                degree[j] = degree.get(j, 0) + 1
            if any(d != 2 for d in degree.values()) or len(degree) != size:
                continue
            # connected 2-regular on the subset: a single cycle
            if not _connected(subset, pairs):
                continue
            total = sum(gain for _, _, gain in sg.edges) % 2
            if total == 1:
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


def _signed_shape(graph):
    """Relabel to 0..3 and record each pair's gain set; a comparison key."""
    pos = {v: k for k, v in enumerate(graph.vertices)}
    shape = {}
    for i, j, g in graph.edges:
        shape.setdefault((pos[i], pos[j]), set()).add(g)
    return tuple(sorted((p, tuple(sorted(s))) for p, s in shape.items()))


def _switched_shape(shape, flips):
    out = []
    for (a, b), gains in shape:
        if (a in flips) != (b in flips):
            gains = tuple(sorted(g ^ 1 for g in gains))
        out.append(((a, b), gains))
    return tuple(sorted(out))


def _relabeled_shape(shape, perm):
    out = []
    for (a, b), gains in shape:
        a2, b2 = perm[a], perm[b]
        if a2 > b2:
            a2, b2 = b2, a2
        out.append(((a2, b2), gains))
    return tuple(sorted(out))


def _obstruction_orbit():
    base = _signed_shape(OBSTRUCTION_4)
    orbit = set()
    for perm in itertools.permutations(range(4)):
        relabeled = _relabeled_shape(base, perm)
        for r in range(5):
            for flips in itertools.combinations(range(4), r):
                orbit.add(_switched_shape(relabeled, set(flips)))
    return orbit


_OBSTRUCTION_ORBIT = None


def has_switching_obstruction(graph):
    """Some 4 vertices induce a graph switching-equivalent to OBSTRUCTION_4."""
    global _OBSTRUCTION_ORBIT
    if _OBSTRUCTION_ORBIT is None:
        _OBSTRUCTION_ORBIT = _obstruction_orbit()
    g = _as_f2(graph)
    for subset in itertools.combinations(g.vertices, 4):
        sg = induced_subgraph(g, subset)
        if len(sg.edges) != 8:
            continue  # the obstruction has 8 classes; switching preserves count
        if _signed_shape(sg) in _OBSTRUCTION_ORBIT:
            return True
    return False


def signed_freeness_criterion(graph, max_vertices=10):
    """The three-part freeness characterization for signed gain graphs."""
    g = _as_f2(graph)
    return (
        is_balanced_chordal(g, max_vertices=max_vertices)
        and not has_induced_unbalanced_cycle(g, max_vertices=max_vertices)
        and not has_switching_obstruction(g)
    )


# ---------------------------------------------------------------------------
# threshold graphs and the complete-positive-part case


def _is_threshold_by_subgraphs(g: SimpleGraph):
    edges = set(g.edges)
    for quad in itertools.combinations(g.vertices, 4):
        sub = [
            (a, b) for a, b in itertools.combinations(quad, 2) if (a, b) in edges
        ]
        k = len(sub)
        if k == 2:
            (a1, b1), (a2, b2) = sub
            if {a1, b1} & {a2, b2} == set():
                return False  # 2K2
        elif k == 3:
            degree = {}
            for a, b in sub:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            if sorted(degree.values()) == [1, 1, 2, 2]:
                return False  # P4
        elif k == 4:
            degree = {}
            for a, b in sub:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            if set(degree.values()) == {2}:
                return False  # C4
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
