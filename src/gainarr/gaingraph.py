"""Simple gain graphs with gains in Z or F_p, and their basic operations.

An edge class [i, j, g] is the unordered reading of a directed gain edge:
(i, j, g) and (j, i, -g) are the same class.  Classes are stored in the
canonical orientation i < j.  Parallel classes between the same pair with
different gains are allowed; loops and exact duplicates are not.

Deletion, contraction, switching, induced subgraphs and cycle enumeration
all return new graphs or plain data; nothing here mutates.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import BoundExceeded, GraphError

GROUP_Z = "Z"
F2 = ("F", 2)

# the cycle scan and the induced-subgraph scans refuse larger graphs
MAX_SCAN_VERTICES = 10


def group_f(p):
    return ("F", p)


def gain_neg(group, g):
    return -g % group[1] if group != GROUP_Z else -g


def gain_add(group, a, b):
    return (a + b) % group[1] if group != GROUP_Z else a + b


def normalize_edge(group, i, j, g):
    """Canonical (i, j, g) with i < j; rejects loops, reduces F_p gains."""
    if i == j:
        raise GraphError(f"loop edge at vertex {i}")
    if group != GROUP_Z:
        g %= group[1]
    if i > j:
        i, j, g = j, i, gain_neg(group, g)
    return (i, j, g)


class GainGraph(namedtuple("GainGraph", "group vertices edges")):
    """Immutable simple gain graph; the tuple itself is its memo key.

    vertices: sorted tuple of int labels.
    edges: sorted tuple of canonical (i, j, g) triples.

    The constructor checks the group, canonicalizes every edge and sorts;
    _make and _replace take fields that are already canonical and skip
    all of that.
    """

    __slots__ = ()

    def __new__(cls, group, vertices, edges):
        if group != GROUP_Z and (
            not isinstance(group, tuple) or len(group) != 2 or group[0] != "F"
        ):
            raise GraphError(f"unknown gain group {group!r}")
        vs = tuple(sorted(set(vertices)))
        vset = set(vs)
        seen = set()
        for i, j, g in edges:
            e = normalize_edge(group, i, j, g)
            if e[0] not in vset or e[1] not in vset:
                raise GraphError(f"edge {e} uses a vertex outside {vs}")
            seen.add(e)
        return tuple.__new__(cls, (group, vs, tuple(sorted(seen))))

    def __repr__(self):
        return f"GainGraph({self.group!r}, {self.vertices!r}, {self.edges!r})"

    @property
    def n_vertices(self):
        return len(self.vertices)


def delete_edge(graph, edge):
    e = normalize_edge(graph.group, *edge)
    if e not in graph.edges:
        raise GraphError(f"edge {e} not present")
    return GainGraph._make(
        (graph.group, graph.vertices, tuple(x for x in graph.edges if x != e))
    )


def contract_edge(graph, edge):
    """Contract the directed gain edge (i, j, g): i merges into j.

    Every other class [k, i, h] with gain h read from k toward i becomes
    [k, j, h + g]; loops at j and duplicate classes are dropped.  The edge
    may be given in either orientation; the orientation given is the one
    contracted.

    Classes away from i are kept as they are.  A class at i is re-gained
    inline in the canonical orientation: (k, j, x) when k < j, else
    (j, k, -x), with x = h + g reduced mod p over F_p.
    """
    i, j, g = edge
    group = graph.group
    cls = normalize_edge(group, i, j, g)
    if cls not in graph.edges:
        raise GraphError(f"edge {cls} not present")
    p = None if group == GROUP_Z else group[1]
    new_edges = set()
    for e in graph.edges:
        u, v, h = e
        # k is the other endpoint, x the gain read from k toward i, then j
        if v == i:
            k, x = u, h + g
        elif u == i:
            k, x = v, g - h
        else:
            new_edges.add(e)
            continue
        if k == j:
            continue  # a loop at j; the contracted class is one of these
        if k < j:
            new_edges.add((k, j, x if p is None else x % p))
        else:
            new_edges.add((j, k, -x if p is None else -x % p))
    return GainGraph._make(
        (group, tuple(v for v in graph.vertices if v != i), tuple(sorted(new_edges)))
    )


def switch_vertex(graph, v):
    """Flip the sign of every edge at v.  Gain group must be F_2."""
    if graph.group != F2:
        raise GraphError("switching is defined for F_2 gains only")
    if v not in graph.vertices:
        raise GraphError(f"vertex {v} not present")
    out = set()
    for i, j, g in graph.edges:
        if i == v or j == v:
            g ^= 1
        out.add((i, j, g))
    return GainGraph._make((graph.group, graph.vertices, tuple(sorted(out))))


def induced_subgraph(graph, vertices):
    vs = tuple(sorted(set(vertices)))
    if not set(vs) <= set(graph.vertices):
        raise GraphError(f"{vs} is not a vertex subset")
    vset = set(vs)
    es = tuple(e for e in graph.edges if e[0] in vset and e[1] in vset)
    return GainGraph._make((graph.group, vs, es))


# ---------------------------------------------------------------------------
# cycles


class CycleWithGain(namedtuple("CycleWithGain", "vertices edges gain")):
    """A cycle on distinct vertices with one chosen edge per step.

    vertices: traversal order (v0, ..., v_{k-1}), closing back to v0.
    edges: the k classes used, edges[t] joining vertices[t] to vertices[t+1].
    gain: total gain summed along the traversal.
    """

    __slots__ = ()

    def __len__(self):
        return len(self.vertices)


def is_balanced(cycle):
    return cycle.gain == 0


def _gain_along(group, cls, frm, to):
    i, j, g = cls
    if (frm, to) == (i, j):
        return g
    if (frm, to) == (j, i):
        return gain_neg(group, g)
    raise GraphError(f"class {cls} does not join {frm} and {to}")


def enumerate_cycles(graph, min_length=3):
    """An iterator over all cycles on distinct vertices, one entry per
    geometric cycle, yielded as they are found.

    Traversal convention: start at the minimum vertex of the cycle and step
    first toward the smaller of its two cycle neighbors.  Parallel classes
    give one cycle per choice of class.  min_length=2 adds digons (one per
    unordered pair of parallel classes, traversed out on the smaller class).
    More than MAX_SCAN_VERTICES vertices raise BoundExceeded at the first
    cycle asked for.
    """
    if graph.n_vertices > MAX_SCAN_VERTICES:
        raise BoundExceeded(
            f"cycle enumeration capped at {MAX_SCAN_VERTICES} vertices,"
            f" graph has {graph.n_vertices}"
        )
    group = graph.group
    by_pair = {}
    for e in graph.edges:
        by_pair.setdefault((e[0], e[1]), []).append(e)
    adj = {}
    for a, b in by_pair:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    if min_length <= 2:
        for pair in sorted(by_pair):
            classes = by_pair[pair]
            for c1, c2 in itertools.combinations(sorted(classes), 2):
                gain = gain_add(
                    group,
                    _gain_along(group, c1, pair[0], pair[1]),
                    _gain_along(group, c2, pair[1], pair[0]),
                )
                yield CycleWithGain(pair, (c1, c2), gain)

    def classes_between(a, b):
        return by_pair.get((a, b) if a < b else (b, a), ())

    def extend(path, visited):
        v0, last = path[0], path[-1]
        for nxt in sorted(adj.get(last, ())):
            if nxt == v0 and len(path) >= max(3, min_length):
                if path[1] < last:  # direction canonical
                    yield tuple(path)
            elif nxt not in visited and nxt > v0:
                visited.add(nxt)
                path.append(nxt)
                yield from extend(path, visited)
                path.pop()
                visited.remove(nxt)

    for v0 in sorted(adj):
        for seq in extend([v0], {v0}):
            k = len(seq)
            pair_choices = [
                classes_between(seq[t], seq[(t + 1) % k]) for t in range(k)
            ]
            for combo in itertools.product(*pair_choices):
                gain = 0
                for t, cls in enumerate(combo):
                    gain = gain_add(
                        group, gain, _gain_along(group, cls, seq[t], seq[(t + 1) % k])
                    )
                yield CycleWithGain(seq, combo, gain)
