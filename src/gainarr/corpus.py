"""Instance generators for the verification suites.

Exhaustive enumerations are ordered deterministically (vertex count, then
edge count, then lexicographic edge tuples) so that suite reports are
byte-stable.  Random instances come from a caller-supplied seeded Random.
"""

from __future__ import annotations

import itertools

from .gaingraph import F2, GROUP_Z, GainGraph

PAIR_STATES_F2 = ((), (0,), (1,), (0, 1))


def vertex_pairs(l):
    return [(i, j) for i in range(1, l + 1) for j in range(i + 1, l + 1)]


def z_ground_set(l, gain_bound):
    """All candidate edges (i, j, g), i < j, |g| <= gain_bound, sorted."""
    return sorted(
        (i, j, g) for i, j in vertex_pairs(l) for g in range(-gain_bound, gain_bound + 1)
    )


def iter_z_graphs(l, max_edges, gain_bound):
    """Every integer gain graph on vertices 1..l with at most max_edges
    edge classes and gains in [-gain_bound, gain_bound]."""
    verts = tuple(range(1, l + 1))
    ground = z_ground_set(l, gain_bound)
    for k in range(min(max_edges, len(ground)) + 1):
        for combo in itertools.combinations(ground, k):
            yield GainGraph._make((GROUP_Z, verts, combo))


def iter_f2_graphs(l):
    """Every signed graph on vertices 1..l: 4 states per vertex pair.

    Each edge triple, and each pair's tuple of triples per state, is built
    once and shared by every graph, and so by every memo key made from one.
    """
    verts = tuple(range(1, l + 1))
    blocks = []
    for i, j in vertex_pairs(l):
        by_gain = ((i, j, 0), (i, j, 1))
        blocks.append([tuple(by_gain[g] for g in st) for st in PAIR_STATES_F2])
    for combo in itertools.product(*blocks):
        yield GainGraph._make((F2, verts, tuple(itertools.chain(*combo))))


def random_z_graph(rng, l, max_edges, gain_bound):
    ground = z_ground_set(l, gain_bound)
    k = rng.randint(0, min(max_edges, len(ground)))
    combo = tuple(sorted(rng.sample(ground, k)))
    return GainGraph._make((GROUP_Z, tuple(range(1, l + 1)), combo))


def random_f2_graph(rng, l):
    pairs = vertex_pairs(l)
    edges = tuple(
        (i, j, g)
        for i, j in pairs
        for g in PAIR_STATES_F2[rng.randrange(4)]
    )
    return GainGraph._make((F2, tuple(range(1, l + 1)), edges))


def iter_digraph_arc_sets(l):
    """Arc subsets of the ascending pairs on 1..l, in mask order."""
    pairs = vertex_pairs(l)
    for mask in range(1 << len(pairs)):
        yield tuple(p for k, p in enumerate(pairs) if mask >> k & 1)


def complete_positive_graphs(l):
    """Signed graphs with a complete positive layer: one per negative
    edge subset, yielded with the plain negative graph's pair list."""
    pairs = vertex_pairs(l)
    verts = tuple(range(1, l + 1))
    for mask in range(1 << len(pairs)):
        neg = tuple(p for k, p in enumerate(pairs) if mask >> k & 1)
        edges = tuple(
            sorted([(i, j, 0) for i, j in pairs] + [(i, j, 1) for i, j in neg])
        )
        yield GainGraph._make((F2, verts, edges)), neg


def three_vertex_instances(gain_bound=2, max_per_pair=3):
    """Integer gain graphs on 3 vertices: per-pair gain sets of size at
    most max_per_pair drawn from [-gain_bound, gain_bound]."""
    gains = range(-gain_bound, gain_bound + 1)
    sets = [
        s for r in range(max_per_pair + 1) for s in itertools.combinations(gains, r)
    ]
    for s12, s13, s23 in itertools.product(sets, repeat=3):
        edges = tuple(
            sorted(
                [(1, 2, g) for g in s12]
                + [(1, 3, g) for g in s13]
                + [(2, 3, g) for g in s23]
            )
        )
        yield GainGraph._make((GROUP_Z, (1, 2, 3), edges))
