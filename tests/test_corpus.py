"""Instance generators: enumeration order and shared edge triples."""

import itertools

from gainarr.corpus import F2, PAIR_STATES_F2, iter_f2_graphs, vertex_pairs
from gainarr.gaingraph import GainGraph


def reference_f2_graphs(l):
    verts = tuple(range(1, l + 1))
    pairs = vertex_pairs(l)
    for combo in itertools.product(PAIR_STATES_F2, repeat=len(pairs)):
        edges = tuple((i, j, g) for (i, j), st in zip(pairs, combo) for g in st)
        yield GainGraph._make((F2, verts, edges))


def test_f2_enumeration_matches_reference():
    for l in range(0, 5):
        got = list(iter_f2_graphs(l))
        assert got == list(reference_f2_graphs(l))
        assert len(got) == 4 ** len(vertex_pairs(l))
        assert all(g == GainGraph(*g) for g in got)


def test_f2_edge_triples_are_shared():
    triples = {id(e): e for g in iter_f2_graphs(3) for e in g.edges}
    # one object per (pair, gain), however many graphs hold it
    assert len(triples) == 2 * len(vertex_pairs(3))
