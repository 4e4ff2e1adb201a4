"""Workload definitions shared by bench/run.py and its workers.

A suite workload is a list of (suite function name, keyword bounds) that
one fresh interpreter runs in order, passing the workload seed as seed=.
The cli workload is a cycle of `python -m gainarr.cli` calls on graphs the
benchmark generates from the seed and writes to disk; fixed graphs ride
along so that every seed has calls with a recorded output digest.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1

SUITES = {
    # oracles draws no F2 4-vertex samples: random_f2_graph picks 0 to 12
    # edges, so the cost of one sample, and of a repetition, swung with the
    # seed by a third; F2 stays covered by the exhaustive corpus on <= 3
    # vertices, and the two seeded Z samples have a fixed vertex count.
    "oracles": [
        (
            "cross_oracle_suite",
            dict(
                exhaustive_max_vertices=3,
                exhaustive_max_edges=2,
                gain_bound=1,
                z4_samples=2,
                f2_4_samples=0,
            ),
        ),
    ],
    "sweep": [
        # chi_identity at max_edges=4 (38k exhaustive graphs, not 184k at 5)
        # and threshold graphs up to 4 vertices keep a repetition near 5 s, so
        # a run holds five or more and their median rides out the host's
        # swings in speed.
        ("chi_identity_suite", dict(max_vertices=4, max_edges=4, random_count=10)),
        ("kind_agreement_suite", dict(max_vertices=4, max_edges=4, gain_bound=1)),
        ("signed_suite", dict(random_count=10, threshold_max_vertices=4)),
    ],
    "lowdim": [
        (
            "lowdim_suite",
            dict(
                three_lines_total=8,
                many_lines_max=6,
                q_powers_total=6,
                q_gain_bound=2,
            ),
        ),
        ("coincidence_suite", dict(gain_bound=1)),
    ],
}

# Sizes for the smoke test: every suite still runs, on the smallest corpus.
TINY_SUITES = {
    "oracles": [
        (
            "cross_oracle_suite",
            dict(
                exhaustive_max_vertices=2,
                exhaustive_max_edges=1,
                gain_bound=1,
                z4_samples=1,
                f2_4_samples=0,
            ),
        ),
    ],
    "sweep": [
        ("chi_identity_suite", dict(max_vertices=3, max_edges=3, random_count=1)),
        ("kind_agreement_suite", dict(max_vertices=3, max_edges=3, gain_bound=1)),
        (
            "signed_suite",
            dict(exhaustive_vertices=3, random_count=1, threshold_max_vertices=3),
        ),
    ],
    "lowdim": [
        (
            "lowdim_suite",
            dict(
                three_lines_total=5,
                many_lines_max=3,
                q_powers_total=3,
                q_gain_bound=1,
            ),
        ),
        ("coincidence_suite", dict(gain_bound=0)),
    ],
}

# Checks whose instances come from the seeded generator; the rest of a
# report is the same for every seed.
SEEDED_CHECKS = ("z-sampled-l4", "f2-sampled-l4", "z-random-large", "random-l5")

# What each workload is for, printed at the start of every run.
NOTES = {
    "oracles": "stresses intersection_poset (SpanTracker closure) and the "
    "finite-field oracle; bypasses the freeness deciders",
    "sweep": "stresses deletion-contraction chi, the memo caches, the "
    "freeness deciders and IntPolynomial arithmetic; bypasses the poset",
    "lowdim": "stresses dense rank_of_rows/rref/nullspace over Q and Q(q) "
    "through exp2_solver and yoshinaga_free3; bypasses the deciders",
    "cli": "stresses interpreter start-up, graphio, certificate assembly, "
    "replay_certificate and JSON output, one fresh process per call",
}

MIN_CLI_CALLS = 100

# Fixed graphs: Shi arrangement of rank 3 over Z and a signed 4-cycle.
FIXED_GRAPHS = {
    "shi3": "group Z\nvertices 3\nedge 1 2 0\nedge 1 2 1\nedge 1 3 0\n"
    "edge 1 3 1\nedge 2 3 0\nedge 2 3 1\n",
    "cycle4": "group F 2\nvertices 4\nedge 1 2 0\nedge 1 4 1\nedge 2 3 0\n"
    "edge 3 4 0\n",
}


def _pairs(l):
    return [(i, j) for i in range(1, l + 1) for j in range(i + 1, l + 1)]


def _text(group, l, edges):
    head = "group Z" if group == "Z" else "group F 2"
    lines = [head, f"vertices {l}"] + [f"edge {i} {j} {g}" for i, j, g in edges]
    return "\n".join(lines) + "\n"


def z_graph(rng, l, k, gain_bound):
    ground = [
        (i, j, g) for i, j in _pairs(l) for g in range(-gain_bound, gain_bound + 1)
    ]
    return _text("Z", l, sorted(rng.sample(ground, k)))


def f2_graph(rng, l, k):
    ground = [(i, j, g) for i, j in _pairs(l) for g in (0, 1)]
    return _text("F2", l, sorted(rng.sample(ground, k)))


def z_forest(rng, l, gain_bound):
    """A random spanning tree: always free, so its certificates replay."""
    edges = []
    for v in range(2, l + 1):
        u = rng.randrange(1, v)
        edges.append((u, v, rng.randint(-gain_bound, gain_bound)))
    return _text("Z", l, sorted(edges))


def cli_inputs(seed, tiny=False):
    """Graph texts by file name, and the call cycle as argument lists.

    Every graph of a slot has the same vertex and edge count whatever the
    seed, so the cost of a cycle moves little from seed to seed.
    """
    rng = random.Random(seed)
    graphs = dict(FIXED_GRAPHS)
    graphs["z3"] = z_graph(rng, 3, 4, 1)
    graphs["z4"] = z_graph(rng, 4, 5, 1)
    graphs["tree4"] = z_forest(rng, 4, 2)
    graphs["f4"] = f2_graph(rng, 4, 6)
    graphs["f5"] = f2_graph(rng, 5, 6)
    calls = [["chi", "z3"], ["chi", "z4"], ["chi", "f4"], ["chi", "shi3"]]
    for name in ("z4", "tree4"):
        for mode in ("if-edges", "df-edges"):
            for kind in ("cone", "bias"):
                calls.append(["free", "--mode", mode, "--kind", kind, name])
    calls += [["free", "--mode", "df-edges", "--kind", "bias", "f4"]]
    calls += [["signed-check", "f4"], ["signed-check", "f5"], ["signed-check", "cycle4"]]
    calls += [["free3", "z3"], ["free3", "shi3"]]
    if tiny:
        calls = [calls[0], calls[8], calls[13], calls[16]]
    return graphs, calls
