"""Exhaustive cross-checking verification suites.

Each suite sweeps a deterministic corpus, compares independent computations
of the same quantity, and returns a JSON-ready report.  Reports embed the
tool version, the seed, and every bound, and contain nothing run-dependent,
so identical configuration yields byte-identical output.  A failing check
records the instance (greedily minimized when it is a graph), the expected
value, and the value obtained.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .arrangement import (
    build_affinographic,
    build_bias,
    build_cone,
    make_arrangement,
    make_hyperplane,
)
from .charpoly import (
    chi_finite_field_oracle,
    chi_gaingraph_recursive,
    chi_of_kind,
    chi_poset,
    region_count,
)
from .corpus import (
    complete_positive_graphs,
    iter_digraph_arc_sets,
    iter_f2_graphs,
    iter_z_graphs,
    random_f2_graph,
    random_z_graph,
    three_vertex_instances,
    z_ground_set,
)
from .errors import VerificationError
from .families import (
    Digraph,
    ab_free_criterion,
    ab_supersolvable_criterion,
    digraph_to_gaingraph,
    make_family,
    raney,
)
from .freeness import df_along_edges, freeness_verdicts, if_along_edges
from .gaingraph import GROUP_Z, GainGraph, contract_edge, delete_edge, group_f
from .intpoly import IntPolynomial, T
from .lowdim import (
    coincidence_3dim,
    exp2_closed_form,
    exp2_solver,
    exponent_shift_matches,
    make_multiarrangement2d,
    schur_bialternant_check,
    yoshinaga_free3,
)
from .scalars import QQ, QQ_Q
from .signed import (
    OBSTRUCTION_4,
    SimpleGraph,
    edelman_reiner_freeness,
    is_threshold,
    signed_freeness_criterion,
)
from .version import __version__

DEFAULT_SEED = 20260816

F2 = group_f(2)


def group_label(group):
    return group if group == GROUP_Z else f"F{group[1]}"


def graph_summary(graph):
    return {
        "edges": [list(e) for e in graph.edges],
        "group": group_label(graph.group),
        "vertices": len(graph.vertices),
    }


def minimize_failing_graph(graph, still_fails):
    """Shrink a counterexample by greedy edge deletion.

    Repeatedly deletes any single edge whose removal keeps still_fails
    true, until no deletion does.  The result is the useful artifact of a
    falsified check: a locally minimal failing instance.
    """
    g = graph
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            cand = delete_edge(g, e)
            if still_fails(cand):
                g = cand
                changed = True
                break
    return g


def _fail(check, instance, expected, got):
    return {"check": check, "expected": expected, "got": got, "instance": instance}


class _Suite:
    def __init__(self, name, seed, bounds):
        self.name = name
        self.seed = seed
        self.bounds = bounds
        self.checks = []
        self.failures = []

    def check(self, name, instances, fails):
        self.checks.append(
            {"failures": len(fails), "instances": instances, "name": name}
        )
        self.failures.extend(fails)

    def report(self):
        return {
            "bounds": self.bounds,
            "checks": self.checks,
            "failures": self.failures,
            "passed": not self.failures,
            "seed": self.seed,
            "suite": self.name,
            "version": __version__,
        }


# ---------------------------------------------------------------------------
# shift identity between the two characteristic polynomials


def _identity_fails(g):
    a = chi_gaingraph_recursive(g, "affinographic")
    b = chi_gaingraph_recursive(g, "bias")
    return a != b.shift(1) or (bool(a.coeffs) and a.coeffs[0] != 0)


def _identity_failure(g, check):
    bad = minimize_failing_graph(g, _identity_fails)
    a = chi_gaingraph_recursive(bad, "affinographic")
    b = chi_gaingraph_recursive(bad, "bias")
    return _fail(check, graph_summary(bad), str(b.shift(1)), str(a))


def _scan_identity_z(l, max_edges, gain_bound, stride, id_fails, cross_fails):
    """Incremental sweep of every gain graph on 1..l within the bounds.

    Walks edge subsets in ascending ground-set order.  Adding edge e on
    top of subset S turns chi(S) into chi(S + e) = chi(S) - chi((S + e)/e),
    so each node costs one contraction instead of a full recursion.  Every
    stride-th node is recomputed from scratch through the library path,
    which pivots differently, as an independent cross-check.
    """
    verts = tuple(range(1, l + 1))
    ground = z_ground_set(l, gain_bound)
    counts = [0, 0]

    def rec(start, edges, chi_a, chi_b):
        counts[0] += 1
        if chi_a != chi_b.shift(1) or chi_a.coeffs[0] != 0:
            g = GainGraph._make((GROUP_Z, verts, edges))
            id_fails.append(_identity_failure(g, "shift-identity"))
        if stride and counts[0] % stride == 0:
            g = GainGraph._make((GROUP_Z, verts, edges))
            ra = chi_gaingraph_recursive(g, "affinographic")
            rb = chi_gaingraph_recursive(g, "bias")
            counts[1] += 1
            if ra != chi_a or rb != chi_b:
                cross_fails.append(
                    _fail(
                        "incremental-vs-recursive",
                        graph_summary(g),
                        f"{ra}; {rb}",
                        f"{chi_a}; {chi_b}",
                    )
                )
        if len(edges) == max_edges:
            return
        for k in range(start, len(ground)):
            e = ground[k]
            child_edges = edges + (e,)
            child = GainGraph._make((GROUP_Z, verts, child_edges))
            contracted = contract_edge(child, e)
            rec(
                k + 1,
                child_edges,
                chi_a - chi_gaingraph_recursive(contracted, "affinographic"),
                chi_b - chi_gaingraph_recursive(contracted, "bias"),
            )

    rec(0, (), IntPolynomial.t_power(l), IntPolynomial.from_roots([1] * l))
    return counts


def chi_identity_suite(
    max_vertices=4,
    max_edges=6,
    gain_bound=2,
    cross_stride=997,
    random_count=500,
    seed=DEFAULT_SEED,
):
    """chi of the difference arrangement equals chi of the bias arrangement
    shifted by one, and t divides the former, over the exhaustive corpus,
    all small signed graphs, and seeded random larger graphs."""
    s = _Suite(
        "chi-identity",
        seed,
        {
            "cross_stride": cross_stride,
            "gain_bound": gain_bound,
            "max_edges": max_edges,
            "max_vertices": max_vertices,
            "random_count": random_count,
        },
    )
    for l in range(1, max_vertices + 1):
        id_fails, cross_fails = [], []
        graphs, crosses = _scan_identity_z(
            l, max_edges, gain_bound, cross_stride, id_fails, cross_fails
        )
        s.check(f"z-exhaustive-l{l}", graphs, id_fails)
        s.check(f"z-cross-check-l{l}", crosses, cross_fails)
    for l in range(1, max_vertices + 1):
        fails = []
        n = 0
        for g in iter_f2_graphs(l):
            n += 1
            if _identity_fails(g):
                fails.append(_identity_failure(g, "shift-identity"))
        s.check(f"f2-exhaustive-l{l}", n, fails)
    rng = random.Random(seed)
    fails = []
    for _ in range(random_count):
        g = random_z_graph(rng, rng.choice((5, 6)), 10, 4)
        if _identity_fails(g):
            fails.append(_identity_failure(g, "shift-identity"))
    s.check("z-random-large", random_count, fails)
    return s.report()


# ---------------------------------------------------------------------------
# independent oracles for the characteristic polynomial


def cross_oracle_suite(
    exhaustive_max_vertices=3,
    exhaustive_max_edges=4,
    gain_bound=2,
    z4_samples=80,
    f2_4_samples=40,
    seed=DEFAULT_SEED,
):
    """Recursive chi against the intersection-poset Moebius computation for
    all three arrangements, and against finite-field point counting for
    integer gains."""
    s = _Suite(
        "cross-oracle",
        seed,
        {
            "exhaustive_max_edges": exhaustive_max_edges,
            "exhaustive_max_vertices": exhaustive_max_vertices,
            "f2_4_samples": f2_4_samples,
            "gain_bound": gain_bound,
            "z4_samples": z4_samples,
        },
    )

    def audit(g, with_ff, fails):
        rows = [
            (
                "poset-affinographic",
                chi_poset(build_affinographic(g)),
                chi_gaingraph_recursive(g, "affinographic"),
            ),
            ("poset-bias", chi_poset(build_bias(g)), chi_gaingraph_recursive(g, "bias")),
            (
                "poset-cone",
                chi_poset(build_cone(build_affinographic(g))),
                chi_of_kind(g, "cone"),
            ),
        ]
        if with_ff:
            rows.append(
                (
                    "finite-field",
                    chi_finite_field_oracle(g),
                    chi_gaingraph_recursive(g, "affinographic"),
                )
            )
        for name, got, want in rows:
            if got != want:
                fails.append(_fail(name, graph_summary(g), str(want), str(got)))

    for l in range(1, exhaustive_max_vertices + 1):
        fails = []
        n = 0
        for g in iter_z_graphs(l, exhaustive_max_edges, gain_bound):
            n += 1
            audit(g, True, fails)
        s.check(f"z-exhaustive-l{l}", n, fails)
    rng = random.Random(seed)
    fails = []
    for _ in range(z4_samples):
        audit(random_z_graph(rng, 4, 6, gain_bound), True, fails)
    s.check("z-sampled-l4", z4_samples, fails)
    for l in range(1, 4):
        fails = []
        n = 0
        for g in iter_f2_graphs(l):
            n += 1
            audit(g, False, fails)
        s.check(f"f2-exhaustive-l{l}", n, fails)
    fails = []
    for _ in range(f2_4_samples):
        audit(random_f2_graph(rng, 4), False, fails)
    s.check("f2-sampled-l4", f2_4_samples, fails)
    return s.report()


# ---------------------------------------------------------------------------
# agreement of freeness verdicts between the cone and the bias arrangement


def _kinds_disagree(g):
    v = freeness_verdicts(g)
    return (
        v["if"]["cone"] != v["if"]["bias"]
        or v["df"]["cone"] != v["df"]["bias"]
        or any(v["if"][k] and not v["df"][k] for k in ("cone", "bias"))
    )


def kind_agreement_suite(max_vertices=4, max_edges=6, gain_bound=1, seed=DEFAULT_SEED):
    """Inductive and divisional verdicts agree between the coned difference
    arrangement and the bias arrangement, and inductive implies divisional,
    instance by instance."""
    s = _Suite(
        "kind-agreement",
        seed,
        {
            "gain_bound": gain_bound,
            "max_edges": max_edges,
            "max_vertices": max_vertices,
        },
    )

    def audit(g, fails):
        v = freeness_verdicts(g)
        bad = []
        if v["if"]["cone"] != v["if"]["bias"]:
            bad.append(("if-kind-agreement", str(v["if"]["cone"]), str(v["if"]["bias"])))
        if v["df"]["cone"] != v["df"]["bias"]:
            bad.append(("df-kind-agreement", str(v["df"]["cone"]), str(v["df"]["bias"])))
        for kind in ("cone", "bias"):
            if v["if"][kind] and not v["df"][kind]:
                bad.append((f"if-implies-df-{kind}", "True", "False"))
        if bad:
            small = minimize_failing_graph(g, _kinds_disagree)
            for check, want, got in bad:
                fails.append(_fail(check, graph_summary(small), want, got))

    for l in range(1, max_vertices + 1):
        fails = []
        n = 0
        for g in iter_z_graphs(l, max_edges, gain_bound):
            n += 1
            audit(g, fails)
        s.check(f"z-exhaustive-l{l}", n, fails)
    for l in range(1, max_vertices + 1):
        fails = []
        n = 0
        for g in iter_f2_graphs(l):
            n += 1
            audit(g, fails)
        s.check(f"f2-exhaustive-l{l}", n, fails)
    return s.report()


# ---------------------------------------------------------------------------
# arrangement families: digraph criteria, exponent and chamber closed forms


def families_suite(max_digraph_vertices=5, max_family_rank=4, seed=DEFAULT_SEED):
    """Digraph freeness criteria against the edge deciders, and the closed
    forms for the deformation families: exponents, chamber counts, and
    generalized Catalan numbers."""
    s = _Suite(
        "families",
        seed,
        {
            "max_digraph_vertices": max_digraph_vertices,
            "max_family_rank": max_family_rank,
        },
    )
    fails = []
    n = 0
    for l in range(1, max_digraph_vertices + 1):
        for arcs in iter_digraph_arc_sets(l):
            dg = Digraph.make(l, arcs)
            g = digraph_to_gaingraph(dg)
            ab = ab_free_criterion(dg)
            got_cone = if_along_edges(g, "cone").verdict
            got_bias = if_along_edges(g, "bias").verdict
            inst = {"arcs": [list(a) for a in arcs], "vertices": l}
            n += 1
            if not ab == got_cone == got_bias:
                fails.append(
                    _fail(
                        "digraph-criterion-vs-deciders",
                        inst,
                        str(ab),
                        f"cone={got_cone}, bias={got_bias}",
                    )
                )
            if ab_supersolvable_criterion(dg) and not ab:
                fails.append(_fail("supersolvable-implies-free", inst, "True", "False"))
    s.check("digraphs-exhaustive", n, fails)

    grid = [
        (l, m) for l in range(2, max_family_rank + 1) for m in (1, 2)
    ]
    for l, m in grid:
        fails = []
        g = make_family("dms", l, m)
        chi = chi_of_kind(g, "bias")
        want = IntPolynomial.from_roots([1] + [m * l + k for k in range(2, l + 1)])
        if chi != want:
            fails.append(
                _fail("dms-exponents", {"l": l, "m": m}, str(want), str(chi))
            )
        regions = region_count(chi)
        want_regions = math.factorial(l) * raney(l, m + 1, 2)
        if regions != want_regions:
            fails.append(
                _fail(
                    "dms-chambers", {"l": l, "m": m}, str(want_regions), str(regions)
                )
            )
        for decider, fn in (("if", if_along_edges), ("df", df_along_edges)):
            cert = fn(g, "bias")
            if not cert.verdict:
                fails.append(
                    _fail(f"dms-{decider}-free", {"l": l, "m": m}, "True", "False")
                )
        s.check(f"dms-l{l}-m{m}", 4, fails)
    for l, m in grid:
        fails = []
        g = make_family("shi", l, m)
        chi = chi_of_kind(g, "bias")
        want = IntPolynomial.from_roots([1] + [m * l + 1] * (l - 1))
        if chi != want:
            fails.append(
                _fail("shi-exponents", {"l": l, "m": m}, str(want), str(chi))
            )
        s.check(f"shi-l{l}-m{m}", 1, fails)
    for l, m in grid:
        fails = []
        g = make_family("catalan", l, m)
        regions = region_count(chi_of_kind(g, "affinographic"))
        want = math.factorial(l) * raney(l, m + 1, 1)
        if regions != want:
            fails.append(
                _fail("catalan-chambers", {"l": l, "m": m}, str(want), str(regions))
            )
        s.check(f"catalan-chambers-l{l}-m{m}", 1, fails)
    fails = []
    for l in range(2, max_family_rank + 1):
        chi = chi_of_kind(make_family("coxeter", l), "affinographic")
        want = IntPolynomial.from_roots(list(range(l)))
        if chi != want:
            fails.append(_fail("coxeter-chi", {"l": l}, str(want), str(chi)))
        chi = chi_of_kind(make_family("boolean", l), "bias")
        want = IntPolynomial.from_roots([1] * l)
        if chi != want:
            fails.append(_fail("boolean-bias-chi", {"l": l}, str(want), str(chi)))
    s.check("base-families-chi", 2 * (max_family_rank - 1), fails)
    return s.report()


# ---------------------------------------------------------------------------
# signed graphs: the freeness characterization and the threshold layer


def _signed_disagrees(g):
    crit = signed_freeness_criterion(g)
    return (
        crit != df_along_edges(g, "bias").verdict
        or crit != df_along_edges(g, "cone").verdict
    )


def signed_suite(
    exhaustive_vertices=4,
    random_count=500,
    threshold_max_vertices=5,
    seed=DEFAULT_SEED,
):
    """The combinatorial freeness characterization for signed graphs against
    both edge deciders, pinned characteristic values, and the threshold
    characterization when the positive part is complete."""
    s = _Suite(
        "signed",
        seed,
        {
            "exhaustive_vertices": exhaustive_vertices,
            "random_count": random_count,
            "threshold_max_vertices": threshold_max_vertices,
        },
    )

    def audit(g, fails):
        crit = signed_freeness_criterion(g)
        got_bias = df_along_edges(g, "bias").verdict
        got_cone = df_along_edges(g, "cone").verdict
        if not crit == got_bias == got_cone:
            small = minimize_failing_graph(g, _signed_disagrees)
            fails.append(
                _fail(
                    "signed-criterion-vs-deciders",
                    graph_summary(small),
                    str(signed_freeness_criterion(small)),
                    f"bias={df_along_edges(small, 'bias').verdict}, "
                    f"cone={df_along_edges(small, 'cone').verdict}",
                )
            )

    for l in range(1, exhaustive_vertices + 1):
        fails = []
        n = 0
        for g in iter_f2_graphs(l):
            n += 1
            audit(g, fails)
        s.check(f"exhaustive-l{l}", n, fails)
    rng = random.Random(seed)
    fails = []
    for _ in range(random_count):
        audit(random_f2_graph(rng, 5), fails)
    s.check("random-l5", random_count, fails)

    fails = []
    tri = GainGraph(F2, (1, 2, 3), ((1, 2, 0), (1, 3, 1), (2, 3, 0)))
    chi = chi_gaingraph_recursive(tri, "affinographic")
    want = T * IntPolynomial((3, -3, 1))
    if chi != want:
        fails.append(
            _fail("unbalanced-triangle-chi", graph_summary(tri), str(want), str(chi))
        )
    chi = chi_gaingraph_recursive(OBSTRUCTION_4, "affinographic")
    want = T * IntPolynomial((-2, 1)) * IntPolynomial((10, -6, 1))
    if chi != want:
        fails.append(
            _fail(
                "obstruction-chi", graph_summary(OBSTRUCTION_4), str(want), str(chi)
            )
        )
    for l in range(1, 6):
        g = GainGraph(F2, tuple(range(1, l + 1)), ())
        chi = chi_gaingraph_recursive(g, "bias")
        want = IntPolynomial.from_roots([1] * l)
        if chi != want:
            fails.append(
                _fail("edgeless-bias-chi", graph_summary(g), str(want), str(chi))
            )
    s.check("pinned-characteristic-values", 7, fails)

    for l in range(1, threshold_max_vertices + 1):
        fails = []
        n = 0
        for g, neg in complete_positive_graphs(l):
            n += 1
            er = edelman_reiner_freeness(g)
            th = is_threshold(SimpleGraph.make(range(1, l + 1), neg))
            got = df_along_edges(g, "bias").verdict
            if not er == th == got:
                fails.append(
                    _fail(
                        "threshold-vs-deciders",
                        {"negative_edges": [list(e) for e in neg], "vertices": l},
                        str(th),
                        f"edelman_reiner={er}, df_bias={got}",
                    )
                )
        s.check(f"complete-positive-l{l}", n, fails)
    return s.report()


# ---------------------------------------------------------------------------
# rank-2 multiarrangements and rank-3 freeness fixtures


def _lowdim_compare(multi, which, inst, verify, fails):
    want = exp2_closed_form(multi, which)
    try:
        got = exp2_solver(multi, verify=verify)
    except VerificationError as exc:
        fails.append(_fail(f"{which}-saito", inst, str(want), str(exc)))
        return
    if got != want:
        fails.append(_fail(f"{which}-exponents", inst, str(want), str(got)))


def lowdim_suite(
    three_lines_total=12,
    many_lines_max=8,
    q_powers_total=10,
    q_gain_bound=3,
    verify_stride=16,
    seed=DEFAULT_SEED,
):
    """Solved rank-2 multiarrangement exponents against every closed form,
    with periodic certificate verification, plus the determinant identity
    for alternants and the rank-3 freeness fixtures."""
    s = _Suite(
        "lowdim",
        seed,
        {
            "many_lines_max": many_lines_max,
            "q_gain_bound": q_gain_bound,
            "q_powers_total": q_powers_total,
            "three_lines_total": three_lines_total,
            "verify_stride": verify_stride,
        },
    )
    F = Fraction
    lines3 = ((F(1), F(0)), (F(0), F(1)), (F(1), F(-1)))
    fails = []
    n = 0
    for m1 in range(1, three_lines_total - 1):
        for m2 in range(1, m1 + 1):
            for m3 in range(1, m2 + 1):
                if m1 + m2 + m3 > three_lines_total:
                    continue
                for perm in sorted(set(itertools.permutations((m1, m2, m3)))):
                    multi = make_multiarrangement2d(QQ, list(zip(lines3, perm)))
                    n += 1
                    _lowdim_compare(
                        multi,
                        "three_lines",
                        {"multiplicities": list(perm)},
                        n % verify_stride == 0,
                        fails,
                    )
    s.check("three-lines-grid", n, fails)

    def slopes(k):
        out = [(F(1), F(0)), (F(0), F(1))]
        c = 1
        while len(out) < k:
            out.append((F(1), F(-c)))
            c += 1
        return out[:k]

    def mult_multisets(k, total):
        def rec(rem, parts, cap):
            if len(parts) == k:
                if rem == 0:
                    yield tuple(parts)
                return
            hi = min(cap, rem - (k - len(parts) - 1))
            for v in range(hi, 0, -1):
                yield from rec(rem - v, parts + [v], v)

        yield from rec(total, [], total)

    fails = []
    n = 0
    for k in range(2, many_lines_max + 1):
        for total in range(k, 2 * k - 1):
            for mults in mult_multisets(k, total):
                multi = make_multiarrangement2d(QQ, list(zip(slopes(k), mults)))
                n += 1
                _lowdim_compare(
                    multi,
                    "many_lines",
                    {"lines": k, "multiplicities": list(mults)},
                    n % verify_stride == 0,
                    fails,
                )
    s.check("many-lines-grid", n, fails)

    D = QQ_Q
    fails = []
    n = 0
    for u in range(0, 2 * q_gain_bound + 2):
        for gains in itertools.combinations(range(-q_gain_bound, q_gain_bound + 1), u):
            for t_ in range(0, q_powers_total + 1):
                for s_ in range(0, t_ + 1):
                    if not s_ <= t_ <= u or s_ + t_ + u > q_powers_total:
                        continue
                    pairs = [((D.one, D.zero), s_ + 1), ((D.zero, D.one), t_ + 1)]
                    pairs += [((D.one, D.neg(D.q_power(g))), 1) for g in gains]
                    multi = make_multiarrangement2d(D, pairs)
                    n += 1
                    _lowdim_compare(
                        multi,
                        "q_powers",
                        {"gains": list(gains), "s": s_, "t": t_},
                        n % verify_stride == 0,
                        fails,
                    )
    s.check("q-powers-grid", n, fails)

    fails = []
    n = 0
    for partition in ((), (1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2, 1)):
        for gains in ((0, 1), (0, 1, 2), (-1, 1, 2), (0, 1, 2, 3)):
            if len(gains) < len(partition):
                continue
            n += 1
            try:
                schur_bialternant_check(partition, gains)
            except VerificationError as exc:
                fails.append(
                    _fail(
                        "schur-bialternant",
                        {"gains": list(gains), "partition": list(partition)},
                        "alternant = schur * vandermonde",
                        str(exc),
                    )
                )
    s.check("schur-bialternant", n, fails)

    fails = []
    F0 = Fraction(0)
    bool3 = make_arrangement(
        QQ,
        3,
        [
            make_hyperplane(QQ, (F(1), F(0), F(0)), F0),
            make_hyperplane(QQ, (F(0), F(1), F(0)), F0),
            make_hyperplane(QQ, (F(0), F(0), F(1)), F0),
        ],
    )
    free, payload = yoshinaga_free3(bool3, bool3.hyperplanes[0])
    if not free or payload != (1, 1, 1):
        fails.append(_fail("rank3-boolean", {"fixture": "boolean3"}, "(1, 1, 1)", str(payload)))
    b3_hps = [
        make_hyperplane(QQ, tuple(F(1) if k == i else F(0) for k in range(3)), F0)
        for i in range(3)
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            for sign in (F(1), F(-1)):
                c = [F(0)] * 3
                c[i] = F(1)
                c[j] = sign
                b3_hps.append(make_hyperplane(QQ, tuple(c), F0))
    b3 = make_arrangement(QQ, 3, b3_hps)
    for h in b3.hyperplanes:
        free, payload = yoshinaga_free3(b3, h)
        if not free or payload != (1, 3, 5):
            fails.append(
                _fail("rank3-type-b", {"fixture": "b3"}, "(1, 3, 5)", str(payload))
            )
    gen = make_arrangement(
        QQ,
        3,
        [
            make_hyperplane(QQ, (F(1), F(0), F(0)), F0),
            make_hyperplane(QQ, (F(0), F(1), F(0)), F0),
            make_hyperplane(QQ, (F(0), F(0), F(1)), F0),
            make_hyperplane(QQ, (F(1), F(1), F(1)), F0),
            make_hyperplane(QQ, (F(1), F(2), F(3)), F0),
        ],
    )
    free, why = yoshinaga_free3(gen, gen.hyperplanes[0])
    if free:
        fails.append(_fail("rank3-generic", {"fixture": "generic5"}, "not free", "free"))
    s.check("rank3-fixtures", 2 + len(b3.hyperplanes), fails)
    return s.report()


# ---------------------------------------------------------------------------
# three-vertex coincidence of freeness between the two arrangements


def coincidence_suite(gain_bound=2, max_per_pair=3, seed=DEFAULT_SEED):
    """Freeness of the coned difference arrangement coincides with freeness
    of the bias arrangement for every three-vertex instance, with the
    exponent shift holding whenever both are free."""
    s = _Suite(
        "coincidence",
        seed,
        {"gain_bound": gain_bound, "max_per_pair": max_per_pair},
    )
    fails = []
    n = 0
    free = 0
    for g in three_vertex_instances(gain_bound, max_per_pair):
        n += 1
        res = coincidence_3dim(g)
        if res.free_cone != res.free_bias:
            fails.append(
                _fail(
                    "verdict-coincidence",
                    graph_summary(g),
                    "equal verdicts",
                    f"cone={res.free_cone}, bias={res.free_bias}",
                )
            )
            continue
        if res.free_cone:
            free += 1
            if not exponent_shift_matches(res):
                fails.append(
                    _fail(
                        "exponent-shift",
                        graph_summary(g),
                        f"bias exponents from cone {res.detail_cone}",
                        str(res.detail_bias),
                    )
                )
    s.check("three-vertex-instances", n, fails)
    s.check("free-instances", free, [])
    return s.report()


SUITES = {
    "chi-identity": chi_identity_suite,
    "coincidence": coincidence_suite,
    "cross-oracle": cross_oracle_suite,
    "families": families_suite,
    "kind-agreement": kind_agreement_suite,
    "lowdim": lowdim_suite,
    "signed": signed_suite,
}


def run_suite(name, seed=DEFAULT_SEED):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed=seed)
