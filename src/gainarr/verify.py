"""Exhaustive cross-checking verification suites.

Each suite sweeps a deterministic corpus, compares independent computations
of the same quantity, and returns a JSON-ready report.  Reports embed the
tool version, the seed, and every bound, and contain nothing run-dependent,
so identical configuration yields byte-identical output.  A suite's bounds
are its keyword arguments other than seed.

Every check is stated once.  An audit maps one instance to its list of
failures, each recording the instance, the expected value and the value
obtained, and _Suite.sweep runs an audit over a corpus.  A graph check is
a single function problems(g) returning (check, expected, got) triples;
_minimized turns it into an audit that shrinks a failing graph with
problems as the predicate and reports the minimized graph together with
that graph's own problems.
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
    DEFAULT_MAX_HYPERPLANES,
    _chi_rec,
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
from .freeness import freeness_verdicts
from .gaingraph import F2, GROUP_Z, GainGraph, contract_edge, delete_edge
from .intpoly import IntPolynomial, T
from .lowdim import (
    coincidence_3dim,
    exp2_many_lines,
    exp2_q_powers,
    exp2_solver,
    exp2_three_lines,
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


def _expect(check, instance, expected, got):
    """No failure when got equals expected, else one with both as strings."""
    return [] if got == expected else [_fail(check, instance, str(expected), str(got))]


def _failures(g, found):
    return [_fail(check, graph_summary(g), want, got) for check, want, got in found]


def _minimized(problems):
    """The audit of a graph check: a failing graph is greedily minimized with
    problems as the predicate and reported with the minimized graph's own
    problems."""

    def audit(g):
        found = problems(g)
        if found:
            g = minimize_failing_graph(g, problems)
            found = problems(g)
        return _failures(g, found)

    return audit


def _bounds(arguments):
    """A suite's bounds: its keyword arguments other than seed."""
    return {k: v for k, v in sorted(arguments.items()) if k != "seed"}


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

    def sweep(self, name, instances, audit):
        """Record check name over instances, collecting the failures that
        audit returns for each; returns the instance count."""
        n = 0
        fails = []
        for instance in instances:
            n += 1
            fails.extend(audit(instance))
        self.check(name, n, fails)
        return n

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


def _identity_holds(a, b):
    return a == b.shift(1) and not (a.coeffs and a.coeffs[0])


def _identity_problems(g):
    a, b = _chi_rec(g)
    if _identity_holds(a, b):
        return []
    return [("shift-identity", str(b.shift(1)), str(a))]


def _identity_failure(g, chi_a, chi_b):
    """The failures to record when the incrementally computed chi_a and
    chi_b of g break the shift identity: the minimized library failure when
    the library chi of g fails too, else g itself with the incremental
    chi_b(t + 1) expected and the incremental chi_a obtained."""
    return _minimized(_identity_problems)(g) or [
        _fail("shift-identity", graph_summary(g), str(chi_b.shift(1)), str(chi_a))
    ]


def _identity_scan(l, max_edges, gain_bound):
    """Every gain graph on 1..l within the bounds, with both its chi.

    Walks edge subsets depth first in ascending ground-set order, yielding
    (graph, affinographic chi, bias chi).  Adding edge e on top of subset S
    turns chi(S) into chi(S + e) = chi(S) - chi((S + e)/e): one memo lookup.
    contract_edge maps each class on its own, to a class or to a loop (as e
    itself), then drops the loops and merges duplicates.  So (S + e)/e is
    the set of the images of S's classes, read from a table that
    contract_edge fills once per scan on the two-class graphs (f, e), on
    1..l-1: relabeling in order keeps every class canonical, the edge
    order and chi, and lets contractions on other vertex sets share keys.
    """
    verts = tuple(range(1, l + 1))
    ground = z_ground_set(l, gain_bound)
    table = []
    for k, e in enumerate(ground):
        lower = {v: v - (v > e[0]) for v in verts}
        twos = [GainGraph._make((GROUP_Z, verts, (f, e))) for f in ground[:k]]
        image = {t.edges[0]: contract_edge(t, e).edges for t in twos}
        # a class that became a loop has no edge and drops out
        image = {f: (lower[a], lower[b], g) for f, c in image.items() for a, b, g in c}
        table.append((k + 1, e, image))
    rest = verts[:-1]
    empty = GainGraph._make((GROUP_Z, verts, ()))
    stack = [(0, empty, IntPolynomial.t_power(l), IntPolynomial.from_roots([1] * l))]
    while stack:
        start, g, chi_a, chi_b = stack.pop()
        yield g, chi_a, chi_b
        if len(g.edges) == max_edges:
            continue
        # pushed last to first, so the children pop in ascending order
        for after, e, image in reversed(table[start:]):
            merged = tuple(sorted({image[f] for f in g.edges if f in image}))
            a, b = _chi_rec(GainGraph._make((GROUP_Z, rest, merged)))
            child = GainGraph._make((GROUP_Z, verts, g.edges + (e,)))
            stack.append((after, child, chi_a - a, chi_b - b))


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
    all small signed graphs, and seeded random larger graphs.  Every
    cross_stride-th incrementally computed chi of the exhaustive corpus is
    recomputed from scratch through the library path, which pivots
    differently, as an independent cross-check."""
    s = _Suite("chi-identity", seed, _bounds(locals()))
    for l in range(1, max_vertices + 1):
        cross_fails = []

        def audit(node):
            n, (g, a, b) = node
            fails = [] if _identity_holds(a, b) else _identity_failure(g, a, b)
            if cross_stride and n % cross_stride == 0:
                ra, rb = _chi_rec(g)
                if ra != a or rb != b:
                    cross_fails.append(
                        _fail(
                            "incremental-vs-recursive",
                            graph_summary(g),
                            f"{ra}; {rb}",
                            f"{a}; {b}",
                        )
                    )
            return fails

        graphs = s.sweep(
            f"z-exhaustive-l{l}",
            enumerate(_identity_scan(l, max_edges, gain_bound), 1),
            audit,
        )
        crosses = graphs // cross_stride if cross_stride else 0
        s.check(f"z-cross-check-l{l}", crosses, cross_fails)
    identity = _minimized(_identity_problems)
    for l in range(1, max_vertices + 1):
        s.sweep(f"f2-exhaustive-l{l}", iter_f2_graphs(l), identity)
    rng = random.Random(seed)
    s.sweep(
        "z-random-large",
        (random_z_graph(rng, rng.choice((5, 6)), 10, 4) for _ in range(random_count)),
        identity,
    )
    return s.report()


# ---------------------------------------------------------------------------
# independent oracles for the characteristic polynomial


def _poset_problems(g, max_hyperplanes=DEFAULT_MAX_HYPERPLANES):
    """Recursive chi against the poset for all three arrangements; raises
    BoundExceeded when one is over max_hyperplanes or its domain is refused.
    The bias arrangement has the most members, so its poset comes first and
    a graph over the cap costs no poset."""
    affin = build_affinographic(g)
    arrs = {"bias": build_bias(g), "affinographic": affin, "cone": build_cone(affin)}
    got = {kind: chi_poset(arr, max_hyperplanes) for kind, arr in arrs.items()}
    want = {kind: chi_of_kind(g, kind) for kind in ("affinographic", "bias", "cone")}
    return [
        (f"poset-{kind}", str(chi), str(got[kind]))
        for kind, chi in want.items()
        if got[kind] != chi
    ]


def _oracle_problems(g):
    """The poset rows, and the finite-field row for integer gains."""
    found = _poset_problems(g)
    if g.group == GROUP_Z:
        want, got = chi_of_kind(g, "affinographic"), chi_finite_field_oracle(g)
        if got != want:
            found.append(("finite-field", str(want), str(got)))
    return found


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
    integer gains.  Failing graphs are reported as found, not minimized."""
    s = _Suite("cross-oracle", seed, _bounds(locals()))

    def audit(g):
        return _failures(g, _oracle_problems(g))

    for l in range(1, exhaustive_max_vertices + 1):
        s.sweep(
            f"z-exhaustive-l{l}",
            iter_z_graphs(l, exhaustive_max_edges, gain_bound),
            audit,
        )
    rng = random.Random(seed)
    s.sweep(
        "z-sampled-l4",
        (random_z_graph(rng, 4, 6, gain_bound) for _ in range(z4_samples)),
        audit,
    )
    for l in range(1, 4):
        s.sweep(f"f2-exhaustive-l{l}", iter_f2_graphs(l), audit)
    s.sweep(
        "f2-sampled-l4", (random_f2_graph(rng, 4) for _ in range(f2_4_samples)), audit
    )
    return s.report()


# ---------------------------------------------------------------------------
# agreement of freeness verdicts between the cone and the bias arrangement


def _kind_problems(g):
    v = freeness_verdicts(g)
    found = [
        (f"{d}-kind-agreement", str(v[d]["cone"]), str(v[d]["bias"]))
        for d in ("if", "df")
        if v[d]["cone"] != v[d]["bias"]
    ]
    for kind in ("cone", "bias"):
        if v["if"][kind] and not v["df"][kind]:
            found.append((f"if-implies-df-{kind}", "True", "False"))
    return found


def kind_agreement_suite(max_vertices=4, max_edges=6, gain_bound=1, seed=DEFAULT_SEED):
    """Inductive and divisional verdicts agree between the coned difference
    arrangement and the bias arrangement, and inductive implies divisional,
    instance by instance."""
    s = _Suite("kind-agreement", seed, _bounds(locals()))
    audit = _minimized(_kind_problems)
    for l in range(1, max_vertices + 1):
        s.sweep(f"z-exhaustive-l{l}", iter_z_graphs(l, max_edges, gain_bound), audit)
    for l in range(1, max_vertices + 1):
        s.sweep(f"f2-exhaustive-l{l}", iter_f2_graphs(l), audit)
    return s.report()


# ---------------------------------------------------------------------------
# arrangement families: digraph criteria, exponent and chamber closed forms


def _digraph_audit(instance):
    l, arcs = instance
    dg = Digraph.make(l, arcs)
    g = digraph_to_gaingraph(dg)
    ab = ab_free_criterion(dg)
    v = freeness_verdicts(g)["if"]
    got_cone, got_bias = v["cone"], v["bias"]
    inst = {"arcs": [list(a) for a in arcs], "vertices": l}
    fails = []
    if not ab == got_cone == got_bias:
        got = f"cone={got_cone}, bias={got_bias}"
        fails.append(_fail("digraph-criterion-vs-deciders", inst, str(ab), got))
    if ab_supersolvable_criterion(dg) and not ab:
        fails.append(_fail("supersolvable-implies-free", inst, "True", "False"))
    return fails


def families_suite(max_digraph_vertices=5, max_family_rank=4, seed=DEFAULT_SEED):
    """Digraph freeness criteria against the edge deciders, and the closed
    forms for the deformation families: exponents, chamber counts, and
    generalized Catalan numbers."""
    s = _Suite("families", seed, _bounds(locals()))
    s.sweep(
        "digraphs-exhaustive",
        (
            (l, arcs)
            for l in range(1, max_digraph_vertices + 1)
            for arcs in iter_digraph_arc_sets(l)
        ),
        _digraph_audit,
    )

    grid = [(l, m) for l in range(2, max_family_rank + 1) for m in (1, 2)]
    for l, m in grid:
        g = make_family("dms", l, m)
        inst = {"l": l, "m": m}
        chi = chi_of_kind(g, "bias")
        want = IntPolynomial.from_roots([1] + [m * l + k for k in range(2, l + 1)])
        fails = _expect("dms-exponents", inst, want, chi)
        want_regions = math.factorial(l) * raney(l, m + 1, 2)
        fails += _expect("dms-chambers", inst, want_regions, region_count(chi))
        v = freeness_verdicts(g)
        for decider in ("if", "df"):
            fails += _expect(f"dms-{decider}-free", inst, True, v[decider]["bias"])
        s.check(f"dms-l{l}-m{m}", 4, fails)
    for l, m in grid:
        chi = chi_of_kind(make_family("shi", l, m), "bias")
        want = IntPolynomial.from_roots([1] + [m * l + 1] * (l - 1))
        fails = _expect("shi-exponents", {"l": l, "m": m}, want, chi)
        s.check(f"shi-l{l}-m{m}", 1, fails)
    for l, m in grid:
        chi = chi_of_kind(make_family("catalan", l, m), "affinographic")
        want = math.factorial(l) * raney(l, m + 1, 1)
        fails = _expect("catalan-chambers", {"l": l, "m": m}, want, region_count(chi))
        s.check(f"catalan-chambers-l{l}-m{m}", 1, fails)
    fails = []
    for l in range(2, max_family_rank + 1):
        chi = chi_of_kind(make_family("coxeter", l), "affinographic")
        want = IntPolynomial.from_roots(list(range(l)))
        fails += _expect("coxeter-chi", {"l": l}, want, chi)
        chi = chi_of_kind(make_family("boolean", l), "bias")
        want = IntPolynomial.from_roots([1] * l)
        fails += _expect("boolean-bias-chi", {"l": l}, want, chi)
    s.check("base-families-chi", 2 * (max_family_rank - 1), fails)
    return s.report()


# ---------------------------------------------------------------------------
# signed graphs: the freeness characterization and the threshold layer


def _signed_problems(g):
    crit = signed_freeness_criterion(g)
    v = freeness_verdicts(g)["df"]
    got_bias, got_cone = v["bias"], v["cone"]
    if crit == got_bias == got_cone:
        return []
    got = f"bias={got_bias}, cone={got_cone}"
    return [("signed-criterion-vs-deciders", str(crit), got)]


def _threshold_audit(instance):
    g, neg = instance
    er = edelman_reiner_freeness(g)
    th = is_threshold(SimpleGraph.make(g.vertices, neg))
    got = freeness_verdicts(g)["df"]["bias"]
    if er == th == got:
        return []
    inst = {"negative_edges": [list(e) for e in neg], "vertices": len(g.vertices)}
    got = f"edelman_reiner={er}, df_bias={got}"
    return [_fail("threshold-vs-deciders", inst, str(th), got)]


def signed_suite(
    exhaustive_vertices=4,
    random_count=500,
    threshold_max_vertices=5,
    seed=DEFAULT_SEED,
):
    """The combinatorial freeness characterization for signed graphs against
    both edge deciders, pinned characteristic values, and the threshold
    characterization when the positive part is complete."""
    s = _Suite("signed", seed, _bounds(locals()))
    audit = _minimized(_signed_problems)
    for l in range(1, exhaustive_vertices + 1):
        s.sweep(f"exhaustive-l{l}", iter_f2_graphs(l), audit)
    rng = random.Random(seed)
    s.sweep("random-l5", (random_f2_graph(rng, 5) for _ in range(random_count)), audit)

    tri = GainGraph(F2, (1, 2, 3), ((1, 2, 0), (1, 3, 1), (2, 3, 0)))
    fails = _expect(
        "unbalanced-triangle-chi",
        graph_summary(tri),
        T * IntPolynomial((3, -3, 1)),
        chi_gaingraph_recursive(tri, "affinographic"),
    )
    fails += _expect(
        "obstruction-chi",
        graph_summary(OBSTRUCTION_4),
        T * IntPolynomial((-2, 1)) * IntPolynomial((10, -6, 1)),
        chi_gaingraph_recursive(OBSTRUCTION_4, "affinographic"),
    )
    for l in range(1, 6):
        g = GainGraph(F2, tuple(range(1, l + 1)), ())
        chi = chi_gaingraph_recursive(g, "bias")
        want = IntPolynomial.from_roots([1] * l)
        fails += _expect("edgeless-bias-chi", graph_summary(g), want, chi)
    s.check("pinned-characteristic-values", 7, fails)

    for l in range(1, threshold_max_vertices + 1):
        graphs = complete_positive_graphs(l)
        s.sweep(f"complete-positive-l{l}", graphs, _threshold_audit)
    return s.report()


# ---------------------------------------------------------------------------
# rank-2 multiarrangements and rank-3 freeness fixtures


def _exponents_audit(which, verify_stride):
    """Audit of numbered (multiarrangement, instance, closed form) triples:
    the solved exponents against the closed form, verifying every
    verify_stride-th solution's certificate; which names the checks."""

    def audit(numbered):
        n, (multi, inst, want) = numbered
        try:
            got = exp2_solver(multi, verify=n % verify_stride == 0)
        except VerificationError as exc:
            return [_fail(f"{which}-saito", inst, str(want), str(exc))]
        return _expect(f"{which}-exponents", inst, want, got)

    return audit


def _qq_rows(normals):
    return [tuple(map(Fraction, n)) for n in normals]


def _qq_central(normals):
    """The central arrangement over Q with the given integer normals."""
    hps = [make_hyperplane(QQ, n, Fraction(0)) for n in _qq_rows(normals)]
    return make_arrangement(QQ, len(normals[0]), hps)


def _three_lines(total):
    lines = _qq_rows(((1, 0), (0, 1), (1, -1)))
    for m1 in range(1, total - 1):
        for m2 in range(1, m1 + 1):
            for m3 in range(1, min(m2, total - m1 - m2) + 1):
                for perm in sorted(set(itertools.permutations((m1, m2, m3)))):
                    multi = make_multiarrangement2d(QQ, list(zip(lines, perm)))
                    inst = {"multiplicities": list(perm)}
                    yield multi, inst, exp2_three_lines(*perm)


def _mult_multisets(k, total):
    """Non-increasing k-tuples of positive integers summing to total."""

    def rec(rem, parts, cap):
        if len(parts) == k:
            if rem == 0:
                yield tuple(parts)
            return
        hi = min(cap, rem - (k - len(parts) - 1))
        for v in range(hi, 0, -1):
            yield from rec(rem - v, parts + [v], v)

    yield from rec(total, [], total)


def _many_lines(max_lines):
    for k in range(2, max_lines + 1):
        lines = _qq_rows([(1, 0), (0, 1)] + [(1, -c) for c in range(1, k - 1)])
        for total in range(k, 2 * k - 1):
            for mults in _mult_multisets(k, total):
                multi = make_multiarrangement2d(QQ, list(zip(lines, mults)))
                inst = {"lines": k, "multiplicities": list(mults)}
                yield multi, inst, exp2_many_lines(k, total)


def _q_powers(total, gain_bound):
    D = QQ_Q
    for u in range(0, 2 * gain_bound + 2):
        for gains in itertools.combinations(range(-gain_bound, gain_bound + 1), u):
            for t_ in range(min(u, total) + 1):
                for s_ in range(min(t_, total - t_ - u) + 1):
                    pairs = [((D.one, D.zero), s_ + 1), ((D.zero, D.one), t_ + 1)]
                    pairs += [((D.one, D.neg(D.q_power(g))), 1) for g in gains]
                    multi = make_multiarrangement2d(D, pairs)
                    inst = {"gains": list(gains), "s": s_, "t": t_}
                    yield multi, inst, exp2_q_powers(s_, t_, u)


def _schur_audit(instance):
    partition, gains = instance
    try:
        schur_bialternant_check(partition, gains)
    except VerificationError as exc:
        inst = {"gains": list(gains), "partition": list(partition)}
        want = "alternant = schur * vandermonde"
        return [_fail("schur-bialternant", inst, want, str(exc))]
    return []


def _free3(check, fixture, want, arr, h):
    """No failure when arr is free along h with exponents want."""
    free, payload = yoshinaga_free3(arr, h)
    if free and payload == want:
        return []
    return [_fail(check, {"fixture": fixture}, str(want), str(payload))]


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
    s = _Suite("lowdim", seed, _bounds(locals()))
    for name, which, grid in (
        ("three-lines-grid", "three_lines", _three_lines(three_lines_total)),
        ("many-lines-grid", "many_lines", _many_lines(many_lines_max)),
        ("q-powers-grid", "q_powers", _q_powers(q_powers_total, q_gain_bound)),
    ):
        s.sweep(name, enumerate(grid, 1), _exponents_audit(which, verify_stride))

    s.sweep(
        "schur-bialternant",
        (
            (partition, gains)
            for partition in ((), (1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2, 1))
            for gains in ((0, 1), (0, 1, 2), (-1, 1, 2), (0, 1, 2, 3))
            if len(gains) >= len(partition)
        ),
        _schur_audit,
    )

    boolean3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    bool3 = _qq_central(boolean3)
    fails = _free3("rank3-boolean", "boolean3", (1, 1, 1), bool3, bool3.hyperplanes[0])
    b3 = _qq_central(
        boolean3 + ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1))
    )
    for h in b3.hyperplanes:
        fails += _free3("rank3-type-b", "b3", (1, 3, 5), b3, h)
    gen = _qq_central(boolean3 + ((1, 1, 1), (1, 2, 3)))
    free, _ = yoshinaga_free3(gen, gen.hyperplanes[0])
    if free:
        inst = {"fixture": "generic5"}
        fails.append(_fail("rank3-generic", inst, "not free", "free"))
    s.check("rank3-fixtures", 2 + len(b3.hyperplanes), fails)
    return s.report()


# ---------------------------------------------------------------------------
# three-vertex coincidence of freeness between the two arrangements


def coincidence_suite(gain_bound=2, max_per_pair=3, seed=DEFAULT_SEED):
    """Freeness of the coned difference arrangement coincides with freeness
    of the bias arrangement for every three-vertex instance, with the
    exponent shift holding whenever both are free.  A disagreement, raised
    by coincidence_3dim, is a verdict-coincidence failure with its text."""
    s = _Suite("coincidence", seed, _bounds(locals()))
    free = 0

    def audit(g):
        nonlocal free
        try:
            res = coincidence_3dim(g)
        except VerificationError as exc:
            return _failures(g, [("verdict-coincidence", "equal verdicts", str(exc))])
        if not res.free_cone:
            return []
        free += 1
        if exponent_shift_matches(res):
            return []
        want = f"bias exponents from cone {res.detail_cone}"
        return _failures(g, [("exponent-shift", want, str(res.detail_bias))])

    graphs = three_vertex_instances(gain_bound, max_per_pair)
    s.sweep("three-vertex-instances", graphs, audit)
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
