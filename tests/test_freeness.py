"""Edge-following freeness deciders and their replayable certificates."""

import itertools
import json
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gainarr import charpoly, freeness
from gainarr.errors import GraphError, SearchBudgetExceeded, VerificationError
from gainarr.families import make_family
from gainarr.freeness import (
    CHI_NON_DIVISION,
    DEL_CHI_NON_SPLIT,
    FORBIDDEN_SUBSTRUCTURE,
    clear_caches,
    df_along_edges,
    freeness_verdicts,
    if_along_edges,
    replay_certificate,
)
from gainarr.corpus import iter_f2_graphs, iter_z_graphs
from gainarr.gaingraph import GROUP_Z, GainGraph, group_f, induced_subgraph
from gainarr.intpoly import IntPolynomial
from gainarr.verify import kind_agreement_suite

F2 = group_f(2)
# chi splits on both sides, yet no edge admits either decider: the records
# hold tuples of per-edge failures
NO_ADMISSIBLE_EDGE_GRAPH = GainGraph(
    GROUP_Z,
    (1, 2, 3, 4),
    [(1, 2, 1), (2, 3, -2), (2, 4, 2), (3, 4, -2), (3, 4, -1), (3, 4, 0), (3, 4, 2)],
)
# the cone's chi splits but that of the induced subgraph on {1, 2, 4} does not
FORBIDDEN_SUB_GRAPH = GainGraph(
    group_f(3),
    (1, 2, 3, 4),
    [(1, 2, 0), (1, 2, 1), (1, 3, 0), (1, 3, 1), (1, 4, 1), (2, 3, 0), (2, 3, 1),
     (2, 3, 2), (2, 4, 2)],
)

# the Shi arrangement of rank 3: free, with edges that fail each decider's
# local rule at the root
SHI_3 = GainGraph(
    GROUP_Z, (1, 2, 3), [(i, j, g) for i, j in ((1, 2), (1, 3), (2, 3)) for g in (0, 1)]
)


def braid(l):
    edges = [(i, j, 0) for i in range(1, l) for j in range(i + 1, l + 1)]
    return GainGraph(GROUP_Z, tuple(range(1, l + 1)), edges)


def path_digraph_graph():
    # two arcs 1->2->3 with the third pair unconnected: a freeness obstruction
    edges = [(i, j, 0) for i in (1, 2) for j in range(i + 1, 4)]
    edges += [(1, 2, 1), (2, 3, 1)]
    return GainGraph(GROUP_Z, (1, 2, 3), edges)


def test_braid_cone_free_with_exponents():
    cert = if_along_edges(braid(3), "cone")
    assert cert.verdict
    assert cert.exponents == [0, 1, 1, 2]
    assert replay_certificate(cert, braid(3))


def test_braid_bias_free():
    cert = df_along_edges(braid(3), "bias")
    assert cert.verdict
    assert cert.exponents == [1, 2, 3]


def test_obstruction_graph_not_free():
    g = path_digraph_graph()
    for kind in ("cone", "bias"):
        assert not if_along_edges(g, kind).verdict
        assert not df_along_edges(g, kind).verdict


def test_refutation_carries_reason():
    clear_caches()
    cert = if_along_edges(path_digraph_graph(), "cone")
    assert not cert.verdict
    assert cert.refutation is not None
    assert cert.refutation["reason"]
    assert cert.nodes_explored >= 1


def test_yes_certificate_replays_and_tampering_detected():
    g = braid(3)
    cert = df_along_edges(g, "cone")
    assert replay_certificate(cert, g)
    # a certificate that does not start at the graph is rejected
    headless = cert._replace(
        steps=tuple(s for s in cert.steps if tuple(s["edges"]) != g.edges)
    )
    with pytest.raises(VerificationError):
        replay_certificate(headless, g)
    # corrupting a recorded chi is caught step by step
    doctored = []
    for s in cert.steps:
        s = dict(s)
        s["chi"] = "t^9"
        doctored.append(s)
    with pytest.raises(VerificationError):
        replay_certificate(cert._replace(steps=tuple(doctored)), g)


def tamper(steps, k, how):
    """The steps with step k dropped or its chi or exponents falsified."""
    steps = list(steps)
    if how == "drop":
        del steps[k]
        return tuple(steps)
    s = dict(steps[k])
    if how == "chi":
        s["chi"] += " + 1"
    else:
        s["exponents"] = tuple(s["exponents"]) + (0,)
    steps[k] = s
    return tuple(steps)


@st.composite
def small_graphs(draw):
    group = draw(st.sampled_from([GROUP_Z, F2]))
    l = draw(st.integers(2, 3))
    gains = range(-1, 2) if group == GROUP_Z else (0, 1)
    pairs = [(i, j) for i in range(1, l) for j in range(i + 1, l + 1)]
    ground = [(i, j, g) for i, j in pairs for g in gains]
    edges = draw(st.lists(st.sampled_from(ground), min_size=1, max_size=4, unique=True))
    return GainGraph(group, tuple(range(1, l + 1)), edges)


@settings(max_examples=60, deadline=None)
@given(
    small_graphs(),
    st.sampled_from([if_along_edges, df_along_edges]),
    st.sampled_from(["cone", "bias"]),
    st.sampled_from(["drop", "chi", "exponents"]),
    st.data(),
)
def test_tampered_certificate_fails_replay(g, decide, kind, how, data):
    # every step but the first is a branch some other step needs, so no
    # step can be dropped, and each step's chi and exponents are recomputed
    cert = decide(g, kind)
    assume(cert.verdict)
    assert replay_certificate(cert, g)
    k = data.draw(st.integers(0, len(cert.steps) - 1))
    forged = cert._replace(steps=tamper(cert.steps, k, how))
    with pytest.raises(VerificationError):
        replay_certificate(forged, g)


@pytest.mark.parametrize(
    "decide, code",
    [(if_along_edges, DEL_CHI_NON_SPLIT), (df_along_edges, CHI_NON_DIVISION)],
)
def test_replay_rejects_a_pivot_that_breaks_the_local_rule(decide, code):
    # edge (1, 2, 0) of SHI_3 fails the decider's local rule at the root, so
    # a root step pivoting on it fails replay under that code
    cert = decide(SHI_3, "cone")
    assert replay_certificate(cert, SHI_3)
    root = cert.steps[0]
    assert root["pivot"] != (1, 2, 0)
    forged = cert._replace(steps=(dict(root, pivot=(1, 2, 0)),) + cert.steps[1:])
    with pytest.raises(VerificationError, match=code):
        replay_certificate(forged, SHI_3)


@pytest.mark.parametrize("decide", [if_along_edges, df_along_edges])
def test_replay_rejects_an_unknown_decider(decide):
    g = braid(3)
    cert = decide(g, "cone")
    assert replay_certificate(cert, g)
    with pytest.raises(VerificationError, match="'bogus'"):
        replay_certificate(cert._replace(decider="bogus"), g)


@pytest.mark.parametrize("kind", ["bogus", "affinographic"])
def test_replay_rejects_an_unknown_kind(kind):
    g = braid(3)
    cert = if_along_edges(g, "cone")
    with pytest.raises(VerificationError, match=repr(kind)):
        replay_certificate(cert._replace(kind=kind), g)


def test_no_certificates_do_not_replay():
    cert = if_along_edges(path_digraph_graph(), "cone")
    with pytest.raises(VerificationError):
        replay_certificate(cert, path_digraph_graph())


@pytest.mark.parametrize(
    "kind", ["cone-affinographic", "affinographic-cone", "affinographic"]
)
@pytest.mark.parametrize("decide", [if_along_edges, df_along_edges])
def test_unknown_kind_is_rejected(decide, kind):
    # the deciders take exactly the kinds in KINDS; the affinographic
    # arrangement is not central, so only its cone is decided
    with pytest.raises(GraphError, match="unknown arrangement kind"):
        decide(braid(3), kind)


def test_node_cap_enforced():
    g = braid(4)
    with pytest.raises(SearchBudgetExceeded):
        if_along_edges(g, "cone", node_cap=2)


def test_node_cap_bounds_a_warm_certificate():
    # freeness_verdicts memoizes every subgraph, yet a certificate searches
    # with a memo of its own, so the cap still counts each graph it analyzes
    clear_caches()
    freeness_verdicts(braid(4))
    with pytest.raises(SearchBudgetExceeded):
        if_along_edges(braid(4), "cone", node_cap=2)


def test_certificate_json_serializable():
    cert = if_along_edges(braid(3), "bias")
    doc = cert.to_json()
    json.dumps(doc)
    assert doc["verdict"] is True
    assert doc["chi"]["coeffs"] == list(cert.chi.coeffs)
    assert doc["exponents"] == list(cert.exponents)


def test_freeness_verdicts_shape():
    clear_caches()
    v = freeness_verdicts(braid(3))
    assert set(v["if"]) == {"cone", "bias"}
    assert set(v["df"]) == {"cone", "bias"}
    assert all(v["if"].values()) and all(v["df"].values())
    assert v["nodes"] >= 2


def test_if_implies_df_on_fixtures():
    graphs = [
        braid(3),
        path_digraph_graph(),
        GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (1, 2, 1), (2, 3, 0)]),
        GainGraph(F2, (1, 2, 3), [(1, 2, 0), (2, 3, 1), (1, 3, 1)]),
    ]
    for g in graphs:
        v = freeness_verdicts(g)
        for kind in ("cone", "bias"):
            assert not v["if"][kind] or v["df"][kind]


def test_mutating_exponents_leaves_later_answers_unchanged():
    clear_caches()
    g = braid(3)
    cert = if_along_edges(g)
    want = list(cert.exponents)
    cert.exponents.append(99)
    cert.steps[0]["exponents"].append(99)
    df_along_edges(g).exponents.append(99)
    again = if_along_edges(g)
    assert again.exponents == want
    assert again.steps[0]["exponents"] == want
    assert df_along_edges(g).exponents == want
    assert replay_certificate(again, g)


def test_memo_sizes_pinned_on_small_kind_agreement():
    # one chi entry and one analysis record per graph, both kinds inside:
    # a memo split per kind again would double the chi count
    charpoly.clear_caches()
    clear_caches()
    assert kind_agreement_suite(max_vertices=3, max_edges=3, gain_bound=1)["passed"]
    assert charpoly._chi_rec.cache_info().currsize == 233
    assert len(freeness._ANALYSIS) == 231


def test_memo_values_shared_on_small_kind_agreement():
    # equal analyses share one record object and equal chi one polynomial,
    # while every memo keeps its entry count (233 chi entries, 231 records);
    # records hold verdicts only, so chi is read from charpoly's memos
    charpoly.clear_caches()
    clear_caches()
    assert kind_agreement_suite(max_vertices=3, max_edges=3, gain_bound=1)["passed"]
    assert charpoly._chi_rec.cache_info().currsize == 233
    recs = list(freeness._ANALYSIS.values())
    assert len(recs) == 231
    assert len({id(r) for r in recs}) == len(set(recs)) == 13
    pairs = [charpoly._chi_rec(g) for g in freeness._ANALYSIS]
    assert len({id(p) for p in pairs}) == len(set(pairs)) == 15
    chis = [c for p in pairs for c in p]
    chis += [charpoly.chi_of_kind(g, "cone") for g in freeness._ANALYSIS]
    assert len({id(c) for c in chis}) == len(set(chis)) == 41


def test_memo_records_hold_only_immutable_values():
    # one shared record serves many graphs, so nothing in it may be mutable
    charpoly.clear_caches()
    clear_caches()
    assert kind_agreement_suite(max_vertices=3, max_edges=3, gain_bound=1)["passed"]
    for g in (path_digraph_graph(), NO_ADMISSIBLE_EDGE_GRAPH, FORBIDDEN_SUB_GRAPH):
        freeness_verdicts(g)
    assert isinstance(freeness._ANALYSIS[NO_ADMISSIBLE_EDGE_GRAPH][0].inductive[2], tuple)
    assert freeness._ANALYSIS[FORBIDDEN_SUB_GRAPH][0].inductive[2] == FORBIDDEN_SUBSTRUCTURE
    allowed = {tuple, freeness._KindNode, IntPolynomial, int, bool, str, type(None)}
    seen = set()
    stack = list(freeness._ANALYSIS.values())
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        assert type(x) in allowed, x
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, IntPolynomial):
            stack.append(x.coeffs)


def answers(g):
    """freeness_verdicts, less its count of fresh analyses, and all four
    certificates."""
    v = freeness_verdicts(g)
    del v["nodes"]
    certs = []
    for decider, decide in (("if", if_along_edges), ("df", df_along_edges)):
        for kind in ("cone", "bias"):
            doc = decide(g, kind).to_json()
            assert doc["verdict"] == v[decider][kind]
            certs.append(doc)
    return v, certs


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.lists(small_graphs(), max_size=6))
def test_cold_and_warm_caches_give_equal_answers(g, others):
    charpoly.clear_caches()
    clear_caches()
    cold = answers(g)
    charpoly.clear_caches()
    clear_caches()
    for h in others:
        answers(h)
    assert answers(g) == cold
    assert answers(g) == cold


@pytest.mark.parametrize(
    "g, calls, nodes",
    [
        (make_family("catalan", 4, 1), (if_along_edges, if_along_edges), 88),
        (
            GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, -1), (1, 3, -1), (2, 3, 1)]),
            (if_along_edges, df_along_edges),
            1,
        ),
    ],
)
def test_certificates_do_not_depend_on_earlier_calls(g, calls, nodes):
    # each certificate runs the cold search, whatever the process holds
    clear_caches()
    for decide in calls:
        assert decide(g, "cone").nodes_explored == nodes


def test_replay_names_the_missing_field_of_a_step():
    g = braid(3)
    cert = if_along_edges(g, "cone")
    for field in ("pivot", "exponents", "chi", "vertices", "edges"):
        steps = tuple({k: v for k, v in s.items() if k != field} for s in cert.steps)
        with pytest.raises(VerificationError, match=f"lacks {field}"):
            replay_certificate(cert._replace(steps=steps), g)


def test_replay_rejects_a_step_that_is_not_a_mapping():
    g = GainGraph(F2, (1, 2, 3), [(1, 2, 0), (1, 3, 0), (2, 3, 0)])
    cert = if_along_edges(g, "cone")
    assert replay_certificate(cert, g)
    with pytest.raises(VerificationError, match="not a mapping"):
        replay_certificate(cert._replace(steps=cert.steps + (None,)), g)


root_tuples = st.lists(st.integers(0, 5), max_size=6).map(lambda r: tuple(sorted(r)))


@given(root_tuples, root_tuples, st.lists(st.booleans(), max_size=6))
def test_included_is_multiset_inclusion(sub, sup, keep):
    # the merge walk against the Counter definition on ascending tuples
    assert freeness._included(sub, sup) == (not Counter(sub) - Counter(sup))
    part = tuple(r for r, k in zip(sup, keep) if k)
    assert freeness._included(part, sup)


def test_divisibility_from_roots_matches_the_division():
    # the divisional rule reads divisibility off the roots; the slow path
    # divides, on every edge of the small corpora and on both kinds
    seen = 0
    for g in itertools.chain(iter_z_graphs(3, 4, 1), iter_f2_graphs(3)):
        for e in g.edges:
            contracted = freeness._branches(g, e)[1]
            sides, s_con = freeness._sides(g), freeness._sides(contracted)
            for i, kind in enumerate(freeness.KINDS):
                fast = freeness._local_failure("divisional", sides[i], None, s_con[i])
                slow = charpoly.chi_of_kind(contracted, kind).divides(sides[i][0])
                assert (fast is None) == slow, (g, e, kind)
                seen += 1
    assert seen == 2 * 1029  # (graph, edge) pairs, each on both kinds


small_roots = st.lists(st.integers(0, 4), max_size=5).map(lambda r: tuple(sorted(r)))
non_split = st.sampled_from([(1,), (1, 0, 1), (-2, 0, 1), (3, 1), (1, 1, 1)])


@given(small_roots, small_roots, non_split)
def test_roots_rule_is_monic_division(roots, sub, extra):
    # chi splits with the given roots; a monic candidate divisor splits, or
    # carries a factor without nonnegative integer roots
    chi = IntPolynomial.from_roots(roots)
    cand = IntPolynomial.from_roots(sub) * IntPolynomial(extra)
    cand_roots = cand.integer_roots()
    side = (cand, None if cand_roots is None else tuple(cand_roots))
    fast = freeness._local_failure("divisional", (chi, roots), None, side)
    assert (fast is None) == cand.divides(chi)


def test_induced_subgraphs_are_relabeled_with_their_chi(monkeypatch):
    # every chi lookup of the forbidden scan is on 1..k, and each relabeled
    # subgraph has the chi pair of the subgraph on its original labels
    looked_up = []
    monkeypatch.setattr(
        freeness, "_chi_rec", lambda h: looked_up.append(h) or charpoly._chi_rec(h)
    )
    for g in itertools.chain(iter_z_graphs(4, 4, 1), iter_f2_graphs(4)):
        looked_up.clear()
        scanned = freeness._induced_subgraphs(g)
        assert len(looked_up) == len(scanned)
        for h, (subset, sides) in zip(looked_up, scanned):
            original = induced_subgraph(g, subset)
            assert h.vertices == tuple(range(1, len(subset) + 1))
            assert len(h.edges) == len(original.edges)
            assert charpoly._chi_rec(h) == charpoly._chi_rec(original)
            assert sides == freeness._sides(original)


def test_small_kind_agreement_makes_no_division(monkeypatch):
    # every searched node's chi splits, so divisibility comes from the roots
    calls = []
    real = IntPolynomial.divides
    monkeypatch.setattr(
        IntPolynomial, "divides", lambda p, q: calls.append(p) or real(p, q)
    )
    clear_caches()
    assert kind_agreement_suite(max_vertices=3, max_edges=3, gain_bound=1)["passed"]
    assert calls == []


@pytest.mark.parametrize("decide", [if_along_edges, df_along_edges])
@pytest.mark.parametrize("kind", ["cone", "bias"])
def test_forbidden_certificate_reports_the_original_labels(decide, kind):
    # the scan builds the subgraph on {1, 2, 4} as one on 1..3; the
    # certificate names the subset on the graph's own labels, also when
    # those are not 1..n
    label = {1: 2, 2: 3, 3: 5, 4: 8}
    moved = GainGraph(
        FORBIDDEN_SUB_GRAPH.group,
        [label[v] for v in FORBIDDEN_SUB_GRAPH.vertices],
        [(label[i], label[j], g) for i, j, g in FORBIDDEN_SUB_GRAPH.edges],
    )
    for g, subset in ((FORBIDDEN_SUB_GRAPH, (1, 2, 4)), (moved, (2, 3, 8))):
        cert = decide(g, kind)
        want = charpoly.chi_of_kind(induced_subgraph(g, subset), kind)
        assert want.integer_roots() is None
        assert cert.refutation == {
            "reason": FORBIDDEN_SUBSTRUCTURE,
            "subset": subset,
            "subgraph_chi": str(want),
        }
