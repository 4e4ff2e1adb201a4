"""Structure of the verification suites: bounds and failure entries."""

import inspect

import pytest

from gainarr import lowdim, verify
from gainarr.charpoly import _chi_rec
from gainarr.corpus import iter_z_graphs, z_ground_set
from gainarr.gaingraph import GROUP_Z, GainGraph, contract_edge
from gainarr.intpoly import ONE, IntPolynomial
from gainarr.scalars import QQ_Q


class Stopped(Exception):
    pass


def reported_bounds(monkeypatch, fn, **kwargs):
    """The bounds a suite hands to _Suite, which its first statement builds."""

    def stop(name, seed, bounds):
        raise Stopped(bounds)

    monkeypatch.setattr(verify, "_Suite", stop)
    with pytest.raises(Stopped) as exc:
        fn(seed=1, **kwargs)
    return exc.value.args[0]


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_bounds_are_the_keyword_arguments_but_seed(monkeypatch, name):
    fn = verify.SUITES[name]
    defaults = {
        k: p.default
        for k, p in inspect.signature(fn).parameters.items()
        if k != "seed"
    }
    assert reported_bounds(monkeypatch, fn) == defaults
    first = next(iter(defaults))
    changed = reported_bounds(monkeypatch, fn, **{first: defaults[first] + 1})
    assert changed == {**defaults, first: defaults[first] + 1}


def stub_verdicts(edges):
    # inductive verdicts disagree between kinds from two edges on, and
    # divisional ones from one edge on; inductive implies divisional always
    n = len(edges)
    return {
        "if": {"cone": n >= 2, "bias": False},
        "df": {"cone": True, "bias": n == 0},
    }


def test_minimized_failures_carry_their_own_checks(monkeypatch):
    monkeypatch.setattr(verify, "freeness_verdicts", lambda g: stub_verdicts(g.edges))
    report = verify.kind_agreement_suite(max_vertices=2, max_edges=2, gain_bound=1)
    # 3 + 2 one-edge graphs fail df agreement, and 3 + 1 two-edge graphs
    # both checks; every failure shrinks to a one-edge graph, where only
    # the df check fails
    assert len(report["failures"]) == 9
    for fail in report["failures"]:
        v = stub_verdicts(fail["instance"]["edges"])
        decider = fail["check"].removesuffix("-kind-agreement")
        assert v[decider]["cone"] != v[decider]["bias"]
        assert fail["expected"] == str(v[decider]["cone"])
        assert fail["got"] == str(v[decider]["bias"])
    assert {f["check"] for f in report["failures"]} == {"df-kind-agreement"}


def test_rank3_fixtures_need_the_free_verdict(monkeypatch):
    real = verify.yoshinaga_free3
    monkeypatch.setattr(verify, "yoshinaga_free3", lambda arr, h: (False, real(arr, h)[1]))
    report = verify.lowdim_suite(
        three_lines_total=3, many_lines_max=2, q_powers_total=2, q_gain_bound=1
    )
    checks = {f["check"] for f in report["failures"]}
    assert checks == {"rank3-boolean", "rank3-type-b"}
    assert len(report["failures"]) == 1 + 9


def test_coincidence_disagreement_is_reported_not_raised(monkeypatch):
    real = lowdim.yoshinaga_free3

    def bias_never_free(arr, h, **kwargs):
        free, payload = real(arr, h, **kwargs)
        if free and arr.domain is QQ_Q:
            return False, "stubbed: not free"
        return free, payload

    monkeypatch.setattr(lowdim, "yoshinaga_free3", bias_never_free)
    report = verify.coincidence_suite(gain_bound=1, max_per_pair=2)
    assert report["passed"] is False
    assert report["failures"]
    for fail in report["failures"]:
        assert fail["check"] == "verdict-coincidence"
        assert fail["instance"]["vertices"] == 3
        assert "disagree" in fail["got"]


def test_incremental_only_identity_failure_carries_the_incremental_chi(monkeypatch):
    real = verify._chi_rec

    def wrong_bias(g):
        a, b = real(g)
        if g.n_vertices == 2 and len(g.edges) >= 2:
            return a, b + ONE
        return a, b

    # 3-vertex graphs keep their library chi but inherit wrong incremental
    # values from their 2-vertex contractions
    monkeypatch.setattr(verify, "_chi_rec", wrong_bias)
    report = verify.chi_identity_suite(3, 3, 1, cross_stride=5, random_count=2)
    fails = [f for f in report["failures"] if f["check"] == "shift-identity"]
    assert any(f["instance"]["vertices"] == 3 for f in fails)
    for fail in fails:
        assert fail["expected"] != fail["got"]


SCAN_BOUNDS = [
    (l, max_edges, gain_bound)
    for l in (1, 2, 3)
    for max_edges in range(5)
    for gain_bound in (0, 1)
] + [(4, 3, 1)]


@pytest.mark.parametrize("l, max_edges, gain_bound", SCAN_BOUNDS)
def test_identity_scan_matches_the_corpus_and_the_library_chi(l, max_edges, gain_bound):
    # every node, not every cross_stride-th: the contraction table and the
    # incremental chi against the library recursion
    scanned = list(verify._identity_scan(l, max_edges, gain_bound))
    graphs = [g for g, _, _ in scanned]
    assert sorted(graphs) == sorted(iter_z_graphs(l, max_edges, gain_bound))
    assert len(set(graphs)) == len(graphs)
    for g, chi_a, chi_b in scanned:
        assert (chi_a, chi_b) == _chi_rec(g), g


def test_identity_scan_contractions_keep_their_chi_on_1_to_l_minus_1(monkeypatch):
    # the table relabels each contraction (S + e)/e onto 1..l-1; every
    # lookup has the chi pair of the contraction on its original labels
    l, max_edges, gain_bound = 4, 4, 1
    ground = z_ground_set(l, gain_bound)
    looked_up = []
    monkeypatch.setattr(
        verify, "_chi_rec", lambda h: looked_up.append(h) or _chi_rec(h)
    )
    scan = verify._identity_scan(l, max_edges, gain_bound)
    node, count = next(scan), 0
    while node is not None:
        g = node[0]
        looked_up.clear()
        # resuming after g looks up g's children, last ground class first
        node = next(scan, None)
        start = ground.index(g.edges[-1]) + 1 if g.edges else 0
        added = [] if len(g.edges) == max_edges else ground[start:][::-1]
        assert len(looked_up) == len(added)
        for h, e in zip(looked_up, added):
            child = GainGraph._make((GROUP_Z, g.vertices, g.edges + (e,)))
            original = contract_edge(child, e)
            assert h.vertices == tuple(range(1, l))
            assert len(h.edges) == len(original.edges)
            assert _chi_rec(h) == _chi_rec(original), (g, e)
            count += 1
    assert count == len(list(iter_z_graphs(l, max_edges, gain_bound))) - 1


def test_every_identity_instance_runs_its_own_shift(monkeypatch):
    # no fast path may memoize or skip the per-instance identity test
    real = IntPolynomial.shift
    calls = []

    def counted(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(IntPolynomial, "shift", counted)
    report = verify.chi_identity_suite(3, 3, 1, random_count=2)
    assert report["passed"]
    checked = sum(
        c["instances"]
        for c in report["checks"]
        if c["name"].startswith(("z-exhaustive-", "f2-exhaustive-"))
        or c["name"] == "z-random-large"
    )
    assert checked > 0
    assert len(calls) == checked
