"""Structure of the verification suites: bounds and failure entries."""

import inspect

import pytest

from gainarr import lowdim, verify
from gainarr.intpoly import ONE
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
    real = verify.chi_gaingraph_recursive

    def wrong_bias(g, kind):
        chi = real(g, kind)
        if kind == "bias" and g.n_vertices == 2 and len(g.edges) >= 2:
            return chi + ONE
        return chi

    # 3-vertex graphs keep their library chi but inherit wrong incremental
    # values from their 2-vertex contractions
    monkeypatch.setattr(verify, "chi_gaingraph_recursive", wrong_bias)
    report = verify.chi_identity_suite(3, 3, 1, cross_stride=5, random_count=2)
    fails = [f for f in report["failures"] if f["check"] == "shift-identity"]
    assert any(f["instance"]["vertices"] == 3 for f in fails)
    for fail in fails:
        assert fail["expected"] != fail["got"]
