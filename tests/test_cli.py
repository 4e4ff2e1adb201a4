"""Command line interface, run in process through main(argv)."""

import json

import pytest

from gainarr import cli, signed, verify
from gainarr.cli import main
from gainarr.intpoly import ONE
from gainarr.scalars import QQ_Q, CyclotomicField


def write_graph(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_chi_edgeless(tmp_path, capsys):
    path = write_graph(tmp_path, "group Z\nvertices 2\n")
    code, doc = run_json(capsys, ["chi", path])
    assert code == 0
    assert doc["chiA"]["coeffs"] == [0, 0, 1]
    assert doc["chiB"]["coeffs"] == [1, -2, 1]
    assert doc["chiB"]["factored"] == "(t - 1)^2"
    assert doc["lemmaCheck"] is True
    assert doc["posetCheck"] is True


def test_chi_single_edge(tmp_path, capsys):
    path = write_graph(tmp_path, "group Z\nvertices 2\nedge 1 2 0\n")
    code, doc = run_json(capsys, ["chi", path])
    assert code == 0
    assert doc["chiA"]["str"] == "t^2 - t"
    assert doc["chiB"]["factored"] == "(t - 1)(t - 2)"


def test_chi_unbalanced_triangle(tmp_path, capsys):
    text = "group Z\nvertices 3\nedge 1 2 0\nedge 1 3 0\nedge 2 3 1\n"
    code, doc = run_json(capsys, ["chi", write_graph(tmp_path, text)])
    assert code == 0
    assert doc["chiA"]["coeffs"] == [0, 3, -3, 1]
    assert doc["lemmaCheck"] is True


def test_chi_envelope_and_determinism(tmp_path, capsys):
    path = write_graph(tmp_path, "group Z\nvertices 3\nedge 1 2 1\n")
    code, doc = run_json(capsys, ["chi", path])
    assert code == 0
    assert set(doc["bounds"]) == {"max_hyperplanes", "max_vertices", "node_cap"}
    assert "version" in doc and "seed" in doc
    main(["chi", path])
    first = capsys.readouterr().out
    main(["chi", path])
    second = capsys.readouterr().out
    assert first == second


def test_chi_poset_check_skipped_over_bound(tmp_path, capsys):
    # 3 vertices + 3 edges exceeds a max-hyperplanes of 4, so the poset
    # cross check is skipped rather than attempted
    text = "group Z\nvertices 3\nedge 1 2 0\nedge 1 3 0\nedge 2 3 1\n"
    path = write_graph(tmp_path, text)
    code, doc = run_json(capsys, ["chi", path, "--max-hyperplanes", "4"])
    assert code == 0
    assert doc["posetCheck"] is None


def test_chi_poset_check_honours_max_hyperplanes(tmp_path, capsys):
    # 23 parallel classes give 25 bias hyperplanes, over the default cap of
    # 24; a raised --max-hyperplanes must reach the poset construction
    edges = "".join(f"edge 1 2 {g}\n" for g in range(-11, 12))
    path = write_graph(tmp_path, "group Z\nvertices 2\n" + edges)
    code, doc = run_json(capsys, ["chi", path, "--max-hyperplanes", "30"])
    assert code == 0
    assert doc["posetCheck"] is True
    assert doc["bounds"]["max_hyperplanes"] == 30


@pytest.mark.parametrize("p", [1000003, 2**61 - 1])
def test_chi_poset_check_skipped_for_large_cyclotomic_degree(tmp_path, capsys, p):
    # the bias arrangement would live over Q(zeta_p) of degree p - 1, above
    # MAX_CYCLOTOMIC_DEGREE, so the poset cross check is skipped
    text = f"group F {p}\nvertices 3\nedge 1 2 1\nedge 2 3 {p - 1}\nedge 1 3 0\n"
    code, doc = run_json(capsys, ["chi", write_graph(tmp_path, text)])
    assert code == 0
    assert doc["posetCheck"] is None
    assert doc["lemmaCheck"] is True
    assert doc["chiA"]["coeffs"] == [0, 2, -3, 1]


def test_chi_poset_check_runs_at_the_cyclotomic_degree_bound(tmp_path, capsys):
    path = write_graph(tmp_path, "group F 101\nvertices 2\nedge 1 2 7\n")
    code, doc = run_json(capsys, ["chi", path])
    assert code == 0
    assert doc["posetCheck"] is True


def test_one_poset_check_serves_chi_and_cross_oracle(tmp_path, capsys, monkeypatch):
    real = verify.chi_poset

    def wrong_on_bias(arr, *args):
        chi = real(arr, *args)
        bias = arr.domain is QQ_Q or isinstance(arr.domain, CyclotomicField)
        return chi + ONE if bias else chi

    monkeypatch.setattr(verify, "chi_poset", wrong_on_bias)
    path = write_graph(tmp_path, "group Z\nvertices 2\nedge 1 2 0\n")
    code, doc = run_json(capsys, ["chi", path])
    assert code == 1
    assert doc["posetCheck"] is False
    assert doc["lemmaCheck"] is True
    report = verify.cross_oracle_suite(
        exhaustive_max_vertices=2, exhaustive_max_edges=1, gain_bound=1,
        z4_samples=0, f2_4_samples=0,
    )
    assert report["failures"]
    assert {f["check"] for f in report["failures"]} == {"poset-bias"}


def test_free_if_edges_negative_verdict(tmp_path, capsys):
    # complete zero layer on 3 vertices plus arcs 1->2, 2->3: not free
    text = (
        "group Z\nvertices 3\n"
        "edge 1 2 0\nedge 1 3 0\nedge 2 3 0\nedge 1 2 1\nedge 2 3 1\n"
    )
    path = write_graph(tmp_path, text)
    code, doc = run_json(capsys, ["free", path, "--mode", "if-edges"])
    assert code == 0
    cert = doc["certificate"]
    assert cert["verdict"] is False
    assert doc["replay"] is None


def test_free_if_edges_positive_with_replay(tmp_path, capsys):
    text = "group Z\nvertices 3\nedge 1 2 0\nedge 1 3 0\nedge 2 3 0\n"
    path = write_graph(tmp_path, text)
    code, doc = run_json(capsys, ["free", path, "--mode", "if-edges", "--kind", "bias"])
    assert code == 0
    cert = doc["certificate"]
    assert cert["verdict"] is True
    assert cert["exponents"] == [1, 2, 3]
    assert doc["replay"] is True


def test_free_signed_mode(tmp_path, capsys):
    # 4-cycle without a chord, one unbalanced: obstruction on both sides
    text = (
        "group F 2\nvertices 4\n"
        "edge 1 2 0\nedge 2 3 0\nedge 3 4 0\nedge 1 4 1\n"
    )
    path = write_graph(tmp_path, text)
    code, doc = run_json(capsys, ["signed-check", path])
    assert code == 0
    assert doc["verdict"] is False
    assert doc["agree"] is True
    assert doc["criterion"] == doc["dfBias"] == doc["dfCone"] is False
    assert doc["inducedUnbalancedCycle"] is True
    assert doc["mode"] == "signed"


def test_free_signed_mode_rejects_integer_gains(tmp_path, capsys):
    path = write_graph(tmp_path, "group Z\nvertices 2\nedge 1 2 0\n")
    code = main(["signed-check", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "two-element group" in err


@pytest.mark.parametrize("mode", ["signed", "free3"])
def test_free_mode_has_no_subcommand_aliases(tmp_path, capsys, mode):
    path = write_graph(tmp_path, "group F 2\nvertices 3\nedge 1 2 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["free", path, "--mode", mode])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_free3_catalan(tmp_path, capsys):
    main(["family", "catalan", "--l", "3", "--m", "1"])
    text = capsys.readouterr().out
    path = write_graph(tmp_path, text)
    code, doc = run_json(capsys, ["free3", path])
    assert code == 0
    assert doc["freeA"] is True and doc["freeB"] is True
    assert doc["detailCone"] == [1, 4, 5]
    assert doc["detailBias"] == [1, 5, 6]
    assert doc["exponentShift"] is True
    assert doc["chiA"]["factored"] == "t(t - 4)(t - 5)"


def test_free3_rejects_wrong_shape(tmp_path, capsys):
    path = write_graph(tmp_path, "group Z\nvertices 2\nedge 1 2 0\n")
    code = main(["free3", path])
    assert code == 2
    assert "3 vertices" in capsys.readouterr().err


def test_signed_check_alias(tmp_path, capsys):
    text = "group F 2\nvertices 3\nedge 1 2 0\nedge 1 3 0\nedge 2 3 0\n"
    path = write_graph(tmp_path, text)
    code, doc = run_json(capsys, ["signed-check", path])
    assert code == 0
    assert doc["verdict"] is True
    assert doc["balancedChordal"] is True


def test_signed_check_reads_each_predicate_once(tmp_path, capsys, monkeypatch):
    # on a positive triangle the criterion evaluates all three predicates
    text = "group F 2\nvertices 3\nedge 1 2 0\nedge 1 3 0\nedge 2 3 0\n"
    path = write_graph(tmp_path, text)
    calls = {}
    for name in (
        "is_balanced_chordal",
        "has_induced_unbalanced_cycle",
        "has_switching_obstruction",
    ):
        def counted(g, name=name, real=getattr(signed, name)):
            calls[name] = calls.get(name, 0) + 1
            return real(g)

        for module in (signed, cli):
            monkeypatch.setattr(module, name, counted)
    code, doc = run_json(capsys, ["signed-check", path])
    assert code == 0 and doc["verdict"] is True
    assert calls == dict.fromkeys(calls, 1) and len(calls) == 3


@pytest.mark.parametrize(
    "argv",
    [["signed-check"], ["free", "--mode", "df-edges", "--kind", "bias"]],
)
def test_signed_check_honours_node_cap(tmp_path, capsys, argv):
    # a cold search needs 8 nodes on this triangle; an uncapped call first
    # warms every memo in this process, and the cap must still hold
    text = "group F 2\nvertices 3\nedge 1 2 0\nedge 1 3 0\nedge 2 3 0\n"
    path = write_graph(tmp_path, text)
    assert main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    code = main([argv[0], path, *argv[1:], "--node-cap", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""


def test_signed_check_above_the_scan_cap_exits_3(tmp_path, capsys):
    text = "group F 2\nvertices 11\nedge 1 2 0\n"
    path = write_graph(tmp_path, text)
    code = main(["signed-check", path, "--max-vertices", "11"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "capped at 10 vertices" in captured.err


def test_family_round_trip(tmp_path, capsys):
    code = main(["family", "shi", "--l", "3", "--m", "1"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "group Z"
    assert len([l for l in text.splitlines() if l.startswith("edge")]) == 6
    path = write_graph(tmp_path, text)
    code, doc = run_json(capsys, ["chi", path])
    assert code == 0
    assert doc["lemmaCheck"] is True


def test_parse_error_exit_code(tmp_path, capsys):
    path = write_graph(tmp_path, "group Z\nvertices 2\nedge 1 1 0\n")
    code = main(["chi", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "loop edge" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["chi", str(tmp_path / "absent.txt")])
    assert code == 2


def test_bound_exceeded_exit_code(tmp_path, capsys):
    text = "group Z\nvertices 4\nedge 1 2 0\n"
    path = write_graph(tmp_path, text)
    code = main(["chi", path, "--max-vertices", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "bound exceeded" in err


def test_huge_vertex_count_is_a_bound_not_a_crash(tmp_path, capsys):
    path = write_graph(tmp_path, "group Z\nvertices 300000000\nedge 1 2 1\n")
    code = main(["chi", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "300000000 vertices exceeds --max-vertices 8" in err


@pytest.mark.parametrize(
    "argv, counts",
    [
        ("shi --l 200000 --m 1", "200000 vertices and 39999800000 edge"),
        ("catalan --l 2 --m 1000000000", "2 vertices and 2000000001 edge"),
        ("boolean --l 1000000000", "1000000000 vertices and 0 edge"),
    ],
)
def test_huge_family_is_a_bound_not_a_crash(capsys, argv, counts):
    code = main(["family", *argv.split()])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert counts in captured.err


def test_oversized_group_order_is_a_usage_error(tmp_path, capsys):
    path = write_graph(tmp_path, f"group F {2**89 - 1}\nvertices 2\nedge 1 2 1\n")
    code = main(["chi", path])
    assert code == 2
    assert "is too large" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--frobnicate"])
    assert exc.value.code == 2


def test_reduction_warning_on_stderr(tmp_path, capsys):
    path = write_graph(tmp_path, "group F 2\nvertices 2\nedge 1 2 3\n")
    code = main(["chi", path])
    captured = capsys.readouterr()
    assert code == 0
    assert "reduced to 1 mod 2" in captured.err
    doc = json.loads(captured.out)
    assert doc["lemmaCheck"] is True


def test_tsv_output(tmp_path, capsys):
    path = write_graph(tmp_path, "group Z\nvertices 2\nedge 1 2 0\n")
    code = main(["chi", path, "--output", "tsv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = dict(l.split("\t", 1) for l in out.strip().splitlines())
    assert lines["lemmaCheck"] == "true"
    assert json.loads(lines["chiA.coeffs"]) == [0, -1, 1]


def test_verify_families_suite(capsys):
    code = main(["verify", "--suite", "families"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["suite"] == "families"
    names = {row["name"] for row in doc["checks"]}
    assert "digraphs-exhaustive" in names
    main(["verify", "--suite", "families"])
    assert capsys.readouterr().out == out


def test_suites_lists_every_suite_under_its_report_name(monkeypatch):
    class Named(Exception):
        pass

    def stop(name, seed, bounds):
        raise Named(name)

    public = {
        fn
        for name, fn in vars(verify).items()
        if name.endswith("_suite")
        and not name.startswith("_")
        and name != "run_suite"
        and fn.__module__ == verify.__name__
    }
    assert len(public) == len(verify.SUITES) == 7
    assert set(verify.SUITES.values()) == public
    # every suite names its report first, so stop it there
    monkeypatch.setattr(verify, "_Suite", stop)
    for key, fn in verify.SUITES.items():
        with pytest.raises(Named) as exc:
            fn(seed=1)
        assert exc.value.args == (key,)


def test_verify_cross_oracle_suite(monkeypatch, capsys):
    small = dict(exhaustive_max_vertices=2, exhaustive_max_edges=1, gain_bound=1,
                 z4_samples=1, f2_4_samples=0)
    monkeypatch.setitem(
        verify.SUITES,
        "cross-oracle",
        lambda seed: verify.cross_oracle_suite(seed=seed, **small),
    )
    code, doc = run_json(capsys, ["verify", "--suite", "cross-oracle"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["suite"] == "cross-oracle"
    assert doc["bounds"]["z4_samples"] == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("gainarr ")
