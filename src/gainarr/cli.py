"""Command-line surface.

Subcommands: chi, free, signed-check, free3, family, verify.  Graphs come
in through the text format, results go out as JSON (or flat TSV) on
standard output, diagnostics on standard error.  Every JSON document
embeds the tool version, the seed, and the bounds, and contains nothing
run-dependent, so identical invocations produce byte-identical output.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage error,
3 a resource bound was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .charpoly import DEFAULT_MAX_HYPERPLANES, chi_of_kind
from .errors import BoundExceeded, GainArrError, ParseError, VerificationError
from .families import FAMILY_KINDS, make_family
from .freeness import (
    DEFAULT_NODE_CAP,
    df_along_edges,
    if_along_edges,
    replay_certificate,
)
from .gaingraph import GROUP_Z
from .graphio import parse_graph, serialize_graph
from .lowdim import coincidence_3dim, exponent_shift_matches
from .signed import (
    has_induced_unbalanced_cycle,
    has_switching_obstruction,
    is_balanced_chordal,
)
from .verify import DEFAULT_SEED, SUITES, _identity_holds, _poset_problems, run_suite
from .version import __version__


def _flatten(doc, prefix, rows):
    for key in sorted(doc):
        val = doc[key]
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(val, dict):
            _flatten(val, path, rows)
        else:
            rows.append((path, json.dumps(val, sort_keys=True)))


def _print_doc(cfg, doc):
    if cfg.output == "tsv":
        rows = []
        _flatten(doc, "", rows)
        for path, val in rows:
            print(f"{path}\t{val}")
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))


def _envelope(cfg, payload):
    doc = dict(payload)
    doc["bounds"] = {
        "max_hyperplanes": cfg.max_hyperplanes,
        "max_vertices": cfg.max_vertices,
        "node_cap": cfg.node_cap,
    }
    doc["seed"] = cfg.seed
    doc["version"] = __version__
    return doc


def _load_graph(cfg):
    with open(cfg.path, encoding="utf-8") as fh:
        text = fh.read()
    graph, warnings = parse_graph(text, cfg.max_vertices)
    for w in warnings:
        print(f"gainarr: {cfg.path}: {w}", file=sys.stderr)
    return graph


def cmd_chi(cfg):
    g = _load_graph(cfg)
    chi_a, chi_b, chi_c = (chi_of_kind(g, k) for k in ("affinographic", "bias", "cone"))
    lemma = _identity_holds(chi_a, chi_b)
    # an arrangement over the hyperplane cap, or a bias arrangement over a
    # refused cyclotomic field, skips the poset check
    try:
        poset_check = not _poset_problems(g, cfg.max_hyperplanes)
    except BoundExceeded:
        poset_check = None
    _print_doc(
        cfg,
        _envelope(
            cfg,
            {
                "chiA": chi_a.to_json(),
                "chiB": chi_b.to_json(),
                "chiConeA": chi_c.to_json(),
                "lemmaCheck": lemma,
                "posetCheck": poset_check,
            },
        ),
    )
    return 0 if lemma and poset_check is not False else 1


def _signed_payload(g, node_cap):
    chordal = is_balanced_chordal(g)
    unbalanced = has_induced_unbalanced_cycle(g)
    obstruction = has_switching_obstruction(g)
    crit = chordal and not unbalanced and not obstruction
    # each certificate search is cold, so --node-cap bounds it exactly
    df_bias = df_along_edges(g, "bias", node_cap).verdict
    df_cone = df_along_edges(g, "cone", node_cap).verdict
    return {
        "agree": crit == df_bias == df_cone,
        "balancedChordal": chordal,
        "criterion": crit,
        "dfBias": df_bias,
        "dfCone": df_cone,
        "inducedUnbalancedCycle": unbalanced,
        "mode": "signed",
        "switchingObstruction": obstruction,
        "verdict": crit,
    }


def _free3_payload(g):
    # coincidence_3dim raises when the verdicts disagree
    res = coincidence_3dim(g)
    shift = exponent_shift_matches(res) if res.free_cone else None
    detail_cone, detail_bias = (
        list(d) if isinstance(d, tuple) else d
        for d in (res.detail_cone, res.detail_bias)
    )
    return {
        "agree": shift is not False,
        "chiA": res.chi_affin.to_json(),
        "chiB": res.chi_bias.to_json(),
        "detailBias": detail_bias,
        "detailCone": detail_cone,
        "exponentShift": shift,
        "freeA": res.free_cone,
        "freeB": res.free_bias,
        "mode": "free3",
    }


def cmd_free(cfg):
    g = _load_graph(cfg)
    decide = if_along_edges if cfg.mode == "if-edges" else df_along_edges
    cert = decide(g, cfg.kind, node_cap=cfg.node_cap)
    replay = None
    if cert.verdict:
        try:
            replay = replay_certificate(cert, g)
        except VerificationError:
            replay = False
    payload = {
        "certificate": cert.to_json(),
        "kind": cfg.kind,
        "mode": cfg.mode,
        "replay": replay,
    }
    _print_doc(cfg, _envelope(cfg, payload))
    return 0 if replay is not False else 1


def _print_verdict(cfg, payload):
    _print_doc(cfg, _envelope(cfg, payload))
    return 0 if payload["agree"] else 1


def cmd_signed_check(cfg):
    g = _load_graph(cfg)
    if g.group == GROUP_Z or g.group[1] != 2:
        print("gainarr: signed-check needs gains in the two-element group",
              file=sys.stderr)
        return 2
    return _print_verdict(cfg, _signed_payload(g, cfg.node_cap))


def cmd_free3(cfg):
    g = _load_graph(cfg)
    if g.group != GROUP_Z or len(g.vertices) != 3:
        print("gainarr: free3 needs an integer gain graph on 3 vertices",
              file=sys.stderr)
        return 2
    return _print_verdict(cfg, _free3_payload(g))


def cmd_family(cfg):
    graph = make_family(cfg.kind, cfg.l, cfg.m)
    sys.stdout.write(serialize_graph(graph))
    return 0


def cmd_verify(cfg):
    report = run_suite(cfg.suite, seed=cfg.seed)
    _print_doc(cfg, report)
    return 0 if report["passed"] else 1


def _positive(text):
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return n


def build_parser():
    p = argparse.ArgumentParser(
        prog="gainarr",
        description="Hyperplane arrangements from gain graphs: characteristic "
        "polynomials, freeness certificates, verification suites.",
    )
    p.add_argument("--version", action="version", version=f"gainarr {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, needs_graph=True):
        sp.add_argument("--output", choices=("json", "tsv"), default="json")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if needs_graph:
            sp.add_argument("path", help="gain graph file in the text format")
            sp.add_argument("--max-vertices", type=_positive, default=8)
            sp.add_argument(
                "--max-hyperplanes", type=_positive, default=DEFAULT_MAX_HYPERPLANES
            )
            sp.add_argument("--node-cap", type=_positive, default=DEFAULT_NODE_CAP)

    sp = sub.add_parser("chi", help="characteristic polynomials and the shift identity")
    common(sp)
    sp.set_defaults(handler=cmd_chi)

    sp = sub.add_parser("free", help="freeness deciders with replayable certificates")
    common(sp)
    sp.add_argument("--mode", choices=("if-edges", "df-edges"), required=True)
    sp.add_argument("--kind", choices=("cone", "bias"), default="cone")
    sp.set_defaults(handler=cmd_free)

    sp = sub.add_parser("signed-check", help="signed-graph freeness characterization")
    common(sp)
    sp.set_defaults(handler=cmd_signed_check)

    sp = sub.add_parser("free3", help="three-vertex freeness coincidence")
    common(sp)
    sp.set_defaults(handler=cmd_free3)

    sp = sub.add_parser("family", help="emit a named family graph in the text format")
    sp.add_argument("kind", choices=FAMILY_KINDS)
    sp.add_argument("--l", type=_positive, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.set_defaults(handler=cmd_family)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=sorted(SUITES), required=True)
    common(sp, needs_graph=False)
    sp.set_defaults(handler=cmd_verify)
    return p


def main(argv=None):
    cfg = build_parser().parse_args(argv)
    try:
        return cfg.handler(cfg)
    except ParseError as exc:
        print(f"gainarr: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"gainarr: bound exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"gainarr: verification failed: {exc}", file=sys.stderr)
        return 1
    except (GainArrError, OSError) as exc:
        print(f"gainarr: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
