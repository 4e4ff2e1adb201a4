"""Behaviour pin: sha256 digests of suite reports and CLI outputs.

Every verification suite runs at reduced bounds, and a fixed set of CLI
calls runs in process.  Each result is reduced to canonical JSON (sorted
keys, compact separators) with its `version` field dropped, and its
sha256 is compared with the digest recorded below.  A change that is
meant to keep behaviour keeps every digest; a change that is meant to
alter an output re-records the digests it alters, which the failure
message prints.

No memo is cleared between cases: a digest must not depend on which
cases ran before it in the same process.
"""

import hashlib
import json

import pytest

from gainarr.arrangement import (
    build_affinographic,
    build_bias,
    build_cone,
    restriction,
    ziegler_restriction,
)
from gainarr.cli import main
from gainarr.gaingraph import GROUP_Z, GainGraph, group_f
from gainarr.verify import (
    chi_identity_suite,
    coincidence_suite,
    cross_oracle_suite,
    families_suite,
    kind_agreement_suite,
    lowdim_suite,
    signed_suite,
)


def canonical_digest(doc):
    doc = {k: v for k, v in doc.items() if k != "version"}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# verification suites

SUITE_CASES = {
    "chi-identity": (
        chi_identity_suite,
        dict(max_vertices=4, max_edges=5, gain_bound=1, cross_stride=97,
             random_count=5),
    ),
    "cross-oracle": (
        cross_oracle_suite,
        dict(exhaustive_max_vertices=3, exhaustive_max_edges=2, gain_bound=1,
             z4_samples=1, f2_4_samples=1),
    ),
    "kind-agreement": (
        kind_agreement_suite,
        dict(max_vertices=4, max_edges=4, gain_bound=1),
    ),
    "families": (
        families_suite,
        dict(max_digraph_vertices=4, max_family_rank=4),
    ),
    "signed": (
        signed_suite,
        dict(exhaustive_vertices=4, random_count=5, threshold_max_vertices=4),
    ),
    "lowdim": (
        lowdim_suite,
        dict(three_lines_total=8, many_lines_max=5, q_powers_total=5,
             q_gain_bound=1, verify_stride=2),
    ),
    "coincidence": (
        coincidence_suite,
        dict(gain_bound=1, max_per_pair=2),
    ),
}

SUITE_DIGESTS = {
    "chi-identity": "27f8dcb561e2ccf1e6175221c3f88883256a13fbab85a6d3904ffffd12f8d683",
    "cross-oracle": "968363a55d77f04f1f2979341ba371b200020b99e67388a69a88bf0978265241",
    "kind-agreement": "57e122e90a6c0401400d26d234c45529d82e1c6abd7f2cd1b1377bb98062ffd0",
    "families": "710c5cc0f39c50065918899502d11269ae74e5992adcbe81fd6b2e75cb87af81",
    "signed": "7eba77c3de1a55e75e143e7c8e3d8aadc776bffc2f455d3c9559a79fc845f3d2",
    "lowdim": "e957bad83f9781aee21b0e110d2264c169418cd031a2eeed967b024739ac8361",
    "coincidence": "ce74011c4a8050bb6e4a504c3f814d1fd0a3134a635b6c9b3bca8ffef9e9600e",
}


@pytest.mark.parametrize("name", sorted(SUITE_CASES))
def test_suite_report_digest(name):
    fn, bounds = SUITE_CASES[name]
    report = fn(seed=7, **bounds)
    assert report["passed"], report["failures"][:3]
    got = canonical_digest(report)
    assert got == SUITE_DIGESTS[name], f"{name}: report digest is now {got}"


# ---------------------------------------------------------------------------
# CLI stdout

GRAPHS = {
    # Shi arrangement of rank 3: free on both sides
    "shi3": "group Z\nvertices 3\nedge 1 2 0\nedge 1 2 1\nedge 1 3 0\n"
    "edge 1 3 1\nedge 2 3 0\nedge 2 3 1\n",
    # parallel classes and a negative gain: neither free nor split
    "z3": "group Z\nvertices 3\nedge 1 2 0\nedge 1 2 2\nedge 1 3 -1\n"
    "edge 2 3 1\n",
    # free on both sides, so its certificates carry steps and replay
    "z4": "group Z\nvertices 4\nedge 1 2 -1\nedge 1 2 0\nedge 1 2 1\n"
    "edge 1 3 -1\nedge 1 3 0\nedge 2 4 1\n",
    # signed 4-cycle with one negative edge
    "cycle4": "group F 2\nvertices 4\nedge 1 2 0\nedge 1 4 1\nedge 2 3 0\n"
    "edge 3 4 0\n",
    "f3": "group F 3\nvertices 3\nedge 1 2 1\nedge 1 3 2\nedge 2 3 0\n",
    # chi splits, yet no edge admits a decider: a "no admissible edge"
    # refutation with a search tree
    "no-edge": "group Z\nvertices 4\nedge 1 2 1\nedge 2 3 -2\nedge 2 4 2\n"
    "edge 3 4 -2\nedge 3 4 -1\nedge 3 4 0\nedge 3 4 2\n",
    # an induced subgraph's chi does not split: a "forbidden substructure"
    # refutation
    "forbidden-f3": "group F 3\nvertices 4\nedge 1 2 0\nedge 1 2 1\nedge 1 3 0\n"
    "edge 1 3 1\nedge 1 4 1\nedge 2 3 0\nedge 2 3 1\nedge 2 3 2\nedge 2 4 2\n",
}

CLI_CASES = {
    "chi-shi3": ["chi", "shi3"],
    "chi-z4": ["chi", "z4"],
    "chi-cycle4": ["chi", "cycle4"],
    "chi-f3": ["chi", "f3"],
    "chi-z3-tsv": ["chi", "z3", "--output", "tsv"],
    "free-if-cone-z4": ["free", "z4", "--mode", "if-edges", "--kind", "cone"],
    "free-if-bias-z4": ["free", "z4", "--mode", "if-edges", "--kind", "bias"],
    "free-df-cone-z4": ["free", "z4", "--mode", "df-edges", "--kind", "cone"],
    "free-df-bias-z4": ["free", "z4", "--mode", "df-edges", "--kind", "bias"],
    "free-if-bias-shi3": ["free", "shi3", "--mode", "if-edges", "--kind", "bias"],
    "free-df-cone-z3": ["free", "z3", "--mode", "df-edges", "--kind", "cone"],
    "free-if-cone-no-edge": ["free", "no-edge", "--mode", "if-edges", "--kind", "cone"],
    "free-df-bias-forbidden-f3": [
        "free", "forbidden-f3", "--mode", "df-edges", "--kind", "bias"
    ],
    "signed-check-cycle4": ["signed-check", "cycle4"],
    "free3-shi3": ["free3", "shi3"],
    "free3-z3": ["free3", "z3"],
}

CLI_DIGESTS = {
    "chi-shi3": "faae6f72b71f05ffb19001bd0ca3836f5c8091daf9e6f5aff643a749bc323f01",
    "chi-z4": "608e2735e3105b2aa7c0474d20798cc94fe07652d1ffc2e265dce4d2377ddc40",
    "chi-cycle4": "b5eb6da23d4b457622d4a64c70c50c756420d26f98579e3e2be362ff4f153357",
    "chi-f3": "27acc8225c760f46a9948ed8c3285f537009d39bd557ebdee406546bfdfc8f4a",
    "chi-z3-tsv": "87a0cbf2a89a32ad2ca8c217165e95447fbef1832c6e24ab39212b51b3d96b80",
    "free-if-cone-z4": "fb3fdce6d5450352dce2d9da014d06dd2e2a0409221f488952104b6c9eec865f",
    "free-if-bias-z4": "b22ff4b4c253c65af3c186b28a744dc00fcd2736687180b7a16d719ff3394b77",
    "free-df-cone-z4": "60983fecf9fb2cdc7ace68c389e06bfa93c47f02a4b10645f3d302fbb8fa4c32",
    "free-df-bias-z4": "3d95431c5dc25e2f0099aa648b39d587103a0e0d9550ab67575028ad01ca8cac",
    "free-if-bias-shi3": "e1e07a944c2f7c9de85c926f8883dceeed943e853faa51615a487071efe0c5e4",
    "free-df-cone-z3": "08254aebd61e5b665a7ee2ac390c0822663ded5607b4e10980db2e30a07cf611",
    "free-if-cone-no-edge":
        "c51524d14ca3c2fd1c529db6ecea041a96be7a2bf0d2859b26b5e065e2185811",
    "free-df-bias-forbidden-f3":
        "940dc5eff3d76a19a0e2be357085bf0e38e42872c19a3c5d62cdca1b4c2f340d",
    "signed-check-cycle4": "006f66a60c74f34ae658d50e47f0024c8ee43d809d4bc6753f76acadb67ed2bc",
    "free3-shi3": "71b2df655d4e14701988027ecf81f70e8954ef54cd408c90be0c856f62214b14",
    "free3-z3": "65f5865e6394302d4e391e7af0aeae7c3bd59ef33c1326424a69e4e1395d1544",
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_digest(name, tmp_path, capsys):
    argv = []
    for arg in CLI_CASES[name]:
        if arg in GRAPHS:
            path = tmp_path / f"{arg}.txt"
            path.write_text(GRAPHS[arg])
            arg = str(path)
        argv.append(arg)
    code = main(argv)
    out = capsys.readouterr().out
    if "--output" in argv:
        doc = {"tsv": [l for l in out.splitlines() if not l.startswith("version\t")]}
    else:
        doc = json.loads(out)
        del doc["version"]
    got = canonical_digest({"exit": code, "stdout": doc})
    assert got == CLI_DIGESTS[name], f"{name}: stdout digest is now {got}"


# ---------------------------------------------------------------------------
# restriction to every member, which no suite reaches


def test_restriction_digest():
    graphs = [
        GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (1, 2, 1), (1, 3, 2), (2, 3, -1)]),
        GainGraph(group_f(3), (1, 2, 3), [(1, 2, 1), (1, 3, 2), (2, 3, 0)]),
    ]
    out = []
    for g in graphs:
        affin = build_affinographic(g)
        for arr in (affin, build_bias(g), build_cone(affin)):
            for h in arr.hyperplanes:
                out.append(repr(restriction(arr, h)))
                if arr.is_central:
                    out.append(repr(ziegler_restriction(arr, h)))
    got = canonical_digest({"restrictions": out})
    want = "7f24def2a15b770ba2c63a45ec7dfd3c5775656f2990aabc0446543a01e11d08"
    assert got == want, f"restriction digest is now {got}"
