"""Inductive and divisional freeness along edges, with certificates.

Both deciders recurse over edge classes of a gain graph:

  inductive: Gamma qualifies when it has no edges, or some edge e has both
      branches qualifying and the exponent multiset of the contraction is
      contained in that of the deletion.
  divisional: Gamma qualifies when it has no edges, or some edge e has a
      qualifying contraction whose chi divides chi of Gamma.

Exponents always mean roots of the characteristic polynomial of the coned
affinographic arrangement (kind "cone") or of the bias arrangement (kind
"bias"); a polynomial that fails to split into nonnegative integer roots
certifies non-freeness of these central arrangements outright.

Two sound refutation short-circuits run before any edge search: a
non-splitting chi at the root, and an induced subgraph with non-splitting
chi (its coned and bias arrangements are localizations, and localizations
of free arrangements stay free).

One decider node serves both kinds: each graph is analyzed once, into a
pair of per-kind records (chi, roots, forbidden substructure, inductive
and divisional verdicts), and the deletion and contraction of each edge
are built at most once per node, on first use, for all four searches.
chi comes from charpoly's memo, which holds both kinds of a graph in one
entry.  Records are memoized per graph across calls; a node cap bounds
how many fresh subgraphs one top-level call may analyze.  Memoized roots
are tuples; callers receive lists of their own.

Memo values are hash-consed: chi and roots come from memos that hold one
object per distinct value, and each per-kind record and each record pair
is interned, so graphs with equal analyses share one immutable record.
clear_caches() empties the interning table with the memos.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from functools import lru_cache

from .charpoly import chi_of_kind
from .errors import GraphError, SearchBudgetExceeded, VerificationError
from .gaingraph import GainGraph, contract_edge, induced_subgraph

DEFAULT_NODE_CAP = 100_000
_SUBSCAN_MAX_VERTICES = 10

KINDS = ("cone", "bias")

# per-edge failure codes
DEL_NOT_FREE = "deletion branch does not qualify"
CON_NOT_FREE = "contraction branch does not qualify"
DEL_CHI_NON_SPLIT = "deletion branch chi does not split"
CON_CHI_NON_SPLIT = "contraction branch chi does not split"
EXP_NON_INCLUSION = "exponent non-inclusion"
CHI_NON_DIVISION = "chi non-division"

# top-level refutation reasons
NON_INTEGER_ROOTS = "non-integer chi roots"
FORBIDDEN_SUBSTRUCTURE = "forbidden substructure"
NO_ADMISSIBLE_EDGE = "no admissible edge"


def normalize_kind(kind):
    if kind not in KINDS:
        raise GraphError(f"unknown arrangement kind {kind!r}")
    return kind


def _included(sub, sup):
    counts = Counter(sup)
    for r in sub:
        counts[r] -= 1
        if counts[r] < 0:
            return False
    return True


class _Budget:
    __slots__ = ("used", "cap")

    def __init__(self, cap):
        self.used = 0
        self.cap = cap

    def spend(self):
        self.used += 1
        if self.used > self.cap:
            raise SearchBudgetExceeded(
                f"freeness search exceeded its node cap of {self.cap}"
            )


_ANALYSIS = {}
# the one shared object per distinct _KindNode and per distinct record pair
_RECORDS = {}


def clear_caches():
    _roots_of.cache_clear()
    _ANALYSIS.clear()
    _RECORDS.clear()


def _intern(value):
    return _RECORDS.setdefault(value, value)


@lru_cache(maxsize=None)
def _roots_of(poly):
    """The integer roots of poly as a tuple, or None; shared, so immutable."""
    roots = poly.integer_roots()
    return None if roots is None else tuple(roots)


class _KindNode(
    namedtuple("_KindNode", "chi roots sub inductive divisional")
):
    """One kind's analysis of one graph.

    sub: (subset, chi) of a forbidden induced subgraph, or None.
    inductive, divisional: (verdict, pivot edge, detail), where detail is
    a refutation reason or the tuple of per-edge failures.
    """

    __slots__ = ()


def _analyze(graph, budget):
    """Shared decider node: a _KindNode per entry of KINDS, in that order.

    The deletion and contraction of an edge are built on first use and
    serve both deciders and both kinds; so do the induced subgraphs of the
    forbidden-substructure scan.
    """
    rec = _ANALYSIS.get(graph)
    if rec is not None:
        return rec
    budget.spend()
    edges = graph.edges
    branches = [None] * len(edges)

    def branch(k):
        pair = branches[k]
        if pair is None:
            pair = branches[k] = _branches(graph, edges[k])
        return pair

    subgraphs = None
    nodes = []
    for i, kind in enumerate(KINDS):
        chi = chi_of_kind(graph, kind)
        roots = _roots_of(chi)
        sub = None
        if not edges:
            inductive = divisional = (True, None, None)
        elif roots is None:
            inductive = divisional = (False, None, NON_INTEGER_ROOTS)
        else:
            if subgraphs is None:
                subgraphs = _induced_subgraphs(graph)
            sub = _forbidden_substructure(subgraphs, kind)
            if sub is not None:
                inductive = divisional = (False, None, FORBIDDEN_SUBSTRUCTURE)
            else:
                inductive = _search_if(edges, branch, i, budget)
                divisional = _search_df(edges, branch, i, chi, budget)
        nodes.append(_intern(_KindNode(chi, roots, sub, inductive, divisional)))
    rec = _ANALYSIS[graph] = _intern(tuple(nodes))
    return rec


def _induced_subgraphs(graph):
    """(subset, subgraph) for every proper induced subgraph on at least 3
    vertices that has an edge, in scan order."""
    n = graph.n_vertices
    if n > _SUBSCAN_MAX_VERTICES:
        return ()
    out = []
    for size in range(3, n):
        for subset in itertools.combinations(graph.vertices, size):
            sg = induced_subgraph(graph, subset)
            if sg.edges:
                out.append((subset, sg))
    return out


def _forbidden_substructure(subgraphs, kind):
    """The first induced subgraph with non-splitting chi, if one exists."""
    for subset, sg in subgraphs:
        chi_sub = chi_of_kind(sg, kind)
        if _roots_of(chi_sub) is None:
            return (subset, chi_sub)
    return None


def _branches(graph, e):
    deleted = GainGraph._make(
        (graph.group, graph.vertices, tuple(x for x in graph.edges if x != e))
    )
    return deleted, contract_edge(graph, e)


def _search_if(edges, branch, i, budget):
    kind = KINDS[i]
    fails = []
    for k, e in enumerate(edges):
        deleted, contracted = branch(k)
        roots_del = _roots_of(chi_of_kind(deleted, kind))
        if roots_del is None:
            fails.append((e, DEL_CHI_NON_SPLIT))
            continue
        roots_con = _roots_of(chi_of_kind(contracted, kind))
        if roots_con is None:
            fails.append((e, CON_CHI_NON_SPLIT))
            continue
        if not _included(roots_con, roots_del):
            fails.append((e, EXP_NON_INCLUSION))
            continue
        if not _analyze(contracted, budget)[i].inductive[0]:
            fails.append((e, CON_NOT_FREE))
            continue
        if not _analyze(deleted, budget)[i].inductive[0]:
            fails.append((e, DEL_NOT_FREE))
            continue
        return (True, e, None)
    return (False, None, tuple(fails))


def _search_df(edges, branch, i, chi, budget):
    kind = KINDS[i]
    fails = []
    for k, e in enumerate(edges):
        _, contracted = branch(k)
        chi_con = chi_of_kind(contracted, kind)
        if not chi_con.divides(chi):
            fails.append((e, CHI_NON_DIVISION))
            continue
        if not _analyze(contracted, budget)[i].divisional[0]:
            fails.append((e, CON_NOT_FREE))
            continue
        return (True, e, None)
    return (False, None, tuple(fails))


# ---------------------------------------------------------------------------
# certificates


class FreenessCertificate(
    namedtuple(
        "FreenessCertificate",
        "decider kind graph_key verdict chi exponents steps refutation"
        " nodes_explored",
    )
):
    """Replayable record of one decider run.

    For a yes verdict, steps lists every subgraph of the successful
    derivation once, in depth-first preorder, each with its pivot edge and
    branch keys.  For a no verdict, refutation carries the reason and the
    explored search tree.
    """

    __slots__ = ()

    def to_json(self):
        return {
            "decider": self.decider,
            "kind": self.kind,
            "verdict": self.verdict,
            "chi": self.chi.to_json(),
            "exponents": list(self.exponents) if self.exponents else None,
            "steps": [
                {
                    "vertices": list(s["vertices"]),
                    "edges": [list(e) for e in s["edges"]],
                    "pivot": list(s["pivot"]) if s["pivot"] else None,
                    "chi": s["chi"],
                    "exponents": list(s["exponents"]),
                }
                for s in self.steps
            ],
            "refutation": _refutation_json(self.refutation),
            "nodes_explored": self.nodes_explored,
        }


def _edge_failures_json(failures):
    return [{"edge": list(e), "code": c} for e, c in failures]


def _refutation_json(ref):
    if ref is None:
        return None
    out = {"reason": ref["reason"]}
    if "chi" in ref:
        out["chi"] = str(ref["chi"])
    if "subset" in ref:
        out["subset"] = list(ref["subset"])
        out["subgraph_chi"] = str(ref["subgraph_chi"])
    if "edge_failures" in ref:
        out["edge_failures"] = _edge_failures_json(ref["edge_failures"])
    if "search_tree" in ref:
        out["search_tree"] = [
            {
                "vertices": list(n["vertices"]),
                "edges": [list(e) for e in n["edges"]],
                "chi": n["chi"],
                "edge_failures": _edge_failures_json(n["edge_failures"]),
                "reason": n["reason"],
            }
            for n in ref["search_tree"]
        ]
    return out


def _collect_witness(graph, decider, kind, budget):
    steps = []
    seen = set()
    stack = [graph]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        node = _analyze(g, budget)[KINDS.index(kind)]
        verdict, pivot, _ = getattr(node, decider)
        if not verdict:
            raise VerificationError("witness walk reached a refuted subgraph")
        steps.append(
            {
                "vertices": g.vertices,
                "edges": g.edges,
                "pivot": pivot,
                "chi": str(node.chi),
                "exponents": list(node.roots),
            }
        )
        if pivot is not None:
            deleted, contracted = _branches(g, pivot)
            if decider == "inductive":
                stack.append(deleted)
            stack.append(contracted)
    return tuple(steps)


def _collect_failure_tree(graph, decider, kind, budget, node_cap):
    nodes = []
    seen = set()
    stack = [graph]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if len(seen) > node_cap:
            raise SearchBudgetExceeded(
                f"failure certificate exceeds the node cap of {node_cap}"
            )
        node = _analyze(g, budget)[KINDS.index(kind)]
        verdict, _, detail = getattr(node, decider)
        if verdict:
            continue
        entry = {
            "vertices": g.vertices,
            "edges": g.edges,
            "chi": str(node.chi),
            "edge_failures": (),
            "reason": detail if isinstance(detail, str) else NO_ADMISSIBLE_EDGE,
        }
        if not isinstance(detail, str):
            entry["edge_failures"] = detail
            for e, code in detail:
                deleted, contracted = _branches(g, e)
                if code in (CON_NOT_FREE,):
                    stack.append(contracted)
                elif code in (DEL_NOT_FREE,):
                    stack.append(deleted)
        nodes.append(entry)
    return tuple(nodes)


def _certify(graph, decider, kind, node_cap):
    kind = normalize_kind(kind)
    budget = _Budget(node_cap)
    node = _analyze(graph, budget)[KINDS.index(kind)]
    chi = node.chi
    verdict, _, detail = getattr(node, decider)
    steps = ()
    refutation = None
    if verdict:
        steps = _collect_witness(graph, decider, kind, budget)
    else:
        if detail == NON_INTEGER_ROOTS:
            refutation = {"reason": NON_INTEGER_ROOTS, "chi": chi}
        elif detail == FORBIDDEN_SUBSTRUCTURE:
            subset, chi_sub = node.sub
            refutation = {
                "reason": FORBIDDEN_SUBSTRUCTURE,
                "subset": subset,
                "subgraph_chi": chi_sub,
            }
        else:
            refutation = {
                "reason": NO_ADMISSIBLE_EDGE,
                "edge_failures": detail,
                "search_tree": _collect_failure_tree(
                    graph, decider, kind, budget, node_cap
                ),
            }
    return FreenessCertificate(
        decider=decider,
        kind=kind,
        graph_key=tuple(graph),
        verdict=verdict,
        chi=chi,
        exponents=_fresh(node.roots),
        steps=steps,
        refutation=refutation,
        nodes_explored=budget.used,
    )


def if_along_edges(graph, kind="cone", node_cap=DEFAULT_NODE_CAP):
    """Decide inductive freeness along edges; returns a FreenessCertificate."""
    return _certify(graph, "inductive", kind, node_cap)


def df_along_edges(graph, kind="cone", node_cap=DEFAULT_NODE_CAP):
    """Decide divisional freeness along edges; returns a FreenessCertificate."""
    return _certify(graph, "divisional", kind, node_cap)


def freeness_verdicts(graph, node_cap=DEFAULT_NODE_CAP):
    """All four verdicts (decider x kind) without certificate assembly."""
    budget = _Budget(node_cap)
    rec = _analyze(graph, budget)
    return {
        "if": {k: n.inductive[0] for k, n in zip(KINDS, rec)},
        "df": {k: n.divisional[0] for k, n in zip(KINDS, rec)},
        "chi": {k: n.chi for k, n in zip(KINDS, rec)},
        "exponents": {k: _fresh(n.roots) for k, n in zip(KINDS, rec)},
        "nodes": budget.used,
    }


def _fresh(roots):
    """A caller's own list of the memoized roots, or None."""
    return None if roots is None else list(roots)


# ---------------------------------------------------------------------------
# replay


def replay_certificate(cert, graph):
    """Re-derive a yes-certificate from its steps without searching.

    Checks that every step's pivot is admissible by the decider's own rule
    and that every branch is itself a step, bottoming out at edgeless
    graphs.  Raises VerificationError on any mismatch, returns True.
    """
    if not cert.verdict:
        raise VerificationError("only yes-certificates replay")
    kind = cert.kind
    steps = {
        GainGraph(graph.group, s["vertices"], s["edges"]): s for s in cert.steps
    }
    root = GainGraph(graph.group, graph.vertices, graph.edges)
    if root != graph or root not in steps:
        raise VerificationError("certificate does not start at the graph")
    for g, s in steps.items():
        chi = chi_of_kind(g, kind)
        if str(chi) != s["chi"]:
            raise VerificationError(f"chi mismatch at {tuple(g)}")
        if tuple(chi.integer_roots() or ()) != tuple(s["exponents"]):
            raise VerificationError(f"exponent mismatch at {tuple(g)}")
        pivot = s["pivot"]
        if pivot is None:
            if g.edges:
                raise VerificationError("non-edgeless step without a pivot")
            continue
        if tuple(pivot) not in g.edges:
            raise VerificationError(f"pivot {pivot} not an edge of {tuple(g)}")
        deleted, contracted = _branches(g, tuple(pivot))
        chi_con = chi_of_kind(contracted, kind)
        if cert.decider == "inductive":
            roots_del = chi_of_kind(deleted, kind).integer_roots()
            roots_con = chi_con.integer_roots()
            if roots_del is None or roots_con is None:
                raise VerificationError("branch chi does not split")
            if not _included(roots_con, roots_del):
                raise VerificationError("exponent inclusion fails on replay")
            if deleted not in steps or contracted not in steps:
                raise VerificationError("branch missing from certificate")
        else:
            if not chi_con.divides(chi):
                raise VerificationError("divisibility fails on replay")
            if contracted not in steps:
                raise VerificationError("branch missing from certificate")
    return True
