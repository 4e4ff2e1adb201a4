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
pair of per-kind verdict records, and the deletion and contraction of
each edge are built at most once per node, on first use, for all four
searches.  Records keep only verdicts; _sides reads chi and roots of
both kinds from one memo on charpoly's interned chi pair, and the
forbidden scan builds its subgraphs on 1..k, so equal ones share it.

A search reads and writes the memo its _Budget carries; the node cap
bounds the graphs it analyzes afresh.  freeness_verdicts shares one memo
across calls and has no cap, so no verdict depends on earlier calls.  A
certificate searches with a memo of its own, so its nodes_explored, and
the cap, count every distinct graph its search analyzes, whatever the
process computed before.  Memoized roots are tuples; callers receive
lists of their own.

Each decider's local edge rule is stated once, in _local_failure, which
both the search and replay_certificate apply; one walk, _walk, collects
a yes-certificate's steps and a no-certificate's search tree.

Memo values are hash-consed: chi and roots come from memos that hold one
object per distinct chi or chi pair, and each per-kind record and record
pair is interned, so graphs with equal analyses share one immutable
record.  clear_caches() empties the interning table with the memos.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache

from .charpoly import _chi_rec, _cone
from .errors import GraphError, SearchBudgetExceeded, VerificationError
from .gaingraph import MAX_SCAN_VERTICES, GainGraph, contract_edge

DEFAULT_NODE_CAP = 100_000

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


def _included(sub, sup):
    """Multiset inclusion of ascending tuples: sub is a subsequence of sup."""
    rest = iter(sup)
    return all(r in rest for r in sub)


class _Budget:
    """One search's analysis memo and its count of fresh analyses."""

    __slots__ = ("used", "cap", "memo")

    def __init__(self, cap, memo):
        self.used = 0
        self.cap = cap
        self.memo = memo

    def spend(self):
        self.used += 1
        if self.used > self.cap:
            raise SearchBudgetExceeded(
                f"freeness search exceeded its node cap of {self.cap}"
            )


# freeness_verdicts' memo, shared across calls
_ANALYSIS = {}
# the one shared object per distinct _KindNode and per distinct record pair
_RECORDS = {}


def clear_caches():
    _sides_of.cache_clear()
    _ANALYSIS.clear()
    _RECORDS.clear()


def _intern(value):
    return _RECORDS.setdefault(value, value)


def _sides(graph):
    """(chi, roots) of graph per entry of KINDS; roots a tuple or None."""
    return _sides_of(_chi_rec(graph))


@lru_cache(maxsize=None)
def _sides_of(pair):
    """_sides on _chi_rec's interned pair; shared, so immutable."""
    sides = []
    for chi in (_cone(pair[0]), pair[1]):
        roots = chi.integer_roots()
        sides.append((chi, None if roots is None else tuple(roots)))
    return tuple(sides)


class _KindNode(namedtuple("_KindNode", "inductive divisional")):
    """One kind's verdicts on one graph.

    inductive, divisional: (verdict, pivot edge, detail), where detail is
    a refutation reason or the tuple of per-edge failures.
    """

    __slots__ = ()


def _analyze(graph, budget):
    """Shared decider node: a _KindNode per entry of KINDS, in that order.

    The deletion and contraction of an edge, with their _sides, are built
    on first use and serve both deciders and both kinds; so do the induced
    subgraphs of the forbidden-substructure scan.
    """
    rec = budget.memo.get(graph)
    if rec is not None:
        return rec
    budget.spend()
    edges = graph.edges
    branches = [None] * len(edges)

    def branch(k):
        b = branches[k]
        if b is None:
            deleted, contracted = _branches(graph, edges[k])
            b = branches[k] = (deleted, contracted, _sides(deleted), _sides(contracted))
        return b

    subgraphs = None
    nodes = []
    for i, side in enumerate(_sides(graph)):
        if not edges:
            inductive = divisional = (True, None, None)
        elif side[1] is None:
            inductive = divisional = (False, None, NON_INTEGER_ROOTS)
        else:
            if subgraphs is None:
                subgraphs = _induced_subgraphs(graph)
            if _forbidden_substructure(subgraphs, i) is not None:
                inductive = divisional = (False, None, FORBIDDEN_SUBSTRUCTURE)
            else:
                inductive = _search("inductive", edges, branch, i, side, budget)
                divisional = _search("divisional", edges, branch, i, side, budget)
        nodes.append(_intern(_KindNode(inductive, divisional)))
    rec = budget.memo[graph] = _intern(tuple(nodes))
    return rec


def _induced_subgraphs(graph):
    """(subset, _sides) of every proper induced subgraph on at least 3
    vertices that has an edge, in scan order, each built on 1..k: relabeling
    in order keeps every class canonical, the edge order and chi."""
    group, vertices, edges = graph
    if len(vertices) > MAX_SCAN_VERTICES:
        return ()
    out = []
    for size in range(3, len(vertices)):
        low = tuple(range(1, size + 1))
        for subset in itertools.combinations(vertices, size):
            at = dict(zip(subset, low))
            es = tuple((at[i], at[j], g) for i, j, g in edges if i in at and j in at)
            if es:
                out.append((subset, _sides(GainGraph._make((group, low, es)))))
    return out


def _forbidden_substructure(subgraphs, i):
    """(subset, chi) of the first induced subgraph whose chi of kind
    KINDS[i] does not split, or None."""
    return next(((sub, s[i][0]) for sub, s in subgraphs if s[i][1] is None), None)


def _branches(graph, e):
    deleted = GainGraph._make(
        (graph.group, graph.vertices, tuple(x for x in graph.edges if x != e))
    )
    return deleted, contract_edge(graph, e)


def _local_failure(decider, side, deleted, contracted):
    """The first local condition of the decider that an edge fails, or None.

    side, deleted, contracted: one kind's (chi, roots) of the graph and its
    branches.  inductive: both branch chi split and the contraction's
    exponents are contained in the deletion's; divisional: the
    contraction's chi divides chi.  The search and the replay both apply it.

    Divisibility is read off the roots.  Every chi is monic: the recursion
    subtracts lower-degree terms from t^n or (t - 1)^n, and the cone
    multiplies by t - 1.  If chi splits as prod (t - r_i), its monic
    divisors in the factorial ring Z[t] are the products over sub-multisets
    of the r_i.  So chi(G/e) divides chi exactly when it splits with roots
    included in the r_i.  Only a replayed step can have a chi that does
    not split; it falls back to the division.
    """
    if decider != "inductive":
        if side[1] is None:
            ok = contracted[0].divides(side[0])
        else:
            ok = contracted[1] is not None and _included(contracted[1], side[1])
        return None if ok else CHI_NON_DIVISION
    if deleted[1] is None:
        return DEL_CHI_NON_SPLIT
    if contracted[1] is None:
        return CON_CHI_NON_SPLIT
    if not _included(contracted[1], deleted[1]):
        return EXP_NON_INCLUSION
    return None


def _search(decider, edges, branch, i, side, budget):
    """(verdict, pivot, per-edge failures) of the decider at one node.

    An edge qualifies when it passes the local rule and its contraction,
    and for the inductive decider also its deletion, qualify in turn.
    """
    fails = []
    for k, e in enumerate(edges):
        deleted, contracted, s_del, s_con = branch(k)
        code = _local_failure(decider, side, s_del[i], s_con[i])
        if code is None and not getattr(_analyze(contracted, budget)[i], decider)[0]:
            code = CON_NOT_FREE
        if code is None and decider == "inductive":
            if not _analyze(deleted, budget)[i].inductive[0]:
                code = DEL_NOT_FREE
        if code is None:
            return (True, e, None)
        fails.append((e, code))
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
    derivation once, in depth-first preorder, each with its pivot edge.
    For a no verdict, refutation carries the reason and, when no edge is
    admissible, the explored search tree.  Steps and refutation hold
    their printed form: chi as a string, edge failures as {"edge", "code"}
    dicts.
    """

    __slots__ = ()

    def to_json(self):
        doc = self._asdict()
        del doc["graph_key"]
        doc["chi"] = self.chi.to_json()
        doc["exponents"] = self.exponents or None
        return doc


def _walk(graph, decider, i, verdict, memo):
    """The certificate's subgraphs, depth first from graph, each once.

    A yes verdict follows each pivot to its deletion (inductive only) and
    its contraction; a no verdict follows the failures that name a
    branch, and stops at branches that qualify.  The search that filled
    memo analyzed every branch it names, so the walk analyzes nothing.
    """
    out = []
    seen = set()
    stack = [graph]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        ok, pivot, detail = getattr(memo[g][i], decider)
        if ok != verdict:
            if verdict:
                raise VerificationError("witness walk reached a refuted subgraph")
            continue
        chi, roots = _sides(g)[i]
        entry = {"vertices": g.vertices, "edges": g.edges, "chi": str(chi)}
        if verdict:
            entry.update(pivot=pivot, exponents=list(roots))
            if pivot is not None:
                deleted, contracted = _branches(g, pivot)
                if decider == "inductive":
                    stack.append(deleted)
                stack.append(contracted)
        else:
            fails = () if isinstance(detail, str) else detail
            entry.update(
                edge_failures=[{"edge": e, "code": c} for e, c in fails],
                reason=NO_ADMISSIBLE_EDGE if fails else detail,
            )
            for e, code in fails:
                if code in (CON_NOT_FREE, DEL_NOT_FREE):
                    # _branches gives (deletion, contraction)
                    stack.append(_branches(g, e)[code == CON_NOT_FREE])
        out.append(entry)
    return tuple(out)


def _certify(graph, decider, kind, node_cap):
    if kind not in KINDS:
        raise GraphError(f"unknown arrangement kind {kind!r}")
    i = KINDS.index(kind)
    budget = _Budget(node_cap, {})
    verdict, _, detail = getattr(_analyze(graph, budget)[i], decider)
    chi, roots = _sides(graph)[i]
    steps = ()
    if detail == NON_INTEGER_ROOTS:
        refutation = {"reason": detail, "chi": str(chi)}
    elif detail == FORBIDDEN_SUBSTRUCTURE:
        subset, chi_sub = _forbidden_substructure(_induced_subgraphs(graph), i)
        refutation = {"reason": detail, "subset": subset, "subgraph_chi": str(chi_sub)}
    else:
        walk = _walk(graph, decider, i, verdict, budget.memo)
        if verdict:
            steps, refutation = walk, None
        else:
            refutation = {
                "reason": NO_ADMISSIBLE_EDGE,
                "edge_failures": walk[0]["edge_failures"],
                "search_tree": walk,
            }
    return FreenessCertificate(
        decider=decider,
        kind=kind,
        graph_key=tuple(graph),
        verdict=verdict,
        chi=chi,
        exponents=None if roots is None else list(roots),
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


def freeness_verdicts(graph):
    """All four verdicts (decider x kind) without certificate assembly,
    searched without a node cap, so it never raises SearchBudgetExceeded;
    "nodes" counts the graphs this call analyzed afresh, not memoized."""
    budget = _Budget(float("inf"), _ANALYSIS)
    rec = _analyze(graph, budget)
    return {
        "if": {k: n.inductive[0] for k, n in zip(KINDS, rec)},
        "df": {k: n.divisional[0] for k, n in zip(KINDS, rec)},
        "nodes": budget.used,
    }


# ---------------------------------------------------------------------------
# replay


def replay_certificate(cert, graph):
    """Re-derive a yes-certificate from its steps without searching.

    Checks that every step's pivot is admissible by the decider's own rule
    and that every branch is itself a step, bottoming out at edgeless
    graphs.  Raises VerificationError on any mismatch or on a step that is
    not a mapping or lacks a field, returns True.
    """
    decider, kind = cert.decider, cert.kind
    if decider not in ("inductive", "divisional") or kind not in KINDS:
        raise VerificationError(f"unknown decider {decider!r} or kind {kind!r}")
    if not cert.verdict:
        raise VerificationError("only yes-certificates replay")
    for s in cert.steps:
        if not isinstance(s, Mapping):
            raise VerificationError(f"certificate step {s!r} is not a mapping")
        missing = sorted({"vertices", "edges", "chi", "exponents", "pivot"} - s.keys())
        if missing:
            raise VerificationError(f"certificate step lacks {', '.join(missing)}")
    i = KINDS.index(kind)
    steps = {
        GainGraph(graph.group, s["vertices"], s["edges"]): s for s in cert.steps
    }
    root = GainGraph(graph.group, graph.vertices, graph.edges)
    if root != graph or root not in steps:
        raise VerificationError("certificate does not start at the graph")
    for g, s in steps.items():
        chi, roots = side = _sides(g)[i]
        if str(chi) != s["chi"]:
            raise VerificationError(f"chi mismatch at {tuple(g)}")
        if (roots or ()) != tuple(s["exponents"]):
            raise VerificationError(f"exponent mismatch at {tuple(g)}")
        pivot = s["pivot"]
        if pivot is None:
            if g.edges:
                raise VerificationError("non-edgeless step without a pivot")
            continue
        if tuple(pivot) not in g.edges:
            raise VerificationError(f"pivot {pivot} not an edge of {tuple(g)}")
        deleted, contracted = _branches(g, tuple(pivot))
        code = _local_failure(decider, side, _sides(deleted)[i], _sides(contracted)[i])
        if code is not None:
            raise VerificationError(
                f"pivot {pivot} of {tuple(g)} fails on replay: {code}"
            )
        needed = (deleted, contracted) if decider == "inductive" else (contracted,)
        if any(b not in steps for b in needed):
            raise VerificationError("branch missing from certificate")
    return True
