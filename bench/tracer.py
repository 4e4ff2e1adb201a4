"""Per-layer tracing from outside the program.

install() replaces public functions of the gainarr modules with wrappers
that record a span per call, and hot methods with wrappers that only
count.  A wrapper is bound in every gainarr namespace that holds the
original, because modules such as verify and lowdim import by name.
Spans are folded into per-name totals in memory as they close; a layer's
self time is its span time minus the time of the spans it called.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Public functions timed as spans, by module (layer).
SPANS = {
    "scalars": ("rank_of_rows", "rref", "nullspace", "det"),
    "charpoly": (
        "intersection_poset",
        "chi_finite_field_oracle",
        "chi_gaingraph_recursive",
    ),
    "gaingraph": ("contract_edge",),
    "freeness": (
        "freeness_verdicts",
        "if_along_edges",
        "df_along_edges",
        "replay_certificate",
    ),
    "signed": ("signed_freeness_criterion",),
    "arrangement": (
        "build_affinographic",
        "build_bias",
        "build_cone",
        "essentialize_with_map",
        "ziegler_restriction",
    ),
    "lowdim": (
        "exp2_solver",
        "yoshinaga_free3",
        "coincidence_3dim",
        "schur_bialternant_check",
    ),
    "graphio": ("parse_graph",),
    "verify": (
        "cross_oracle_suite",
        "chi_identity_suite",
        "kind_agreement_suite",
        "signed_suite",
        "lowdim_suite",
        "coincidence_suite",
    ),
    # Only main is wrapped: the cmd_* handlers it dispatches to, argument
    # parsing and JSON output are its self time.
    "cli": ("main",),
}

# Methods too hot to time: counted only.
COUNTED = {
    ("scalars", "SpanTracker"): ("reduce", "add", "contains", "copy"),
    ("intpoly", "IntPolynomial"): ("shift", "divides", "integer_roots"),
}

POSET = "charpoly.intersection_poset"


def per_layer_units():
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for (mod, cls), methods in COUNTED.items():
        for m in methods:
            units[f"{mod}.{cls}.{m}.calls"] = "count"
    for mod, fns in SPANS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            if mod == "verify":
                units[f"{name}.s"] = "s"
            elif mod != "cli":
                units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
    units["charpoly.poset_flats"] = "count"
    units["charpoly.flats_per_add"] = "ratio"
    units["freeness.nodes_explored"] = "count"
    units["cli.startup_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.flats = 0
        self.poset_adds = 0
        self.nodes = 0
        self._child = [0.0]  # time covered by child spans, one slot per open span
        self._in_poset = 0

    def _span(self, name, fn):
        calls, total, self_time, child = self.calls, self.total, self.self_time, self._child
        clock = time.perf_counter
        is_poset = name == POSET

        def wrapper(*args, **kwargs):
            child.append(0.0)
            if is_poset:
                self._in_poset += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                if is_poset:
                    self._in_poset -= 1
                inner = child.pop()
                child[-1] += d
                calls[name] += 1
                total[name] += d
                self_time[name] += d - inner
            self._observe(name, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, out):
        if name == POSET:
            self.flats += len(out)
        elif name in ("freeness.if_along_edges", "freeness.df_along_edges"):
            self.nodes += out.nodes_explored
        elif name == "freeness.freeness_verdicts":
            self.nodes += out["nodes"]

    def _counted(self, name, fn):
        calls = self.calls

        if name == "scalars.SpanTracker.add":

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if self._in_poset:
                    self.poset_adds += 1
                return fn(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the gainarr modules already imported; import them first."""
        import gainarr  # noqa: F401  (binds every layer module)

        namespaces = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "gainarr" or n.startswith("gainarr."))
        ]
        for mod, fns in SPANS.items():
            module = sys.modules.get(f"gainarr.{mod}")
            if module is None:
                continue
            for fn in fns:
                orig = getattr(module, fn)
                wrapped = self._span(f"{mod}.{fn}", orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, attr, wrapped)
        for (mod, cls), methods in COUNTED.items():
            klass = getattr(sys.modules[f"gainarr.{mod}"], cls)
            for m in methods:
                setattr(klass, m, self._counted(f"{mod}.{cls}.{m}", getattr(klass, m)))
        return self

    def summary(self):
        """Per-layer values this process measured, JSON-ready."""
        fields = {"calls": self.calls, "self_s": self.self_time, "s": self.total}
        out = {}
        for metric in per_layer_units():
            name, _, field = metric.rpartition(".")
            if field in fields:
                out[metric] = fields[field][name]
        out["charpoly.poset_flats"] = self.flats
        # SpanTracker.add calls made inside intersection_poset: one per
        # attempted closure, so flats / poset_adds is the useful share
        out["charpoly.poset_adds"] = self.poset_adds
        out["freeness.nodes_explored"] = self.nodes
        return out
