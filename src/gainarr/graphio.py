"""Text serialization of gain graphs.

The format is line oriented: a `group Z` or `group F <p>` line, then
`vertices <n>`, then one `edge <i> <j> <g>` line per edge class with
1-based vertex labels.  Blank lines and `#` comments are ignored.
Duplicate edge lines collapse to one class and `edge j i g` with j > i
normalizes to the canonical orientation.
"""

from __future__ import annotations

from .errors import BoundExceeded, ParseError
from .gaingraph import GROUP_Z, GainGraph, group_f
from .scalars import PRIMALITY_BOUND, is_prime


def parse_graph(text, max_vertices=None):
    """Parse the text format.  Returns (graph, warnings).

    Warnings report gains outside the canonical residue range for a
    finite gain group; they are reduced, not rejected.  Malformed lines,
    loops, out-of-range vertices and group orders too large to test for
    primality raise ParseError with the line number.  A vertex count
    above max_vertices (when given) raises BoundExceeded as soon as the
    `vertices` line is read, before any graph is built.
    """
    group = None
    nverts = None
    edges = []
    warnings = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if group is None:
            if parts == ["group", "Z"]:
                group = GROUP_Z
            elif len(parts) == 3 and parts[0] == "group" and parts[1] == "F":
                try:
                    p = int(parts[2])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad group order {parts[2]!r}")
                if p >= PRIMALITY_BOUND:
                    raise ParseError(
                        f"line {lineno}: group order {p} is too large"
                        f" (primality is decided below {PRIMALITY_BOUND})"
                    )
                if not is_prime(p):
                    raise ParseError(f"line {lineno}: group order {p} is not prime")
                group = group_f(p)
            else:
                raise ParseError(
                    f"line {lineno}: expected 'group Z' or 'group F <p>', got {line!r}"
                )
            continue
        if nverts is None:
            if len(parts) == 2 and parts[0] == "vertices":
                try:
                    nverts = int(parts[1])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}")
                if nverts < 1:
                    raise ParseError(f"line {lineno}: vertex count must be positive")
                if max_vertices is not None and nverts > max_vertices:
                    raise BoundExceeded(
                        f"{nverts} vertices exceeds --max-vertices {max_vertices}"
                    )
            else:
                raise ParseError(f"line {lineno}: expected 'vertices <n>', got {line!r}")
            continue
        if len(parts) != 4 or parts[0] != "edge":
            raise ParseError(f"line {lineno}: expected 'edge <i> <j> <g>', got {line!r}")
        try:
            i, j, g = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer edge fields in {line!r}")
        if i == j:
            raise ParseError(f"line {lineno}: loop edge at vertex {i}")
        if not (1 <= i <= nverts and 1 <= j <= nverts):
            raise ParseError(f"line {lineno}: vertex out of range in {line!r}")
        if group != GROUP_Z and not 0 <= g < group[1]:
            warnings.append(
                f"line {lineno}: gain {g} reduced to {g % group[1]} mod {group[1]}"
            )
        edges.append((i, j, g))
    if group is None:
        raise ParseError("missing group line")
    if nverts is None:
        raise ParseError("missing vertices line")
    return GainGraph(group, range(1, nverts + 1), edges), warnings


def serialize_graph(graph):
    """The inverse of parse_graph, relabeling vertices to 1..n."""
    # vertices are stored sorted, so the relabeling preserves edge order
    label = {v: k for k, v in enumerate(graph.vertices, 1)}
    lines = ["group Z" if graph.group == GROUP_Z else f"group F {graph.group[1]}"]
    lines.append(f"vertices {len(graph.vertices)}")
    for i, j, g in graph.edges:
        lines.append(f"edge {label[i]} {label[j]} {g}")
    return "\n".join(lines) + "\n"
