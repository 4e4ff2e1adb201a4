"""Text format round trips and parse errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainarr.errors import BoundExceeded, ParseError
from gainarr.gaingraph import GROUP_Z, GainGraph, group_f
from gainarr.graphio import parse_graph, serialize_graph


def test_parse_basic_z():
    g, warnings = parse_graph("group Z\nvertices 3\nedge 1 2 0\nedge 2 3 -1\n")
    assert warnings == []
    assert g.group == GROUP_Z
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 2, 0), (2, 3, -1))


def test_parse_skips_comments_and_blanks():
    text = """
# a triangle
group Z

vertices 3   # three of them
edge 1 2 0
# middle comment
edge 1 3 0
edge 2 3 1
"""
    g, warnings = parse_graph(text)
    assert warnings == []
    assert len(g.edges) == 3


def test_parse_normalizes_orientation():
    g, _ = parse_graph("group Z\nvertices 2\nedge 2 1 3\n")
    assert g.edges == ((1, 2, -3),)


def test_parse_collapses_duplicates():
    text = "group Z\nvertices 2\nedge 1 2 5\nedge 1 2 5\nedge 2 1 -5\n"
    g, _ = parse_graph(text)
    assert g.edges == ((1, 2, 5),)


def test_parse_finite_group_reduces_with_warning():
    g, warnings = parse_graph("group F 3\nvertices 2\nedge 1 2 4\nedge 1 2 -1\n")
    assert g.group == group_f(3)
    assert g.edges == ((1, 2, 1), (1, 2, 2))
    assert warnings == [
        "line 3: gain 4 reduced to 1 mod 3",
        "line 4: gain -1 reduced to 2 mod 3",
    ]


def test_parse_rejects_composite_group_order():
    with pytest.raises(ParseError, match="line 1: group order 4 is not prime"):
        parse_graph("group F 4\nvertices 2\n")


def test_parse_large_group_orders():
    g, _ = parse_graph("group F 2305843009213693951\nvertices 2\nedge 1 2 1\n")
    assert g.group == group_f(2**61 - 1)
    with pytest.raises(ParseError, match="line 1: group order 2305843009213693953 is not prime"):
        parse_graph("group F 2305843009213693953\nvertices 2\n")
    with pytest.raises(ParseError, match="line 2: group order .* is too large"):
        parse_graph(f"\ngroup F {2**89 - 1}\nvertices 2\n")


def test_parse_checks_vertex_bound_before_building():
    text = "group Z\nvertices 300000000\nedge 1 2 1\n"
    with pytest.raises(BoundExceeded, match="300000000 vertices exceeds --max-vertices 8"):
        parse_graph(text, max_vertices=8)
    g, _ = parse_graph("group Z\nvertices 8\n", max_vertices=8)
    assert g.n_vertices == 8


def test_parse_rejects_bad_group_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("group Q\nvertices 2\n")
    with pytest.raises(ParseError, match="line 2: bad group order"):
        parse_graph("# leading comment\ngroup F seven\nvertices 2\n")


def test_parse_rejects_bad_vertices_line():
    with pytest.raises(ParseError, match="line 2: expected 'vertices"):
        parse_graph("group Z\nedge 1 2 0\n")
    with pytest.raises(ParseError, match="vertex count must be positive"):
        parse_graph("group Z\nvertices 0\n")


def test_parse_rejects_malformed_edge():
    with pytest.raises(ParseError, match="line 3: expected 'edge"):
        parse_graph("group Z\nvertices 2\nedge 1 2\n")
    with pytest.raises(ParseError, match="line 3: non-integer"):
        parse_graph("group Z\nvertices 2\nedge 1 2 x\n")


def test_parse_rejects_loop_with_line_number():
    with pytest.raises(ParseError, match="line 4: loop edge at vertex 2"):
        parse_graph("group Z\nvertices 3\nedge 1 2 0\nedge 2 2 1\n")


def test_parse_rejects_out_of_range_vertex():
    with pytest.raises(ParseError, match="line 3: vertex out of range"):
        parse_graph("group Z\nvertices 2\nedge 1 3 0\n")


def test_parse_rejects_truncated_input():
    with pytest.raises(ParseError, match="missing group line"):
        parse_graph("# nothing here\n")
    with pytest.raises(ParseError, match="missing vertices line"):
        parse_graph("group Z\n")


def test_round_trip_z():
    g = GainGraph(GROUP_Z, (1, 2, 3), [(1, 2, 0), (1, 3, -2), (2, 3, 1)])
    parsed, warnings = parse_graph(serialize_graph(g))
    assert warnings == []
    assert parsed == g


def test_round_trip_finite():
    g = GainGraph(group_f(5), (1, 2), [(1, 2, 0), (1, 2, 4)])
    parsed, warnings = parse_graph(serialize_graph(g))
    assert warnings == []
    assert parsed == g


def test_serialize_relabels_vertices():
    g = GainGraph(GROUP_Z, (3, 7, 9), [(3, 7, 1), (7, 9, -1)])
    text = serialize_graph(g)
    assert text == "group Z\nvertices 3\nedge 1 2 1\nedge 2 3 -1\n"


# a valid header or a fuzzed line, then edge lines with at most one fuzzed
# line among them: well-formed lines shuffled, token soup, arbitrary text
numbers = st.one_of(st.integers(-3, 5), st.sampled_from([2**61 - 1, 10**30]))
lines = st.one_of(
    st.just("group Z"),
    numbers.map("group F {}".format),
    numbers.map("vertices {}".format),
    st.tuples(numbers, numbers, numbers).map(lambda t: "edge %d %d %d" % t),
    st.lists(
        st.sampled_from(
            ["group", "Z", "F", "vertices", "edge", "#", "1", "-2", "1e3", "0x10"]
        ),
        max_size=5,
    ).map(" ".join),
    st.text(max_size=12),
)
headers = st.sampled_from(
    ["group Z\nvertices 3", "group F 3\nvertices 4", "group F 2\nvertices 3"]
)
edges = st.tuples(st.sampled_from([(1, 2), (3, 1), (2, 3)]), st.integers(-2, 2)).map(
    lambda t: "edge %d %d %d" % (*t[0], t[1])
)


@st.composite
def documents(draw):
    body = draw(st.lists(edges, max_size=5))
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), draw(lines))
    return "\n".join([draw(st.one_of(headers, lines)), *body])


@settings(max_examples=300, deadline=None)
@given(documents())
def test_fuzzed_text_raises_only_parse_errors(text):
    try:
        g, _ = parse_graph(text, max_vertices=8)
    except (ParseError, BoundExceeded):
        return
    assert parse_graph(serialize_graph(g), max_vertices=8)[0] == g
