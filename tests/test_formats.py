"""Serialization round trips, cross-checked against an independent codec."""

import random

import networkx as nx
import pytest

from lexext import (
    FormatError,
    Graph,
    binom,
    build_lex_graph,
    emit_dot,
    emit_edgelist,
    emit_graph6,
    parse_document,
    parse_edgelist,
    parse_graph6,
)
from lexext.formats import EMITTERS, PARSERS, _g6_encode_order
from naive import random_graph


def to_networkx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from((u - 1, v - 1) for u, v in g.edges())
    return nxg


class TestEdgelist:
    def test_emit_pinned(self):
        assert emit_edgelist(build_lex_graph(5, 6)) == (
            "5 6\n1 2\n1 3\n1 4\n1 5\n2 3\n2 4\n"
        )

    def test_emit_edgeless(self):
        assert emit_edgelist(Graph.empty(3)) == "3 0\n"

    def test_round_trip_lex_graphs(self):
        for n in range(1, 9):
            for m in range(binom(n, 2) + 1):
                g = build_lex_graph(n, m)
                text = emit_edgelist(g)
                assert parse_edgelist(text) == g
                assert emit_edgelist(parse_edgelist(text)) == text

    def test_round_trip_random(self):
        rng = random.Random(301)
        for _ in range(60):
            g = random_graph(rng.randint(1, 12), rng)
            assert parse_edgelist(emit_edgelist(g)) == g

    def test_accepts_unordered_edges(self):
        g = parse_edgelist("3 2\n2 3\n1 2\n")
        assert g.edges() == [(1, 2), (2, 3)]

    def test_trailing_blank_lines_ok(self):
        assert parse_edgelist("2 1\n1 2\n\n\n").m == 1

    def test_error_positions(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_edgelist("")
        with pytest.raises(FormatError, match="line 1"):
            parse_edgelist("5\n")
        with pytest.raises(FormatError, match="line 1"):
            parse_edgelist("a b\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_edgelist("3 1\n1 2 3\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_edgelist("3 1\nx y\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_edgelist("3 1\n2 1\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_edgelist("3 1\n1 4\n")
        with pytest.raises(FormatError, match="line 3"):
            parse_edgelist("3 2\n1 2\n1 2\n")
        # the duplicate on line 3 comes before the range error on line 4
        with pytest.raises(FormatError, match="line 3"):
            parse_edgelist("3 3\n1 2\n1 2\n1 4\n")
        # fields are [0-9]+, though int() takes each of these
        for field in ("+2", "-2", "0_2", "\u0662", "\uff12"):
            with pytest.raises(FormatError, match="line 2: field not an ASCII decimal"):
                parse_edgelist(f"3 1\n1 {field}\n")
        with pytest.raises(FormatError, match="line 1: field not an ASCII decimal"):
            parse_edgelist("3 -1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError, match="2 edges but 1"):
            parse_edgelist("3 2\n1 2\n")
        with pytest.raises(FormatError, match="1 edges but 2"):
            parse_edgelist("3 1\n1 2\n1 3\n")

    def test_line_attribute(self):
        with pytest.raises(FormatError) as info:
            parse_edgelist("3 1\n9 9\n")
        assert info.value.line == 2


class TestGraph6:
    def test_complete_four_pinned(self):
        assert emit_graph6(build_lex_graph(4, 6)) == "C~"
        assert parse_graph6("C~") == build_lex_graph(4, 6)

    def test_header_prefix_stripped(self):
        assert parse_graph6(">>graph6<<C~") == build_lex_graph(4, 6)

    def test_round_trip_lex_graphs(self):
        for n in range(1, 11):
            for m in range(binom(n, 2) + 1):
                g = build_lex_graph(n, m)
                assert parse_graph6(emit_graph6(g)) == g

    def test_matches_independent_codec(self):
        rng = random.Random(302)
        graphs = [random_graph(rng.randint(1, 20), rng) for _ in range(40)]
        graphs += [build_lex_graph(7, m) for m in range(binom(7, 2) + 1)]
        for g in graphs:
            expected = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
            assert emit_graph6(g) == expected

    def test_parses_independent_codec_output(self):
        rng = random.Random(303)
        for _ in range(40):
            g = random_graph(rng.randint(1, 20), rng)
            wire = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
            assert parse_graph6(wire) == g

    def test_long_order_form(self):
        g = Graph.from_edges(63, [(1, 2), (62, 63)])
        wire = emit_graph6(g)
        assert wire.startswith("~??~")
        assert parse_graph6(wire) == g
        expected = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert wire == expected

    def test_order_prefix_values(self):
        assert _g6_encode_order(0) == "?"
        assert _g6_encode_order(62) == chr(125)
        assert _g6_encode_order(63) == "~??~"
        # the worked example from the format's own documentation
        assert _g6_encode_order(12345) == "~B?x"
        assert _g6_encode_order(258048) == "~~" + "???" + "~" + "??"

    def test_byte_position_errors(self):
        with pytest.raises(FormatError, match="byte 0"):
            parse_graph6("")
        with pytest.raises(FormatError, match="byte 1"):
            parse_graph6("C" + chr(30))
        with pytest.raises(FormatError):
            parse_graph6("C~~~")  # too many data bytes
        with pytest.raises(FormatError):
            parse_graph6("C")  # truncated data
        with pytest.raises(FormatError, match="padding"):
            parse_graph6("B" + chr(63 + 1))  # n=3 needs 3 bits, low bits must be 0

    def test_rejects_non_canonical_order(self):
        # n = 4 must use the single-byte header
        with pytest.raises(FormatError, match="long order form"):
            parse_graph6("~??C" + "~")


class TestDot:
    def test_shape(self):
        out = emit_dot(build_lex_graph(3, 2))
        assert out == "graph G {\n  1;\n  2;\n  3;\n  1 -- 2;\n  1 -- 3;\n}\n"

    def test_isolated_vertices_present(self):
        out = emit_dot(Graph.empty(2))
        assert "1;" in out and "2;" in out and "--" not in out


class TestRegistries:
    def test_tables(self):
        assert set(EMITTERS) == {"edgelist", "graph6", "dot"}
        assert set(PARSERS) == {"edgelist", "graph6"}

    def test_parse_document(self):
        doc = parse_document("2 1\n1 2\n", "edgelist")
        assert doc.format == "edgelist"
        assert doc.graph.m == 1
        with pytest.raises(FormatError, match="no parser"):
            parse_document("x", "dot")
