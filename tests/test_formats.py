"""Serialization round trips, cross-checked against an independent codec."""

import random

import networkx as nx
import pytest

import naive
from lexext import (
    DomainError,
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
from lexext.formats import EMITTERS, GRAPH6_HEADER, PARSERS, _g6_encode_order
from naive import random_graph

# stand-ins for a mistyped byte: valid separators, digits, bytes outside
# the format and a non-ASCII digit that int() would read
GARBLE = "0123456789 \t\r\n-+x?@~>\x7f\u0662"


def outcome(parse, text):
    """What a parser makes of text: the graph, or the error as its class,
    message and line."""
    try:
        return parse(text)
    except (FormatError, DomainError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def graph_of_order(n, rng):
    density = rng.random() * 0.5
    return naive.random_graph_with_size(n, round(density * binom(n, 2)), rng)


def garbled(text, rng):
    if not text:
        return rng.choice(GARBLE)
    at = rng.randrange(len(text))
    return text[:at] + rng.choice(GARBLE) + text[at + 1:]


def corrupt_edgelist(g, rng):
    edges = g.edges()
    lines = [f"{u} {v}" for u, v in edges]
    rng.shuffle(lines)
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(len(lines) + 1)
        kind = rng.randrange(7)
        if kind == 0 and lines:
            lines.insert(at, rng.choice(lines))
        elif kind == 1 and at < len(lines):
            del lines[at]
        elif kind == 2 and at < len(lines):
            lines[at] = garbled(lines[at], rng)
        elif kind == 3 and at < len(lines):
            lines[at] += rng.choice((" 1", " 0", "\t7", " 1 2"))
        elif kind == 4 and at < len(lines):
            lines[at] = lines[at].replace(" ", rng.choice(("\t", "  ", " \t ")))
        elif kind == 5 and at < len(lines) and edges:
            u, v = rng.choice(edges)
            lines[at] = rng.choice((f"{v} {u}", f"0 {v}", f"{u} {g.n + 1}", f"{u} {u}", f"{u}"))
        elif kind == 6:
            lines.insert(at, rng.choice(("", " ", "1 2")))
    # the header counts the lines, or miscounts them by one
    m = len(lines) + rng.choice((0, 0, 0, 0, -1, 1))
    text = f"{g.n} {m}\n" + "".join(line + "\n" for line in lines)
    return text + rng.choice(("", "\n", " \n\n"))


def corrupt_graph6(g, rng):
    wire = emit_graph6(g)
    for _ in range(rng.randint(0, 2)):
        at = rng.randrange(len(wire) + 1)
        kind = rng.randrange(5)
        if kind == 0:
            wire = garbled(wire, rng)
        elif kind == 1:
            wire = wire[:at] + wire[at + 1:]
        elif kind == 2:
            wire = wire[:at] + rng.choice(GARBLE) + wire[at:]
        elif kind == 3 and binom(g.n, 2) % 6:
            wire = wire[:-1] + chr(63 + ((ord(wire[-1]) - 63) | 1))  # a padding bit
        elif kind == 4:
            wire = rng.choice((GRAPH6_HEADER, " ", "\n")) + wire + rng.choice(("", "\n"))
    return wire


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


class TestAgainstLineByLineReading:
    """The whole-text parsers return the graph, or raise the error with the
    class, message and line, that a reading line by line or byte by byte
    (naive.parse_edgelist, naive.parse_graph6) does."""

    def test_edgelist(self):
        rng = random.Random(311)
        for n in range(1, 71):
            g = graph_of_order(n, rng)
            for _ in range(4):
                text = corrupt_edgelist(g, rng)
                assert outcome(parse_edgelist, text) == outcome(naive.parse_edgelist, text), text

    def test_graph6(self):
        rng = random.Random(312)
        for n in range(1, 71):
            g = graph_of_order(n, rng)
            for _ in range(6):
                wire = corrupt_graph6(g, rng)
                assert outcome(parse_graph6, wire) == outcome(naive.parse_graph6, wire), wire

    def test_pinned_faults(self):
        # a field too long for int() fails there, unless a line before it fails first
        long = "9" * 5000
        edgelists = (
            "", "\n", "5\n", "1 2 3\n", "0 0\n", "3 1\n", "3 0\n1 2\n", " 2 1 \n 1\t2 \n",
            f"3 2\n1 2\n1 {long}\n", f"3 2\n1 1\n1 {long}\n",
        )
        for text in edgelists:
            assert outcome(parse_edgelist, text) == outcome(naive.parse_edgelist, text), text
        for wire in ("", "~", "~?", "~??", "~??~", "~~??????", "~??B", "?", "@", "A_", "B", "C~~"):
            assert outcome(parse_graph6, wire) == outcome(naive.parse_graph6, wire), wire


class TestOrderCap:
    MESSAGE = "counting is limited to order <= 62, got n=63"

    def test_refused_right_after_the_header(self):
        # the edge lines and data bytes after the header are never read
        for parse, text in [
            (parse_edgelist, "63 2\n1 2\n"),
            (parse_graph6, "~??~" + "!"),
        ]:
            with pytest.raises(DomainError) as info:
                parse(text, max_order=62)
            assert str(info.value) == self.MESSAGE
        with pytest.raises(DomainError, match=self.MESSAGE):
            parse_document("63 0\n", "edgelist", 62)

    def test_cap_admits_its_own_order(self):
        assert parse_edgelist("62 0\n", max_order=62) == Graph.empty(62)
        assert parse_graph6(emit_graph6(Graph.empty(62)), max_order=62) == Graph.empty(62)


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
