"""Graph serialization: edgelist, graph6, and dot.

The edgelist format is the package's native one: first line ``n m``,
then one ``u v`` line per edge with 1 <= u < v <= n, space-separated,
LF-terminated, edges in lex order; every field is ASCII decimal digits.
graph6 follows the standard 6-bit upper-triangle encoding (vertices
0-indexed on the wire, translated at this boundary).  dot output is for
rendering only and has no parser.

Parsers raise FormatError carrying the offending line (edgelist) or byte
position (graph6).  A parser checks its text once, in reading order, so
the first bad line or byte is reported, and hands the rows it built to
Graph, whose check of the rows is the only other one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .arith import binom
from .errors import FormatError
from .lexgraph import Graph

GRAPH6_HEADER = ">>graph6<<"
_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047
_G6_MAX = (1 << 36) - 1
_NOT_DIGIT_OR_SPACE = re.compile(r"[^0-9\s]")


def emit_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    # fields are [0-9]+, checked in one pass over the text: int() alone
    # would also take signs, underscores and non-ASCII digits such as U+0662
    bad = _NOT_DIGIT_OR_SPACE.search(text)
    if bad:
        raise FormatError(
            f"field not an ASCII decimal: {bad.group()!r}",
            line=text.count("\n", 0, bad.start()) + 1,
        )
    lines = text.split("\n")
    # trailing blank lines are fine, blank lines elsewhere are not
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise FormatError("empty input, expected a header line 'n m'", line=1)

    def ints(line_no: int, expected: int) -> list[int]:
        parts = lines[line_no - 1].split()
        if len(parts) != expected:
            raise FormatError(
                f"expected {expected} fields, got {len(parts)}", line=line_no
            )
        return [int(p) for p in parts]

    n, m = ints(1, 2)
    if n < 1:
        raise FormatError(f"order must be >= 1, got {n}", line=1)
    if len(lines) != 1 + m:
        raise FormatError(
            f"header says {m} edges but {len(lines) - 1} edge lines follow",
            line=len(lines),
        )
    rows = [0] * n
    for line_no in range(2, 2 + m):
        u, v = ints(line_no, 2)
        if not 1 <= u < v <= n:
            raise FormatError(
                f"edge ({u}, {v}) violates 1 <= u < v <= {n}", line=line_no
            )
        if (rows[u - 1] >> (v - 1)) & 1:
            raise FormatError(f"duplicate edge ({u}, {v})", line=line_no)
        rows[u - 1] |= 1 << (v - 1)
        rows[v - 1] |= 1 << (u - 1)
    return Graph(n, tuple(rows))


def _g6_encode_order(n: int) -> str:
    if n <= _G6_MAX_SHORT:
        return chr(n + 63)
    if n <= _G6_MAX_LONG:
        return "~" + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    return "~~" + "".join(chr(((n >> s) & 0x3F) + 63) for s in (30, 24, 18, 12, 6, 0))


def emit_graph6(g: Graph) -> str:
    if g.n > _G6_MAX:
        raise FormatError(f"graph6 cannot encode order {g.n}")
    out = [_g6_encode_order(g.n)]
    bits = 0
    nbits = 0
    # upper triangle, column major: x(0,1), x(0,2), x(1,2), x(0,3), ...
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            bits = (bits << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(bits + 63))
                bits = nbits = 0
    if nbits:
        out.append(chr((bits << (6 - nbits)) + 63))
    return "".join(out)


def _g6_value(text: str, pos: int) -> int:
    if pos >= len(text):
        raise FormatError(f"byte {pos}: truncated graph6 data")
    c = ord(text[pos])
    if not 63 <= c <= 126:
        raise FormatError(f"byte {pos}: {text[pos]!r} outside graph6 range")
    return c - 63


def parse_graph6(text: str) -> Graph:
    text = text.strip()
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER):]
    if not text:
        raise FormatError("byte 0: empty graph6 input")
    pos = 0
    if text[pos] != "~":
        n = _g6_value(text, pos)
        pos = 1
    elif len(text) > 1 and text[1] != "~":
        vals = [_g6_value(text, p) for p in range(1, 4)]
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        if n <= _G6_MAX_SHORT:
            raise FormatError(f"byte 0: long order form used for n={n}")
        pos = 4
    else:
        vals = [_g6_value(text, p) for p in range(2, 8)]
        n = 0
        for v in vals:
            n = (n << 6) | v
        if n <= _G6_MAX_LONG:
            raise FormatError(f"byte 0: extra-long order form used for n={n}")
        pos = 8
    if n < 1:
        raise FormatError(f"byte 0: order must be >= 1, got {n}")
    nbits = binom(n, 2)
    nbytes = (nbits + 5) // 6
    if len(text) - pos != nbytes:
        raise FormatError(
            f"byte {len(text)}: expected {nbytes} data bytes for n={n}, "
            f"got {len(text) - pos}"
        )
    data = [_g6_value(text, p) for p in range(pos, len(text))]
    if nbytes and data[-1] & ((1 << (6 * nbytes - nbits)) - 1):
        raise FormatError(f"byte {len(text) - 1}: nonzero padding bits")
    bits = "".join(f"{v:06b}" for v in data)
    adj = [0] * n
    for j in range(1, n):
        # upper triangle, column major: column j is x(0,j) .. x(j-1,j),
        # so reversed it is row j's mask of the vertices before j
        column = int(bits[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2)
        adj[j] = column
        while column:
            lsb = column & -column
            adj[lsb.bit_length() - 1] |= 1 << j
            column ^= lsb
    return Graph(n, tuple(adj))


def emit_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(1, g.n + 1))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph together with the format it arrived in."""

    format: str
    graph: Graph


def parse_document(text: str, fmt: str) -> GraphDocument:
    try:
        parser = PARSERS[fmt]
    except KeyError:
        raise FormatError(f"no parser for format {fmt!r}") from None
    return GraphDocument(format=fmt, graph=parser(text))


EMITTERS = {
    "edgelist": emit_edgelist,
    "graph6": emit_graph6,
    "dot": emit_dot,
}

PARSERS = {
    "edgelist": parse_edgelist,
    "graph6": parse_graph6,
}
