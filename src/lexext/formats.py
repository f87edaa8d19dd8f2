"""Graph serialization: edgelist, graph6, and dot.

The edgelist format is the package's native one: first line ``n m``,
then one ``u v`` line per edge with 1 <= u < v <= n, space-separated,
LF-terminated, edges in lex order; every field is ASCII decimal digits.
graph6 follows the standard 6-bit upper-triangle encoding (vertices
0-indexed on the wire, translated at this boundary).  dot output is for
rendering only and has no parser.

Parsers raise FormatError carrying the offending line (edgelist) or byte
position (graph6).  A parser checks and decodes its text in a few passes
over the whole of it, each a C-level primitive (a regex scan, split,
int, min/max, str.translate, zip) rather than a step per edge or bit;
only building an edge list's rows loops over its edges.  When a bulk
check fails, a short scan in reading order finds the first bad line or
byte and raises the error a line-by-line reading would.  With max_order
given, a larger order is refused right after the header, before any row
is built.  A parser hands its rows to Graph, whose check of the rows is
the only other one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, islice
from operator import lt

from .errors import DomainError, FormatError
from .lexgraph import Graph

GRAPH6_HEADER = ">>graph6<<"
_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047
_G6_MAX = (1 << 36) - 1
_NOT_DIGIT_OR_SPACE = re.compile(r"[^0-9\s]")
# each graph6 data byte as the six bits it carries, high bit first
_G6_BITS = {63 + v: f"{v:06b}" for v in range(64)}


def emit_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _check_order(n: int, max_order: int | None) -> None:
    if max_order is not None and n > max_order:
        raise DomainError(f"counting is limited to order <= {max_order}, got n={n}")


def parse_edgelist(text: str, max_order: int | None = None) -> Graph:
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
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"expected 2 fields, got {len(header)}", line=1)
    n, m = map(int, header)
    if n < 1:
        raise FormatError(f"order must be >= 1, got {n}", line=1)
    _check_order(n, max_order)
    if len(lines) != 1 + m:
        raise FormatError(
            f"header says {m} edges but {len(lines) - 1} edge lines follow",
            line=len(lines),
        )
    fields = list(map(str.split, islice(lines, 1, None)))
    if not {*map(len, fields)} <= {2}:
        raise _first_bad_edge(fields, n)
    tokens = list(chain.from_iterable(fields))
    # a vertex recurs on many lines, so each distinct field is read once
    try:
        index = {t: int(t) - 1 for t in set(tokens)}
    except ValueError:  # a field longer than int() reads
        raise _first_bad_edge(fields, n) from None
    ends = list(map(index.__getitem__, tokens))
    us, vs = ends[::2], ends[1::2]
    labels = index.values()
    if m and (min(labels) < 0 or max(labels) >= n or not all(map(lt, us, vs))):
        raise _first_bad_edge(fields, n)
    rows = [0] * n
    for u, v in zip(us, vs):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    # a repeated edge sets no new bit
    if sum(map(int.bit_count, rows)) != 2 * m:
        raise _first_bad_edge(fields, n)
    return Graph(n, tuple(rows))


def _first_bad_edge(fields: list[list[str]], n: int) -> FormatError:
    """The error for the first bad edge line, the way a line-by-line
    reading would meet it."""
    seen = set()
    for line, parts in enumerate(fields, 2):
        if len(parts) != 2:
            return FormatError(f"expected 2 fields, got {len(parts)}", line=line)
        u, v = map(int, parts)
        if not 1 <= u < v <= n:
            return FormatError(f"edge ({u}, {v}) violates 1 <= u < v <= {n}", line=line)
        if (u, v) in seen:
            return FormatError(f"duplicate edge ({u}, {v})", line=line)
        seen.add((u, v))
    raise AssertionError("no bad edge line")


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


def parse_graph6(text: str, max_order: int | None = None) -> Graph:
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
    _check_order(n, max_order)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    data = text[pos:]
    if len(data) != nbytes:
        raise FormatError(
            f"byte {len(text)}: expected {nbytes} data bytes for n={n}, "
            f"got {len(data)}"
        )
    if data and (min(data) < "?" or max(data) > "~"):
        for p in range(pos, len(text)):  # raises at the first bad byte
            _g6_value(text, p)
    bits = data.translate(_G6_BITS)
    if "1" in bits[nbits:]:
        raise FormatError(f"byte {len(text) - 1}: nonzero padding bits")
    # upper triangle, column major: column j is x(0,j) .. x(j-1,j), the
    # vertices before j.  Padded with zeros to length n, the columns form
    # a matrix whose row j is x(j,0) .. x(j,n-1), the vertices after j.
    # Row j of the graph ORs the two, each read as bit i for vertex i: the
    # column reversed, and the matrix row taken from the last column down.
    columns = [bits[j * (j - 1) // 2:j * (j + 1) // 2].ljust(n, "0") for j in range(n)]
    after = map("".join, zip(*reversed(columns)))
    return Graph(n, tuple(int(c[::-1], 2) | int(a, 2) for c, a in zip(columns, after)))


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


def parse_document(text: str, fmt: str, max_order: int | None = None) -> GraphDocument:
    try:
        parser = PARSERS[fmt]
    except KeyError:
        raise FormatError(f"no parser for format {fmt!r}") from None
    return GraphDocument(format=fmt, graph=parser(text, max_order))


EMITTERS = {
    "edgelist": emit_edgelist,
    "graph6": emit_graph6,
    "dot": emit_dot,
}

PARSERS = {
    "edgelist": parse_edgelist,
    "graph6": parse_graph6,
}
