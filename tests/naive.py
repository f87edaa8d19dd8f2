"""Deliberately dumb reference oracles for the test suite.

Everything here enumerates subsets directly with no pruning, sharing no
algorithmic idea with the package kernels, so agreement between the two
is meaningful evidence.  Usable up to n around 16; the tests stay well
below that.
"""

from __future__ import annotations

import re
from itertools import combinations

from lexext import DomainError, FormatError, Graph


def is_independent(g: Graph, vertices) -> bool:
    vs = list(vertices)
    return all(not g.has_edge(u, v) for u, v in combinations(vs, 2))


def is_clique(g: Graph, vertices) -> bool:
    vs = list(vertices)
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def naive_profile(g: Graph) -> list[int]:
    """Count independent sets of each size by checking all 2^n subsets."""
    counts = [0] * (g.n + 1)
    verts = range(1, g.n + 1)
    for size in range(g.n + 1):
        for subset in combinations(verts, size):
            if is_independent(g, subset):
                counts[size] += 1
    return counts


def naive_maximum_independent_sets(g: Graph) -> tuple[int, set[frozenset[int]]]:
    """All maximum independent sets, found by scanning sizes downward."""
    verts = range(1, g.n + 1)
    for size in range(g.n, -1, -1):
        sets = {
            frozenset(subset)
            for subset in combinations(verts, size)
            if is_independent(g, subset)
        }
        if sets:
            return size, sets
    raise AssertionError("unreachable: the empty set is always independent")


def for_each_graph(n: int, m: int, visitor) -> int:
    """Deliver every labeled graph on [n] with m edges to ``visitor``, once
    each, in lex order of the edge combinations.  Returns the number of
    graphs visited."""
    pairs = list(combinations(range(1, n + 1), 2))
    visited = 0
    for edges in combinations(pairs, m):
        visitor(Graph.from_edges(n, edges))
        visited += 1
    return visited


def is_degree_sorted(g: Graph) -> bool:
    """deg(1) >= deg(2) >= ... >= deg(n)."""
    degrees = [len(g.neighbors(v)) for v in range(1, g.n + 1)]
    return all(a >= b for a, b in zip(degrees, degrees[1:]))


def search_key(g: Graph) -> list:
    """Where a degree-sorted graph comes in the order the kernels' sorted
    search visits them: vertex by vertex, its later neighbours, fewer
    before more, and equally many in lex order."""
    key = []
    for u in range(1, g.n + 1):
        later = [v for v in range(u + 1, g.n + 1) if g.has_edge(u, v)]
        key.append((len(later), later))
    return key


def naive_clique_count(g: Graph, r: int) -> int:
    verts = range(1, g.n + 1)
    return sum(1 for subset in combinations(verts, r) if is_clique(g, subset))


def random_graph(n: int, rng) -> Graph:
    """Uniform random labeled graph: each pair is an edge with chance 1/2."""
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < 0.5
    ]
    return Graph.from_edges(n, edges)


def random_graph_with_size(n: int, m: int, rng) -> Graph:
    """Uniform random labeled graph with exactly m edges."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Graph.from_edges(n, rng.sample(pairs, m))


def check_rows(n: int, adj) -> None:
    """Graph's row check, row by row and bit by bit: raise the
    DomainError of the first bad row."""
    if n < 0:
        raise DomainError(f"graph order must be non-negative, got {n}")
    if len(adj) != n:
        raise DomainError(f"expected {n} adjacency rows, got {len(adj)}")
    for i, row in enumerate(adj):
        if row < 0 or row >> n:
            raise DomainError(f"adjacency row {i + 1} has bits outside 1..{n}")
        if (row >> i) & 1:
            raise DomainError(f"vertex {i + 1} is adjacent to itself")
        for j in range(row.bit_length()):
            if (row >> j) & 1 and not (adj[j] >> i) & 1:
                raise DomainError(
                    f"adjacency is not symmetric between {i + 1} and {j + 1}"
                )


def parse_edgelist(text: str) -> Graph:
    """The edge-list parser read line by line, each line checked as it
    comes, so the first bad line is the one reported."""
    bad = re.search(r"[^0-9\s]", text)
    if bad:
        raise FormatError(
            f"field not an ASCII decimal: {bad.group()!r}",
            line=text.count("\n", 0, bad.start()) + 1,
        )
    lines = text.split("\n")
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise FormatError("empty input, expected a header line 'n m'", line=1)

    def ints(line_no: int) -> list[int]:
        parts = lines[line_no - 1].split()
        if len(parts) != 2:
            raise FormatError(f"expected 2 fields, got {len(parts)}", line=line_no)
        return [int(p) for p in parts]

    n, m = ints(1)
    if n < 1:
        raise FormatError(f"order must be >= 1, got {n}", line=1)
    if len(lines) != 1 + m:
        raise FormatError(
            f"header says {m} edges but {len(lines) - 1} edge lines follow",
            line=len(lines),
        )
    edges = {}
    for line_no in range(2, 2 + m):
        u, v = ints(line_no)
        if not 1 <= u < v <= n:
            raise FormatError(f"edge ({u}, {v}) violates 1 <= u < v <= {n}", line=line_no)
        if (u, v) in edges:
            raise FormatError(f"duplicate edge ({u}, {v})", line=line_no)
        edges[u, v] = None
    return Graph.from_edges(n, edges)


def _g6_value(text: str, pos: int) -> int:
    if pos >= len(text):
        raise FormatError(f"byte {pos}: truncated graph6 data")
    c = ord(text[pos])
    if not 63 <= c <= 126:
        raise FormatError(f"byte {pos}: {text[pos]!r} outside graph6 range")
    return c - 63


def parse_graph6(text: str) -> Graph:
    """The graph6 parser read byte by byte and bit by bit, so the first bad
    byte is the one reported."""
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise FormatError("byte 0: empty graph6 input")
    if text[0] != "~":
        n = _g6_value(text, 0)
        pos = 1
    elif len(text) > 1 and text[1] != "~":
        n = 0
        for p in range(1, 4):
            n = (n << 6) | _g6_value(text, p)
        if n <= 62:
            raise FormatError(f"byte 0: long order form used for n={n}")
        pos = 4
    else:
        n = 0
        for p in range(2, 8):
            n = (n << 6) | _g6_value(text, p)
        if n <= 258047:
            raise FormatError(f"byte 0: extra-long order form used for n={n}")
        pos = 8
    if n < 1:
        raise FormatError(f"byte 0: order must be >= 1, got {n}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(text) - pos != nbytes:
        raise FormatError(
            f"byte {len(text)}: expected {nbytes} data bytes for n={n}, "
            f"got {len(text) - pos}"
        )
    data = [_g6_value(text, p) for p in range(pos, len(text))]
    if nbytes and data[-1] & ((1 << (6 * nbytes - nbits)) - 1):
        raise FormatError(f"byte {len(text) - 1}: nonzero padding bits")
    bits = [(v >> s) & 1 for v in data for s in range(5, -1, -1)]
    # upper triangle, column major: x(0,1), x(0,2), x(1,2), x(0,3), ...
    pairs = [(i, j) for j in range(1, n + 1) for i in range(1, j)]
    return Graph.from_edges(n, [pair for pair, bit in zip(pairs, bits) if bit])
