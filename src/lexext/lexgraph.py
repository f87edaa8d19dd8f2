"""The lex graph L(n, m): construction, closed-form neighborhoods, and its
maximum independent sets.

The lex order on finite integer sets puts A before B when the minimum of
their symmetric difference lies in A.  On vertex pairs this sorts as
{1,2}, {1,3}, ..., {1,n}, {2,3}, ..., {2,n}, {3,4}, ...; the lex graph on
n vertices with m edges takes exactly the first m pairs.

Vertices are labeled 1..n throughout the public API.  Adjacency is stored
as one bitmask per vertex with bit j-1 standing for vertex j, which is
what the counting kernels consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .bounds import _cell
from .errors import DomainError

# Vertex sets are immutable so they can key dicts and land in frozen
# dataclasses; members are the 1-indexed vertex labels.
VertexSet = frozenset[int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n, adj = self.n, self.adj
        if n < 0:
            raise DomainError(f"graph order must be non-negative, got {n}")
        if len(adj) != n:
            raise DomainError(f"expected {n} adjacency rows, got {len(adj)}")
        if n and (min(adj) < 0 or max(adj) >> n):
            raise self._first_fault()
        # every bit above the diagonal has its mirror below it; that map is
        # one to one, so a total of twice the count above leaves no bit on
        # the diagonal and none below without its mirror
        above = 0
        for i, row in compress(enumerate(adj), adj):
            rest = row >> (i + 1)
            above += rest.bit_count()
            while rest:
                lsb = rest & -rest
                if not (adj[i + lsb.bit_length()] >> i) & 1:
                    raise self._first_fault()
                rest ^= lsb
        if sum(map(int.bit_count, adj)) != 2 * above:
            raise self._first_fault()

    def _first_fault(self) -> DomainError:
        """The error for the first bad row, the way a row-by-row reading
        would meet it."""
        for i, row in enumerate(self.adj):
            if row < 0 or row >> self.n:
                return DomainError(f"adjacency row {i + 1} has bits outside 1..{self.n}")
            if (row >> i) & 1:
                return DomainError(f"vertex {i + 1} is adjacent to itself")
            rest = row
            while rest:
                lsb = rest & -rest
                j = lsb.bit_length() - 1
                rest ^= lsb
                if not (self.adj[j] >> i) & 1:
                    return DomainError(
                        f"adjacency is not symmetric between {i + 1} and {j + 1}"
                    )
        raise AssertionError("no bad adjacency row")

    @property
    def m(self) -> int:
        """Edge count: half the total bitmask population."""
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u - 1] >> (v - 1)) & 1)

    def neighbors(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return _mask_to_set(self.adj[v - 1])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v - 1].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lex order."""
        out = []
        for i in range(self.n):
            row = self.adj[i] >> (i + 1)
            j = i + 1
            while row:
                if row & 1:
                    out.append((i + 1, j + 1))
                row >>= 1
                j += 1
        return out

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} outside 1..{self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise DomainError(f"edge ({u}, {v}) outside 1..{n}")
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if (rows[u - 1] >> (v - 1)) & 1:
                raise DomainError(f"duplicate edge ({u}, {v})")
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
        return cls(n=n, adj=tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n=n, adj=(0,) * n)


def _mask_to_set(mask: int) -> VertexSet:
    out = set()
    while mask:
        lsb = mask & -mask
        out.add(lsb.bit_length())
        mask ^= lsb
    return frozenset(out)


def lex_compare(a: Iterable[int], b: Iterable[int]) -> int:
    """Order two finite integer sets lexicographically.

    Returns a negative number when a comes first, positive when b does,
    and 0 exactly when the sets are equal: a precedes b when the minimum
    of the symmetric difference lies in a.
    """
    sa, sb = set(a), set(b)
    diff = sa ^ sb
    if not diff:
        return 0
    return -1 if min(diff) in sa else 1


def build_lex_graph(n: int, m: int) -> Graph:
    """Construct the graph whose edges are the first m pairs in lex order.

    Runs in O(n + m): pairs {i, i+1}, ..., {i, n} are emitted for
    i = 1, 2, ... until m edges are placed.
    """
    _cell(n, m)
    rows = [0] * n
    left = m
    i = 1
    while left > 0:
        take = min(left, n - i)
        for j in range(i + 1, i + take + 1):
            rows[i - 1] |= 1 << (j - 1)
            rows[j - 1] |= 1 << (i - 1)
        left -= take
        i += 1
    return Graph(n=n, adj=tuple(rows))


def lex_neighborhood(n: int, m: int, i: int) -> VertexSet:
    """Closed-form open neighborhood of vertex i in the lex graph.

    Computed from the depth decomposition alone, without building the
    graph.  With k and p_k the depth and last summand of sds(m, n):
    vertices below k see everything, vertex k sees everything below it
    plus {k+1, ..., k+p_k}, vertices in that run see {1, ..., k}, and the
    rest see {1, ..., k-1}.  m = 0 is rejected; callers use the empty set
    directly.
    """
    if not 1 <= i <= n:
        raise DomainError(f"vertex {i} outside 1..{n}")
    d, _ = _cell(n, m)
    if d is None:
        raise DomainError("lex_neighborhood requires m >= 1; an edgeless graph has empty neighborhoods")
    k, p_k = d.k, d.p_k
    if i < k:
        return frozenset(v for v in range(1, n + 1) if v != i)
    if i == k:
        return frozenset(range(1, k)) | frozenset(range(k + 1, k + p_k + 1))
    if i <= k + p_k:
        return frozenset(range(1, k + 1))
    return frozenset(range(1, k))


def is_independent_set(g: Graph, vertices: Iterable[int]) -> bool:
    """True when no two of the given vertices are adjacent in g."""
    mask = 0
    for v in vertices:
        g._check_vertex(v)
        mask |= 1 << (v - 1)
    rest = mask
    while rest:
        lsb = rest & -rest
        v = lsb.bit_length() - 1
        rest ^= lsb
        if g.adj[v] & mask:
            return False
    return True


def is_dominating_set(g: Graph, vertices: Iterable[int]) -> bool:
    """True when every vertex outside the set has a neighbor inside it."""
    mask = 0
    for v in vertices:
        g._check_vertex(v)
        mask |= 1 << (v - 1)
    for v in range(g.n):
        if not (mask >> v) & 1 and not g.adj[v] & mask:
            return False
    return True


def lex_maximum_independent_sets(n: int, m: int) -> list[VertexSet]:
    """All maximum independent sets of the lex graph, each of size n - k.

    The tail {k+1, ..., n} is always one; when p_k = 1 the set
    {k} united with {k+p_k+1, ..., n} has the same size and is the only
    other one.  The complete graph degenerates: every singleton is a
    maximum independent set, so all n of them come back, the two formula
    sets leading.  Every returned set is re-verified to be independent
    and dominating against the explicit construction.
    """
    d, _ = _cell(n, m)
    if d is None:
        raise DomainError("lex_maximum_independent_sets requires m >= 1")
    k, p_k = d.k, d.p_k
    if n - k == 1:
        # complete graph; n >= 2 here since m >= 1 needs n >= 2
        sets = [frozenset({v}) for v in range(n, 0, -1)]
    else:
        sets = [frozenset(range(k + 1, n + 1))]
        if p_k == 1:
            sets.append(frozenset({k}) | frozenset(range(k + p_k + 1, n + 1)))
    g = build_lex_graph(n, m)
    for s in sets:
        if len(s) != n - k or not is_independent_set(g, s) or not is_dominating_set(g, s):
            raise AssertionError(
                f"maximum independent set candidate {sorted(s)} failed "
                f"verification for n={n}, m={m}"
            )
    return sets
