"""Deliberately dumb reference oracles for the test suite.

Everything here enumerates subsets directly with no pruning, sharing no
algorithmic idea with the package kernels, so agreement between the two
is meaningful evidence.  Usable up to n around 16; the tests stay well
below that.
"""

from __future__ import annotations

from itertools import combinations

from lexext import Graph


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
