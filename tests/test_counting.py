"""Independent-set counting against the naive oracle and known graphs."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from lexext import (
    Graph,
    IndependenceProfile,
    binom,
    build_lex_graph,
    clique_profile,
    complement,
    independence_profile,
)
from naive import naive_clique_count, naive_profile, random_graph


def from_networkx(nxg) -> Graph:
    # networkx labels 0-based; shift to this package's 1-based vertices
    nodes = sorted(nxg.nodes())
    index = {v: i + 1 for i, v in enumerate(nodes)}
    return Graph.from_edges(
        len(nodes),
        sorted(tuple(sorted((index[u], index[v]))) for u, v in nxg.edges()),
    )


class TestProfileType:
    def test_accessors(self):
        p = IndependenceProfile(counts=(1, 5, 4, 1, 0, 0))
        assert p.n == 5
        assert p.size_count(2) == 4
        assert p.size_count(0) == 1
        assert p.total() == 11
        assert p.alpha() == 3

    def test_out_of_range_sizes_are_zero(self):
        p = IndependenceProfile(counts=(1, 3, 1, 0))
        assert p.size_count(17) == 0
        assert p.size_count(-1) == 0


class TestIndependenceProfile:
    def test_pinned_lex_graph(self):
        p = independence_profile(build_lex_graph(5, 6))
        assert p.counts == (1, 5, 4, 1, 0, 0)

    def test_edgeless_is_binomial_row(self):
        p = independence_profile(Graph.empty(4))
        assert p.counts == (1, 4, 6, 4, 1)

    def test_complete_graph(self):
        p = independence_profile(build_lex_graph(4, 6))
        assert p.counts == (1, 4, 0, 0, 0)

    def test_petersen(self):
        # classically known: 1 + 10x + 30x^2 + 30x^3 + 5x^4
        p = independence_profile(from_networkx(nx.petersen_graph()))
        assert p.counts == (1, 10, 30, 30, 5, 0, 0, 0, 0, 0, 0)

    def test_matches_naive_on_lex_graphs(self):
        for n in range(1, 8):
            for m in range(binom(n, 2) + 1):
                g = build_lex_graph(n, m)
                assert list(independence_profile(g).counts) == naive_profile(g)

    def test_matches_naive_on_random_graphs(self):
        rng = random.Random(901)
        for _ in range(150):
            g = random_graph(rng.randint(1, 8), rng)
            assert list(independence_profile(g).counts) == naive_profile(g)

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=12), st.randoms(use_true_random=False))
    def test_structural_invariants(self, n, rng):
        g = random_graph(n, rng)
        p = independence_profile(g)
        assert len(p.counts) == n + 1
        assert p.counts[0] == 1
        assert p.counts[1] == n
        if n >= 2:
            assert p.counts[2] == binom(n, 2) - g.m
        assert all(0 <= p.counts[r] <= binom(n, r) for r in range(n + 1))
        assert p.total() == sum(p.counts)


class TestComplement:
    def test_involution_and_edge_count(self):
        rng = random.Random(903)
        for _ in range(50):
            g = random_graph(rng.randint(1, 10), rng)
            cg = complement(g)
            assert cg.m == binom(g.n, 2) - g.m
            assert complement(cg) == g

    def test_no_shared_edges(self):
        g = build_lex_graph(6, 7)
        cg = complement(g)
        assert set(g.edges()).isdisjoint(cg.edges())
        assert len(g.edges()) + len(cg.edges()) == binom(6, 2)


class TestCliqueProfile:
    def test_complete_graph_rows(self):
        p = clique_profile(build_lex_graph(4, 6))
        assert p.counts == (1, 4, 6, 4, 1)

    def test_matches_naive(self):
        rng = random.Random(904)
        for _ in range(60):
            g = random_graph(rng.randint(1, 8), rng)
            p = clique_profile(g)
            for r in range(g.n + 1):
                assert p.size_count(r) == naive_clique_count(g, r), (g.edges(), r)

    def test_duality_with_independence(self):
        rng = random.Random(905)
        for _ in range(40):
            g = random_graph(rng.randint(1, 9), rng)
            assert clique_profile(g).counts == independence_profile(complement(g)).counts
