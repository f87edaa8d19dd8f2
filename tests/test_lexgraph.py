"""Lex graphs: construction, closed-form neighborhoods, extremal sets."""

import random
import time
from functools import cmp_to_key
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lexext import (
    DomainError,
    Graph,
    binom,
    build_lex_graph,
    is_dominating_set,
    is_independent_set,
    lex_compare,
    lex_maximum_independent_sets,
    lex_neighborhood,
    parse_edgelist,
    sds_decompose,
)
from lexext import bounds
from naive import check_rows, naive_maximum_independent_sets, random_graph_with_size


class TestGraphContainer:
    def test_from_edges_round_trip(self):
        g = Graph.from_edges(4, [(1, 2), (2, 3), (1, 4)])
        assert g.n == 4
        assert g.m == 3
        assert g.edges() == [(1, 2), (1, 4), (2, 3)]

    def test_has_edge_symmetric(self):
        g = Graph.from_edges(3, [(1, 3)])
        assert g.has_edge(1, 3) and g.has_edge(3, 1)
        assert not g.has_edge(1, 2) and not g.has_edge(2, 1)

    def test_neighbors_and_degree(self):
        g = Graph.from_edges(4, [(1, 2), (1, 3)])
        assert g.neighbors(1) == frozenset({2, 3})
        assert g.neighbors(4) == frozenset()
        assert g.degree(1) == 2
        assert g.degree(4) == 0

    def test_empty(self):
        g = Graph.empty(5)
        assert g.m == 0
        assert g.edges() == []

    def test_rejects_bad_edges(self):
        with pytest.raises(DomainError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(DomainError):
            Graph.from_edges(3, [(0, 2)])
        with pytest.raises(DomainError):
            Graph.from_edges(3, [(2, 4)])
        with pytest.raises(DomainError):
            Graph.from_edges(3, [(1, 2), (2, 1)])

    def test_rejects_malformed_adjacency(self):
        with pytest.raises(DomainError):
            Graph(2, (0b10, 0b00))  # asymmetric
        with pytest.raises(DomainError):
            Graph(2, (0b01, 0b00))  # self-loop bit
        with pytest.raises(DomainError):
            Graph(2, (0b100, 0b000))  # bit beyond order

    def test_row_check_matches_reading_bit_by_bit(self):
        # the first fault that naive.check_rows meets, row by row and bit by
        # bit, is the one reported, whatever faults follow it
        def message(check):
            try:
                check()
            except DomainError as exc:
                return str(exc)

        rng = random.Random(313)
        for n in range(1, 71):
            g = random_graph_with_size(n, rng.randrange(binom(n, 2) + 1), rng)
            for _ in range(4):
                rows = list(g.adj)
                for _ in range(rng.randint(0, 3)):
                    i, j = rng.randrange(n), rng.randrange(n + 2)
                    kind = rng.randrange(4)
                    if kind == 0:
                        rows[i] ^= 1 << j  # an asymmetric pair, or a bit past n
                    elif kind == 1:
                        rows[i] |= 1 << i  # a self-loop
                    elif kind == 2:
                        rows[i] = -rows[i] or -1
                    else:
                        rows[i] |= 1 << (n + rng.randrange(3))
                expected = message(lambda: check_rows(n, rows))
                assert message(lambda: Graph(n, tuple(rows))) == expected, (n, rows)

    def test_large_orders_stay_linear(self):
        # a mask built per vertex or per row would make each quadratic in the order
        for build in (
            lambda: Graph.empty(10**6),
            lambda: parse_edgelist("1000000 0\n"),
            lambda: build_lex_graph(10**5, 10**5 - 1),
        ):
            start = time.perf_counter()
            build()
            assert time.perf_counter() - start < 5

    def test_vertex_range_checked(self):
        g = Graph.empty(3)
        with pytest.raises(DomainError):
            g.neighbors(0)
        with pytest.raises(DomainError):
            g.has_edge(1, 4)


class TestLexCompare:
    def test_orders_pairs(self):
        assert lex_compare({1, 2}, {1, 3}) == -1
        assert lex_compare({1, 5}, {2, 3}) == -1
        assert lex_compare({2, 3}, {1, 5}) == 1
        assert lex_compare({1, 3}, {1, 3}) == 0

    def test_first_difference_decides(self):
        assert lex_compare({1, 4}, {1, 2}) == 1
        assert lex_compare({2, 4, 6}, {2, 5, 6}) == -1

    def test_pair_enumeration_matches_sort(self):
        # the generated slot order is exactly lex order on pairs
        for n in range(2, 13):
            pairs = [frozenset(p) for p in combinations(range(1, n + 1), 2)]
            by_cmp = sorted(pairs, key=cmp_to_key(lex_compare))
            expected = [
                frozenset({u, v})
                for u in range(1, n)
                for v in range(u + 1, n + 1)
            ]
            assert by_cmp == expected


class TestBuildLexGraph:
    def test_pinned_small_graph(self):
        g = build_lex_graph(5, 6)
        assert g.edges() == [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]

    def test_edgeless_and_complete(self):
        assert build_lex_graph(3, 0).edges() == []
        g = build_lex_graph(4, 6)
        assert g.edges() == [(u, v) for u in range(1, 4) for v in range(u + 1, 5)]

    def test_domain(self):
        with pytest.raises(DomainError):
            build_lex_graph(4, 7)
        with pytest.raises(DomainError):
            build_lex_graph(0, 0)
        with pytest.raises(DomainError):
            build_lex_graph(4, -1)

    def test_edge_count(self):
        for n in range(1, 10):
            for m in range(binom(n, 2) + 1):
                assert build_lex_graph(n, m).m == m

    def test_prefix_of_sorted_pairs(self):
        # construction equals taking the first m pairs under lex_compare
        for n in range(2, 10):
            all_pairs = sorted(
                (frozenset(p) for p in combinations(range(1, n + 1), 2)),
                key=cmp_to_key(lex_compare),
            )
            for m in range(binom(n, 2) + 1):
                got = [frozenset(e) for e in build_lex_graph(n, m).edges()]
                assert got == all_pairs[:m]

    def test_nested_monotonicity(self):
        for n in range(2, 10):
            prev = build_lex_graph(n, 0)
            for m in range(1, binom(n, 2) + 1):
                cur = build_lex_graph(n, m)
                prev_edges = set(prev.edges())
                cur_edges = set(cur.edges())
                assert prev_edges < cur_edges
                assert len(cur_edges - prev_edges) == 1
                prev = cur


class TestLexNeighborhood:
    def test_matches_construction(self):
        for n in range(2, 9):
            for m in range(1, binom(n, 2) + 1):
                g = build_lex_graph(n, m)
                for i in range(1, n + 1):
                    assert lex_neighborhood(n, m, i) == g.neighbors(i), (n, m, i)

    def test_case_structure(self):
        # n=5, m=6: k=2, p_k=2
        assert lex_neighborhood(5, 6, 1) == frozenset({2, 3, 4, 5})
        assert lex_neighborhood(5, 6, 2) == frozenset({1, 3, 4})
        assert lex_neighborhood(5, 6, 3) == frozenset({1, 2})
        assert lex_neighborhood(5, 6, 4) == frozenset({1, 2})
        assert lex_neighborhood(5, 6, 5) == frozenset({1})

    def test_domain(self):
        with pytest.raises(DomainError):
            lex_neighborhood(5, 0, 1)
        with pytest.raises(DomainError):
            lex_neighborhood(5, 6, 0)
        with pytest.raises(DomainError):
            lex_neighborhood(5, 6, 6)


class TestMaximumIndependentSets:
    def test_single_set_cell(self):
        assert lex_maximum_independent_sets(5, 6) == [frozenset({3, 4, 5})]

    def test_two_set_cell(self):
        # sds(5,5) has p_k = 1, so the depth vertex spawns a second set
        assert lex_maximum_independent_sets(5, 5) == [
            frozenset({3, 4, 5}),
            frozenset({2, 4, 5}),
        ]

    def test_complete_graph_all_singletons(self):
        for n in range(2, 7):
            got = lex_maximum_independent_sets(n, binom(n, 2))
            assert got[:2] == [frozenset({n}), frozenset({n - 1})]
            assert set(got) == {frozenset({v}) for v in range(1, n + 1)}

    def test_m_zero_rejected(self):
        with pytest.raises(DomainError):
            lex_maximum_independent_sets(5, 0)

    def test_matches_brute_force(self):
        for n in range(2, 9):
            for m in range(1, binom(n, 2) + 1):
                got = lex_maximum_independent_sets(n, m)
                assert len(set(got)) == len(got)
                alpha, expected = naive_maximum_independent_sets(build_lex_graph(n, m))
                assert set(got) == expected, (n, m)
                assert all(len(s) == alpha for s in got)

    def test_sets_are_independent_and_dominating(self):
        for n in range(2, 9):
            for m in range(1, binom(n, 2) + 1):
                g = build_lex_graph(n, m)
                k = sds_decompose(n, m).k
                for s in lex_maximum_independent_sets(n, m):
                    assert len(s) == n - k
                    assert is_independent_set(g, s)
                    assert is_dominating_set(g, s)


def test_lex_functions_decompose_each_cell_once(monkeypatch):
    calls = []

    def counted(n, m):
        calls.append((n, m))
        return sds_decompose(n, m)

    build_lex_graph(9, 10)  # another cell, so (9, 11) is not cached
    monkeypatch.setattr(bounds, "sds_decompose", counted)
    g = build_lex_graph(9, 11)
    for i in range(1, 10):
        assert lex_neighborhood(9, 11, i) == g.neighbors(i)
    assert lex_maximum_independent_sets(9, 11) == [frozenset(range(3, 10))]
    assert calls == [(9, 11)]


class TestSetPredicates:
    def test_independent(self):
        g = build_lex_graph(5, 6)
        assert is_independent_set(g, {3, 4, 5})
        assert not is_independent_set(g, {1, 2})
        assert is_independent_set(g, set())
        assert is_independent_set(g, {1})

    def test_dominating(self):
        g = build_lex_graph(5, 6)
        assert is_dominating_set(g, {3, 4, 5})
        assert is_dominating_set(g, {1, 2})
        assert not is_dominating_set(g, {5})
        assert not is_dominating_set(g, set())

    def test_vertex_checked(self):
        g = build_lex_graph(5, 6)
        with pytest.raises(DomainError):
            is_independent_set(g, {0})
        with pytest.raises(DomainError):
            is_dominating_set(g, {6})


@settings(max_examples=50)
@given(st.integers(min_value=2, max_value=30), st.data())
def test_lex_graph_degrees_follow_depth(n, data):
    # vertices above the depth boundary keep degree k or k-1
    m = data.draw(st.integers(min_value=1, max_value=binom(n, 2)))
    g = build_lex_graph(n, m)
    d = sds_decompose(n, m)
    for i in range(1, n + 1):
        if i < d.k:
            assert g.degree(i) == n - 1
        elif i == d.k:
            assert g.degree(i) == d.k - 1 + d.p_k
        elif i <= d.k + d.p_k:
            assert g.degree(i) == d.k
        else:
            assert g.degree(i) == d.k - 1
