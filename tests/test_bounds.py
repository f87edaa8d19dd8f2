"""Closed-form bounds: both parameterizations, boundary behavior, sharpness."""

import pytest
from hypothesis import given, settings, strategies as st

from lexext import (
    DomainError,
    SRelation,
    alpha_upper,
    binom,
    bound_report,
    build_lex_graph,
    cr_upper,
    erdos_decompose_for_independent_sets,
    independence_profile,
    ir_upper_erdos,
    ir_upper_lex,
    is_exact_triangular,
    s_alpha_relation,
    sds_decompose,
)
from lexext import bounds
from naive import naive_clique_count
from lexext.verify import for_each_graph


class TestAlphaUpper:
    def test_pinned_values(self):
        assert alpha_upper(5, 6) == 3
        assert alpha_upper(6, 7) == 4
        assert alpha_upper(5, 0) == 5
        assert alpha_upper(5, 10) == 1

    def test_single_edge(self):
        for n in range(2, 10):
            assert alpha_upper(n, 1) == n - 1

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_upper(5, 11)
        with pytest.raises(DomainError):
            alpha_upper(5, -1)
        with pytest.raises(DomainError):
            alpha_upper(0, 0)

    def test_nonincreasing_in_m(self):
        for n in range(2, 26):
            values = [alpha_upper(n, m) for m in range(binom(n, 2) + 1)]
            assert values == sorted(values, reverse=True)
            assert values[0] == n and values[-1] == 1

    def test_exact_on_lex_graphs(self):
        # the bound is the lex graph's independence number, exactly
        for n in range(2, 10):
            for m in range(binom(n, 2) + 1):
                g = build_lex_graph(n, m)
                assert independence_profile(g).alpha() == alpha_upper(n, m), (n, m)


class TestIrUpperForms:
    def test_pinned_values(self):
        assert ir_upper_lex(5, 6, 3) == 1
        assert ir_upper_lex(6, 9, 3) == 4
        assert ir_upper_lex(5, 0, 3) == 10
        assert ir_upper_lex(5, 10, 3) == 0
        assert ir_upper_erdos(5, 6, 3) == 1
        assert ir_upper_erdos(5, 0, 3) == 10
        assert ir_upper_erdos(5, 10, 3) == 0

    def test_domain(self):
        for fn in (ir_upper_lex, ir_upper_erdos):
            with pytest.raises(DomainError):
                fn(5, 6, 1)
            with pytest.raises(DomainError):
                fn(5, 11, 3)
            with pytest.raises(DomainError):
                fn(0, 0, 2)

    def test_forms_agree(self):
        for n in range(1, 26):
            for m in range(binom(n, 2) + 1):
                for r in range(2, n + 1):
                    assert ir_upper_lex(n, m, r) == ir_upper_erdos(n, m, r), (n, m, r)

    def test_pascal_collapse_when_depth_exhausted(self):
        # p_k = n-k makes the depth form C(n-k, r); the triangular form
        # lands on s = t = n-k-1 and Pascal glues them together
        checked = 0
        for n in range(3, 26):
            for m in range(1, binom(n, 2)):
                d = sds_decompose(n, m)
                if d.p_k != n - d.k:
                    continue
                e = erdos_decompose_for_independent_sets(n, m)
                assert e.s == e.t == n - d.k - 1
                for r in range(2, n + 1):
                    assert ir_upper_lex(n, m, r) == binom(n - d.k, r)
                checked += 1
        assert checked > 0

    def test_exact_on_lex_graphs(self):
        for n in range(2, 10):
            for m in range(1, binom(n, 2) + 1):
                profile = independence_profile(build_lex_graph(n, m))
                for r in range(2, n + 1):
                    assert profile.size_count(r) == ir_upper_lex(n, m, r), (n, m, r)

    def test_nonincreasing_in_m(self):
        for n in range(2, 16):
            for r in range(2, n + 1):
                values = [ir_upper_lex(n, m, r) for m in range(binom(n, 2) + 1)]
                assert values == sorted(values, reverse=True)

    def test_r_two_counts_non_edges(self):
        # every graph with m edges has exactly C(n,2) - m independent pairs
        for n in range(2, 16):
            for m in range(binom(n, 2) + 1):
                assert ir_upper_lex(n, m, 2) == binom(n, 2) - m

    @settings(max_examples=100)
    @given(st.integers(min_value=2, max_value=200), st.data())
    def test_forms_agree_random(self, n, data):
        m = data.draw(st.integers(min_value=0, max_value=binom(n, 2)))
        r = data.draw(st.integers(min_value=2, max_value=n))
        assert ir_upper_lex(n, m, r) == ir_upper_erdos(n, m, r)


class TestCrUpper:
    def test_complete_graph_edge_counts(self):
        for s in range(3, 12):
            for r in range(3, s + 1):
                assert cr_upper(binom(s, 2), r) == binom(s, r)

    def test_formula(self):
        # m = C(4,2) + 2 = 8: four-clique plus a vertex joined to two
        assert cr_upper(8, 3) == binom(4, 3) + binom(2, 2)

    def test_zero_edges(self):
        assert cr_upper(0, 3) == 0
        assert cr_upper(0, 7) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            cr_upper(5, 2)
        with pytest.raises(DomainError):
            cr_upper(-1, 3)

    def test_sharp_for_triangles_small(self):
        # exhaustive max triangle count over all 6-vertex graphs with m edges
        for m in range(0, 10):
            best = 0

            def visit(g):
                nonlocal best
                best = max(best, naive_clique_count(g, 3))

            for_each_graph(6, m, visit)
            assert best == cr_upper(m, 3), m

    def test_valid_for_cliques_of_lex_complements(self):
        from lexext import clique_profile, complement

        for n in range(3, 9):
            for m in range(binom(n, 2) + 1):
                g = complement(build_lex_graph(n, m))
                profile = clique_profile(g)
                for r in range(3, n + 1):
                    assert profile.size_count(r) <= cr_upper(g.m, r)


class TestSRelation:
    def test_pinned_values(self):
        assert s_alpha_relation(5, 6) is SRelation.S_EQUALS_ALPHA_U
        assert s_alpha_relation(5, 7) is SRelation.S_EQUALS_ALPHA_U_MINUS_1

    def test_boundaries_rejected(self):
        with pytest.raises(DomainError):
            s_alpha_relation(5, 0)
        with pytest.raises(DomainError):
            s_alpha_relation(5, 10)

    def test_characterization_sweep(self):
        # s drops below the alpha bound exactly at triangular complements
        for n in range(2, 31):
            for m in range(1, binom(n, 2)):
                relation = s_alpha_relation(n, m)
                s = erdos_decompose_for_independent_sets(n, m).s
                a = alpha_upper(n, m)
                complement_count = binom(n, 2) - m
                if is_exact_triangular(complement_count) is not None:
                    assert relation is SRelation.S_EQUALS_ALPHA_U_MINUS_1
                    assert s == a - 1
                else:
                    assert relation is SRelation.S_EQUALS_ALPHA_U
                    assert s == a


class TestBoundReport:
    def test_interior_cell(self):
        report = bound_report(5, 6, r_values=[3])
        assert (report.k, report.p_k, report.s, report.t) == (2, 2, 3, 1)
        assert report.alpha_upper == 3
        assert report.s_relation is SRelation.S_EQUALS_ALPHA_U
        (entry,) = report.entries
        assert entry.r == 3
        assert entry.ir_upper_lex == entry.ir_upper_erdos == 1

    def test_edgeless_cell_nulls(self):
        report = bound_report(5, 0, r_max=3)
        assert report.k is None and report.p_k is None
        assert report.s is None and report.t is None
        assert report.s_relation is None
        assert report.alpha_upper == 5
        assert [e.ir_upper_lex for e in report.entries] == [10, 10]

    def test_complete_cell_nulls(self):
        report = bound_report(5, 10, r_max=3)
        assert (report.k, report.p_k) == (4, 1)
        assert report.s is None and report.t is None
        assert report.s_relation is None
        assert report.alpha_upper == 1
        assert [e.ir_upper_lex for e in report.entries] == [0, 0]

    def test_r_values_sorted_unique(self):
        report = bound_report(6, 5, r_values=[4, 2, 4, 3])
        assert [e.r for e in report.entries] == [2, 3, 4]

    def test_domain(self):
        with pytest.raises(DomainError):
            bound_report(5, 6)
        with pytest.raises(DomainError):
            bound_report(5, 6, r_max=6)
        with pytest.raises(DomainError):
            bound_report(5, 6, r_values=[1])
        # twice: a failure left in the per-cell cache would pass the second call
        for _ in range(2):
            with pytest.raises(DomainError, match=r"C\(n,2\)"):
                bound_report(5, 11, r_max=3)

    def test_decomposes_each_cell_once(self, monkeypatch):
        calls = {"sds": 0, "erdos": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        bound_report(80, 999, r_max=2)  # another cell, so (80, 1000) is not cached
        monkeypatch.setattr(bounds, "sds_decompose", counted("sds", sds_decompose))
        monkeypatch.setattr(
            bounds,
            "erdos_decompose_for_independent_sets",
            counted("erdos", erdos_decompose_for_independent_sets),
        )
        report = bound_report(80, 1000, r_max=80)
        assert len(report.entries) == 79
        assert calls == {"sds": 1, "erdos": 1}
