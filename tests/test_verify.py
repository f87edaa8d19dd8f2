"""Exhaustive cell scanning, partitioning, and certificate logic."""

import multiprocessing
from itertools import combinations

import pytest

from lexext import (
    BudgetExceededError,
    DomainError,
    binom,
    build_lex_graph,
    graph_count,
    independence_profile,
    pair_slots,
    unrank_combination,
    verify_alpha_sharp,
    verify_ir_sharp,
    verify_range,
    verify_total_count_extremality,
)
from lexext import _core_py
from lexext.verify import (
    CellScan,
    _find_counterexample,
    for_each_graph,
    scan_cell,
)
from naive import naive_profile


class TestPairSlots:
    def test_small(self):
        assert pair_slots(2) == ((1, 2),)
        assert pair_slots(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_length(self):
        for n in range(1, 15):
            assert len(pair_slots(n)) == binom(n, 2)

    def test_slot_rank_matches_lex_graph_edges(self):
        for n in range(2, 9):
            slots = pair_slots(n)
            for m in range(binom(n, 2) + 1):
                assert list(slots[:m]) == build_lex_graph(n, m).edges()


class TestGraphCount:
    def test_values(self):
        assert graph_count(4, 3) == 20
        assert graph_count(5, 6) == 210
        assert graph_count(3, 3) == 1
        assert graph_count(6, 0) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            graph_count(4, 7)
        with pytest.raises(DomainError):
            graph_count(0, 0)


class TestUnrankCombination:
    def test_matches_itertools_order(self):
        for p, m in [(5, 0), (5, 2), (6, 3), (7, 7), (10, 4)]:
            expected = list(combinations(range(p), m))
            got = [unrank_combination(p, m, rank) for rank in range(binom(p, m))]
            assert got == expected

    def test_domain(self):
        with pytest.raises(DomainError):
            unrank_combination(5, 6, 0)
        with pytest.raises(DomainError):
            unrank_combination(5, 2, 10)
        with pytest.raises(DomainError):
            unrank_combination(5, 2, -1)


class TestForEachGraph:
    def test_visit_counts(self):
        assert for_each_graph(4, 3, lambda g: None) == 20
        assert for_each_graph(5, 6, lambda g: None) == 210
        assert for_each_graph(3, 3, lambda g: None) == 1

    def test_single_graph_cell_is_complete_graph(self):
        seen = []
        for_each_graph(3, 3, seen.append)
        assert seen[0].edges() == [(1, 2), (1, 3), (2, 3)]

    def test_first_visited_is_lex_graph(self):
        for n, m in [(4, 2), (5, 6), (6, 4)]:
            seen = []

            def visit(g):
                if not seen:
                    seen.append(g)

            for_each_graph(n, m, visit)
            assert seen[0] == build_lex_graph(n, m)

    def test_all_distinct_right_size(self):
        seen = set()

        def visit(g):
            assert g.n == 5 and g.m == 4
            seen.add(g)

        count = for_each_graph(5, 4, visit)
        assert count == len(seen) == binom(10, 4)

    def test_visitor_exactness_all_small_cells(self):
        for n in range(1, 6):
            for m in range(binom(n, 2) + 1):
                assert for_each_graph(n, m, lambda g: None) == graph_count(n, m)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as info:
            for_each_graph(7, 10, lambda g: None, budget=100)
        err = info.value
        assert (err.n, err.m) == (7, 10)
        assert err.required == binom(21, 10)
        assert err.budget == 100
        assert str(err.required) in str(err)


class TestCellScan:
    def scan_naively(self, n, m):
        max_ir = [-1] * (n + 1)
        ir_count = [0] * (n + 1)
        stats = {"checked": 0, "max_alpha": -1, "alpha_count": 0,
                 "max_total": -1, "total_count": 0}

        def visit(g):
            counts = naive_profile(g)
            stats["checked"] += 1
            alpha = max(r for r in range(n + 1) if counts[r])
            total = sum(counts)
            for r in range(n + 1):
                if counts[r] > max_ir[r]:
                    max_ir[r] = counts[r]
                    ir_count[r] = 1
                elif counts[r] == max_ir[r]:
                    ir_count[r] += 1
            if alpha > stats["max_alpha"]:
                stats["max_alpha"], stats["alpha_count"] = alpha, 1
            elif alpha == stats["max_alpha"]:
                stats["alpha_count"] += 1
            if total > stats["max_total"]:
                stats["max_total"], stats["total_count"] = total, 1
            elif total == stats["max_total"]:
                stats["total_count"] += 1

        for_each_graph(n, m, visit)
        return CellScan(
            n=n,
            m=m,
            graphs_checked=stats["checked"],
            max_alpha=stats["max_alpha"],
            alpha_count=stats["alpha_count"],
            max_ir=tuple(max_ir),
            ir_count=tuple(ir_count),
            max_total=stats["max_total"],
            total_count=stats["total_count"],
        )

    def test_scan_matches_naive_reduce(self):
        for n, m in [(4, 3), (5, 6), (5, 2), (4, 0), (4, 6)]:
            assert scan_cell(n, m) == self.scan_naively(n, m)

    def test_merge_of_split_ranges_equals_full(self):
        total = graph_count(5, 6)
        p = binom(5, 2)
        full = scan_cell(5, 6)
        for cut in (1, 37, 105, 209):
            left = CellScan.from_raw(
                5, 6, _core_py.scan_graph_range(5, 6, unrank_combination(p, 6, 0), cut)
            )
            right = CellScan.from_raw(
                5, 6, _core_py.scan_graph_range(5, 6, unrank_combination(p, 6, cut), total - cut)
            )
            assert left.merge(right) == full
            assert right.merge(left) == full

    def test_merge_rejects_mismatched_cells(self):
        a = scan_cell(4, 2)
        b = scan_cell(4, 3)
        with pytest.raises(DomainError):
            a.merge(b)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            scan_cell(7, 10, budget=1000)

    def test_pool_scan_identical_to_sequential(self):
        sequential = [scan_cell(5, 6), scan_cell(6, 8)]
        with multiprocessing.Pool(2) as pool:
            parallel = [
                scan_cell(5, 6, pool=pool, chunks=7),
                scan_cell(6, 8, pool=pool, chunks=16),
            ]
        assert parallel == sequential


class TestCertificates:
    def test_alpha_cell_values_against_naive(self):
        cert = verify_alpha_sharp(5, 6)
        assert cert.kind == "alpha"
        assert cert.bound == 3
        assert cert.max_observed == 3
        assert cert.attained_by_lex
        assert cert.graphs_checked == 210
        assert cert.valid and cert.sharp and cert.ok

        # independent recount of how many graphs attain the maximum
        attainers = 0

        def visit(g):
            nonlocal attainers
            counts = naive_profile(g)
            if max(r for r in range(6) if counts[r]) == 3:
                attainers += 1

        for_each_graph(5, 6, visit)
        assert cert.extremal_graph_count == attainers

    def test_alpha_single_graph_cell(self):
        cert = verify_alpha_sharp(4, 6)
        assert cert.bound == 1
        assert cert.max_observed == 1
        assert cert.graphs_checked == 1
        assert cert.ok

    def test_ir_cells(self):
        cert = verify_ir_sharp(5, 6, 3)
        assert (cert.kind, cert.r) == ("ir", 3)
        assert cert.bound == 1 and cert.max_observed == 1
        assert cert.ok

        cert = verify_ir_sharp(5, 10, 3)
        assert cert.bound == 0 and cert.max_observed == 0
        assert cert.ok

        cert = verify_ir_sharp(6, 9, 3)
        assert cert.bound == 4 and cert.max_observed == 4
        assert cert.ok

    def test_ir_domain(self):
        with pytest.raises(DomainError):
            verify_ir_sharp(5, 6, 1)
        with pytest.raises(DomainError):
            verify_ir_sharp(5, 6, 6)

    def test_total_cells(self):
        cert = verify_total_count_extremality(4, 3)
        assert cert.kind == "total"
        assert cert.bound == independence_profile(build_lex_graph(4, 3)).total()
        assert cert.bound == 9
        assert cert.ok

        cert = verify_total_count_extremality(5, 6)
        assert cert.bound == 11 and cert.max_observed == 11
        assert cert.ok

    def test_shared_scan_reused(self):
        scan = scan_cell(5, 6)
        a = verify_alpha_sharp(5, 6, scan=scan)
        b = verify_alpha_sharp(5, 6)
        assert a == b

    def test_as_dict_shape(self):
        d = verify_alpha_sharp(4, 3).as_dict()
        assert d["kind"] == "alpha"
        assert d["r"] is None
        assert d["ok"] is True
        assert "counterexample" not in d

    def test_counterexample_locator(self):
        # every one-edge graph on 4 vertices has five independent pairs
        witness = _find_counterexample(4, 1, lambda prof: prof.size_count(2) > 4, 10**6)
        assert witness == ((1, 2),)
        none_found = _find_counterexample(4, 1, lambda prof: prof.size_count(2) > 5, 10**6)
        assert none_found is None


class TestVerifyRange:
    def test_small_sweep_all_ok(self):
        emitted = []
        summary = verify_range(3, 3, emit=emitted.append)
        assert not summary.failures
        assert not summary.skipped
        # cells: n=1 has 1, n=2 has 2, n=3 has 4
        assert summary.cells_checked == 7
        # per cell: alpha + one ir per r in 2..min(r_max, n) + total
        expected_certs = 2 * 1 + 3 * 2 + 4 * 4
        assert len(summary.certificates) == expected_certs
        assert len(emitted) == expected_certs
        assert all(c.ok for c in summary.certificates)

    def test_emit_order_within_cell(self):
        emitted = []
        verify_range(3, 3, emit=emitted.append)
        kinds = [(r["n"], r["m"], r["kind"], r["r"]) for r in emitted]
        cell = [k for k in kinds if (k[0], k[1]) == (3, 2)]
        assert cell == [
            (3, 2, "alpha", None),
            (3, 2, "ir", 2),
            (3, 2, "ir", 3),
            (3, 2, "total", None),
        ]

    def test_budget_skips_recorded(self):
        emitted = []
        summary = verify_range(5, 3, budget=50, emit=emitted.append)
        assert summary.skipped
        for skip in summary.skipped:
            assert graph_count(skip.n, skip.m) > 50
            assert skip.required == graph_count(skip.n, skip.m)
        skip_records = [r for r in emitted if r["kind"] == "skipped"]
        assert len(skip_records) == len(summary.skipped)
        # cells under budget were still fully certified
        checked_cells = {(c.n, c.m) for c in summary.certificates}
        for n in range(1, 6):
            for m in range(binom(n, 2) + 1):
                if graph_count(n, m) <= 50:
                    assert (n, m) in checked_cells

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_range(0, 3)
        with pytest.raises(DomainError):
            verify_range(4, 1)

    def test_parallel_equals_sequential(self):
        sequential = verify_range(4, 3)
        with multiprocessing.Pool(2) as pool:
            parallel = verify_range(4, 3, pool=pool, chunks=8)
        assert parallel.certificates == sequential.certificates
        assert parallel.skipped == sequential.skipped
