"""Exhaustive cell scanning, partitioning, and certificate logic."""

import multiprocessing
import pickle

import pytest

from lexext import (
    BudgetExceededError,
    DomainError,
    FormatError,
    Graph,
    binom,
    build_lex_graph,
    graph_count,
    independence_profile,
    verify_alpha_sharp,
    verify_ir_sharp,
    verify_range,
    verify_total_count_extremality,
)
from lexext import _kernels, verify
from lexext.verify import CellScan, scan_cell
from naive import for_each_graph, is_degree_sorted, naive_profile, search_key


def alpha_of(counts):
    return max(r for r, c in enumerate(counts) if c)


def size_count(r):
    return lambda counts: counts[r]


# what each certificate kind reads off a scan, and off a naive profile
KINDS = {
    "alpha": (lambda s: (s.max_alpha, s.alpha_count, s.alpha_witness), alpha_of),
    "ir2": (lambda s: (s.max_ir[2], s.ir_count[2], s.ir_witness[2]), size_count(2)),
    "ir3": (lambda s: (s.max_ir[3], s.ir_count[3], s.ir_witness[3]), size_count(3)),
    "total": (lambda s: (s.max_total, s.total_count, s.total_witness), sum),
}


def naive_first_witness(n, m, value, bound):
    """Adjacency rows of the first degree-sorted graph, in the sorted
    search's order, whose naive value exceeds bound."""
    found = []

    def visit(g):
        if is_degree_sorted(g) and value(naive_profile(g)) > bound:
            found.append(g)

    for_each_graph(n, m, visit)
    return min(found, key=search_key).adj


def assert_sorted_witness(n, m, edges, value, bound):
    """edges make a degree-sorted m-edge graph whose naive value is
    larger than bound."""
    g = Graph.from_edges(n, edges)
    assert is_degree_sorted(g)
    assert g.m == m
    assert value(naive_profile(g)) > bound


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
        # the package enumerates only through scan_cell; its budget is
        # inclusive, and the count it requires is the oracle's visit count
        visited = for_each_graph(5, 6, lambda g: None)
        assert scan_cell(5, 6, budget=visited).graphs_checked == visited
        with pytest.raises(BudgetExceededError) as info:
            scan_cell(5, 6, budget=visited - 1)
        err = info.value
        assert (err.n, err.m) == (5, 6)
        assert (err.required, err.budget) == (visited, visited - 1)
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
            alpha_witness=naive_first_witness(n, m, alpha_of, stats["max_alpha"] - 1),
            ir_witness=tuple(
                naive_first_witness(n, m, size_count(r), max_ir[r] - 1) for r in range(n + 1)
            ),
            total_witness=naive_first_witness(n, m, sum, stats["max_total"] - 1),
        )

    def test_scan_matches_naive_reduce(self):
        for n, m in [(4, 3), (5, 6), (5, 2), (4, 0), (4, 6)]:
            assert scan_cell(n, m) == self.scan_naively(n, m)

    def test_witnesses_reach_the_maxima_to_order_six(self):
        for n in range(1, 7):
            for m in range(binom(n, 2) + 1):
                scan = scan_cell(n, m)
                witnesses = [
                    (scan.alpha_witness, alpha_of, scan.max_alpha),
                    (scan.total_witness, sum, scan.max_total),
                    *((scan.ir_witness[r], size_count(r), scan.max_ir[r]) for r in range(n + 1)),
                ]
                for rows, value, best in witnesses:
                    g = Graph(n, rows)
                    assert is_degree_sorted(g) and g.m == m
                    assert value(naive_profile(g)) == best

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as info:
            scan_cell(7, 10, budget=1000)
        err = info.value
        assert (err.n, err.m) == (7, 10)
        assert err.required == binom(21, 10)
        assert err.budget == 1000
        assert str(err.required) in str(err)


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

    def test_scan_of_another_cell_rejected(self):
        scan = scan_cell(4, 3)
        with pytest.raises(DomainError, match=r"scan of cell \(4,3\)"):
            verify_alpha_sharp(5, 6, scan=scan)
        with pytest.raises(DomainError, match=r"scan of cell \(4,3\)"):
            verify_ir_sharp(6, 9, 3, scan=scan)
        with pytest.raises(DomainError, match=r"scan of cell \(4,3\)"):
            verify_total_count_extremality(4, 4, scan=scan)

    def test_as_dict_shape(self):
        d = verify_alpha_sharp(4, 3).as_dict()
        assert d["kind"] == "alpha"
        assert d["r"] is None
        assert d["ok"] is True
        assert "counterexample" not in d

    def test_counterexample_locator(self, monkeypatch):
        # every one-edge graph on 4 vertices has five independent pairs, and
        # {1, 2} is the only degree-sorted one
        monkeypatch.setattr(verify, "ir_upper_lex", lambda n, m, r: 4)
        assert verify_ir_sharp(4, 1, 2).counterexample == ((1, 2),)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n, m", [(5, 6), (6, 7)])
    def test_counterexample_is_first_naive_witness(self, kind, n, m):
        observed, value = KINDS[kind]
        best, _, witness = observed(scan_cell(n, m))
        assert witness == naive_first_witness(n, m, value, best - 1)

    def test_failed_certificate_carries_counterexample(self, monkeypatch):
        monkeypatch.setattr(verify, "ir_upper_lex", lambda n, m, r: 3)
        cert = verify_ir_sharp(6, 9, 3)
        assert (cert.max_observed, cert.valid) == (4, False)
        assert_sorted_witness(6, 9, cert.counterexample, size_count(3), 3)
        assert cert.as_dict()["counterexample"] == [list(e) for e in cert.counterexample]

    def test_failed_certificate_of_order_nine_takes_one_sorted_scan(self, monkeypatch):
        # the witness comes with the scan: a cell of 94,143,280 labeled
        # graphs is not scanned again to find one
        try:
            from lexext import _core_c  # noqa: F401
        except ImportError:
            pytest.skip("C kernel not built: the sorted scan of cell (9, 9) is left to it")
        real_bound, real_scan = verify.alpha_upper, _kernels.scan_sorted
        calls = []

        def counted_scan(n, m):
            calls.append((n, m))
            return real_scan(n, m)

        monkeypatch.setattr(verify, "alpha_upper", lambda n, m: real_bound(n, m) - 1)
        monkeypatch.setattr(_kernels, "scan_sorted", counted_scan)
        cert = verify_alpha_sharp(9, 9, budget=10**10)
        assert not cert.valid and cert.counterexample is not None
        assert calls == [(9, 9)]
        assert_sorted_witness(9, 9, cert.counterexample, alpha_of, cert.bound)


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replace multiprocessing.Pool with a stand-in that runs its tasks in
    place, and return the list of stand-ins made, each with its tasks."""
    pools = []

    class RecordingPool:
        def __init__(self, processes):
            self.processes = processes
            self.tasks = []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            for task in tasks:
                self.tasks.append(task)
                yield fn(task)

        def map(self, fn, tasks):
            raise AssertionError("verify_range must not call map")

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return pools


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
        with pytest.raises(DomainError):
            verify_range(5, 3, jobs=0)

    def test_parallel_equals_sequential(self, monkeypatch):
        # the lowered threshold starts a real pool of two, and a budget of
        # 100 skips some n=5 cells, so skip records cross the pool too
        started = []
        real_pool = multiprocessing.Pool
        monkeypatch.setattr(verify, "POOL_MIN_GRAPHS", 1)
        monkeypatch.setattr(
            multiprocessing, "Pool", lambda jobs: started.append(jobs) or real_pool(jobs)
        )
        sequential, parallel = [], []
        expected = verify_range(5, 3, budget=100, emit=sequential.append)
        assert started == []
        got = verify_range(5, 3, budget=100, jobs=2, emit=parallel.append)
        assert started == [2]
        assert expected.skipped
        assert parallel == sequential
        assert got == expected

    def test_pool_gets_one_task_per_cell_in_order(self, monkeypatch, recorded_pools):
        monkeypatch.setattr(verify, "POOL_MIN_GRAPHS", 1)
        summary = verify_range(5, 3, budget=100, jobs=2)
        cells = [(n, m) for n in range(1, 6) for m in range(binom(n, 2) + 1)]
        (pool,) = recorded_pools
        assert pool.processes == 2
        assert [task[:2] for task in pool.tasks] == cells
        assert summary.skipped
        assert summary.cells_checked + len(summary.skipped) == len(cells)

    def test_pool_starts_at_the_threshold_of_in_budget_graphs(
        self, monkeypatch, recorded_pools
    ):
        # a budget of 40 skips (5, 2) to (5, 8), of 45 to 252 graphs each,
        # so the sweep scans 97 of its 1,099 graphs
        counts = [graph_count(n, m) for n in range(1, 6) for m in range(binom(n, 2) + 1)]
        scanned = sum(c for c in counts if c <= 40)
        assert (scanned, sum(counts)) == (97, 1099)
        expected = verify_range(5, 3, budget=40)
        for threshold, pools in ((scanned + 1, 0), (scanned, 1)):
            monkeypatch.setattr(verify, "POOL_MIN_GRAPHS", threshold)
            assert verify_range(5, 3, budget=40, jobs=2) == expected
            assert len(recorded_pools) == pools

    def test_no_worker_outlives_an_early_exit(self, monkeypatch):
        # the lowered threshold starts a pool; emit then fails on a record
        # from it, as print does once the reader has gone
        alive = []

        def emit(record):
            if (record["n"], record["m"]) == (6, 5):
                alive.extend(multiprocessing.active_children())
                raise BrokenPipeError

        monkeypatch.setattr(verify, "POOL_MIN_GRAPHS", 1)
        try:
            verify_range(6, 3, jobs=2, emit=emit)
        except BrokenPipeError:
            assert multiprocessing.active_children() == []
        else:
            pytest.fail("emit did not raise")
        assert len(alive) == 2


def test_errors_survive_pickle():
    # a pool worker's error reaches its parent only through pickle; one that
    # cannot be rebuilt kills the pool's result thread and hangs imap
    for err in (
        DomainError("bad cell"),
        BudgetExceededError(7, 10, 352716, 1000),
        FormatError("bad header", line=3),
    ):
        copy = pickle.loads(pickle.dumps(err))
        assert type(copy) is type(err)
        assert str(copy) == str(err)
        assert vars(copy) == vars(err)
