"""Exhaustive sharpness verification over all labeled graphs of a cell.

A cell is a pair (n, m): the C(C(n,2), m) labeled graphs on n vertices
with m edges.  A scan folds them into elementwise maxima of their
independent-set counts, each with the number of graphs attaining it.

The scan profiles only the degree-sorted graphs, those labeled with
deg(1) >= ... >= deg(n).  Every graph has such a relabeling and every
profile entry is an isomorphism invariant, so each maximum is reached on
one.  A sorted graph with c_d vertices of degree d stands for exactly
n!/prod(c_d!) labeled graphs; ties add these weights, so tie counts and
graphs_checked still count labeled graphs, and the weights of a cell
must sum to C(C(n,2), m).

Certificates compare the scanned maxima against the closed-form bounds
and against the lex graph's own counts.  Validity (no graph beats the
bound) and sharpness (some graph meets it, the lex graph among them) are
recorded separately so a failure says precisely what broke.

A failed certificate carries a graph that beats its bound: the first
degree-sorted graph, in the order the scan's search visits them, that
reaches the scanned maximum.  The scan keeps one such witness for alpha,
for each r and for the total, so a failure costs no second scan.

The cell is also the unit of parallel work.  With more than one job,
verify_range hands whole cells to a pool when its in-budget cells hold
at least POOL_MIN_GRAPHS labeled graphs in all, since a pool costs more
to start than a smaller sweep takes, and runs every cell in its own
process otherwise.  Records come back in cell order either way, so the
output is the same for any job count.

Cells larger than the budget, counted in labeled graphs, are refused up
front with the exact graph count required, never silently truncated.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

from . import _kernels
from .arith import binom
from .bounds import _cell, alpha_upper, ir_upper_lex
from .counting import independence_profile
from .errors import BudgetExceededError, DomainError
from .lexgraph import Graph, build_lex_graph

DEFAULT_BUDGET = 10**7

# The fewest labeled graphs, summed over a sweep's in-budget cells, for
# which a pool of two finishes the sweep sooner than one process.  A pool
# costs about 20 ms to start, stop and route one sweep's cells through,
# so it pays only for a sweep of about 60 ms or more in one process, and
# the two kernels scan at very different rates per labeled graph.
# Measured in process on 2 CPUs: with the C kernel, a pool lost at 2.6e7
# graphs (59 against 53 ms) and won at 5.2e7 (61 against 91 ms); with
# the pure Python kernel it broke even at 3.5e4 graphs (about 44 ms) and
# won at 9.0e4 (82 against 96 ms).  Provisional: to be re-measured on
# the benchmark's n = 9 row once it exists.
POOL_MIN_GRAPHS = 4 * 10**7 if _kernels.BACKEND == "c" else 10**5


def graph_count(n: int, m: int) -> int:
    """Number of labeled simple graphs on [n] with exactly m edges."""
    _cell(n, m)
    return binom(binom(n, 2), m)


@dataclass(frozen=True)
class CellScan:
    """Reduction of one (n, m) cell: maxima with tie counts.

    max_ir and ir_count are indexed by set size r = 0..n.  Each count
    says how many scanned graphs attain its maximum, and each witness
    holds the adjacency rows of the first sorted graph the search found
    attaining it; ir_witness is indexed by r too.  Every field but n and
    m is a key of the kernels' scan_sorted record, which fills it as is.
    """

    n: int
    m: int
    graphs_checked: int
    max_alpha: int
    alpha_count: int
    max_ir: tuple[int, ...]
    ir_count: tuple[int, ...]
    max_total: int
    total_count: int
    alpha_witness: tuple[int, ...]
    ir_witness: tuple[tuple[int, ...], ...]
    total_witness: tuple[int, ...]


def scan_cell(n: int, m: int, *, budget: int = DEFAULT_BUDGET) -> CellScan:
    """Fold every graph of the cell into one CellScan, profiling only its
    degree-sorted graphs.

    Each sorted graph counts with the weight n!/prod(c_d!) of the labeled
    graphs it stands for, c_d being its number of vertices of degree d,
    so graphs_checked and every tie count are labeled-graph counts, the
    same as a scan of every labeled graph would give.  The weights must
    sum to the cell's C(C(n,2), m) labeled graphs.  The budget is in
    labeled graphs too.
    """
    total = graph_count(n, m)
    if total > budget:
        raise BudgetExceededError(n, m, required=total, budget=budget)
    scan = CellScan(n=n, m=m, **_kernels.scan_sorted(n, m))
    if scan.graphs_checked != total:
        raise AssertionError(
            f"cell ({n},{m}) weights sum to {scan.graphs_checked}, expected {total}"
        )
    return scan


@dataclass(frozen=True)
class SharpnessCertificate:
    """Outcome of checking one bound against one exhaustively scanned cell.

    kind is "alpha", "ir", or "total"; r is set only for kind "ir".  For
    kind "total" the bound is the lex graph's own total count, since the
    claim being checked is that the lex graph maximizes it.
    valid: no graph exceeded the bound.  sharp: some graph met it.
    ok additionally requires the lex graph among the attainers.
    """

    kind: str
    n: int
    m: int
    r: int | None
    bound: int
    max_observed: int
    attained_by_lex: bool
    extremal_graph_count: int
    graphs_checked: int
    counterexample: tuple[tuple[int, int], ...] | None = None

    @property
    def valid(self) -> bool:
        return self.max_observed <= self.bound

    @property
    def sharp(self) -> bool:
        return self.max_observed == self.bound

    @property
    def ok(self) -> bool:
        return self.valid and self.sharp and self.attained_by_lex

    def as_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "r": self.r,
            "bound": self.bound,
            "max_observed": self.max_observed,
            "valid": self.valid,
            "sharp": self.sharp,
            "attained_by_lex": self.attained_by_lex,
            "extremal_graph_count": self.extremal_graph_count,
            "graphs_checked": self.graphs_checked,
            "ok": self.ok,
        }
        if self.counterexample is not None:
            d["counterexample"] = [list(e) for e in self.counterexample]
        return d


@lru_cache(maxsize=1)
def _lex_profile(n: int, m: int):
    # certificates come cell by cell, so one entry serves all of a cell's
    return independence_profile(build_lex_graph(n, m))


def _certificate(
    kind: str,
    n: int,
    m: int,
    r: int | None,
    bound: int,
    lex_value: int,
    scan: CellScan,
    observed,
) -> SharpnessCertificate:
    """``observed`` reads (maximum, graphs attaining it, witness) off a
    CellScan."""
    if (scan.n, scan.m) != (n, m):
        raise DomainError(f"scan of cell ({scan.n},{scan.m}) passed for cell ({n},{m})")
    max_observed, extremal_count, witness = observed(scan)
    return SharpnessCertificate(
        kind=kind,
        n=n,
        m=m,
        r=r,
        bound=bound,
        max_observed=max_observed,
        attained_by_lex=lex_value == max_observed,
        extremal_graph_count=extremal_count,
        graphs_checked=scan.graphs_checked,
        counterexample=tuple(Graph(n, witness).edges()) if max_observed > bound else None,
    )


def verify_alpha_sharp(
    n: int,
    m: int,
    *,
    budget: int = DEFAULT_BUDGET,
    scan: CellScan | None = None,
) -> SharpnessCertificate:
    """Certify the independence-number bound against every graph of the
    cell, and that the lex graph attains the maximum.

    Pass a precomputed ``scan`` of the same cell to amortize one cell
    scan across several certificates.
    """
    if scan is None:
        scan = scan_cell(n, m, budget=budget)
    return _certificate(
        "alpha",
        n,
        m,
        None,
        alpha_upper(n, m),
        _lex_profile(n, m).alpha(),
        scan,
        lambda s: (s.max_alpha, s.alpha_count, s.alpha_witness),
    )


def verify_ir_sharp(
    n: int,
    m: int,
    r: int,
    *,
    budget: int = DEFAULT_BUDGET,
    scan: CellScan | None = None,
) -> SharpnessCertificate:
    """Certify the size-r independent-set count bound for the cell.

    The lex graph must attain the scanned maximum; together with
    sharpness that pins its exact count to the bound.
    """
    if not 2 <= r <= n:
        raise DomainError(f"verify_ir_sharp requires 2 <= r <= n, got r={r}")
    if scan is None:
        scan = scan_cell(n, m, budget=budget)
    return _certificate(
        "ir",
        n,
        m,
        r,
        ir_upper_lex(n, m, r),
        _lex_profile(n, m).size_count(r),
        scan,
        lambda s: (s.max_ir[r], s.ir_count[r], s.ir_witness[r]),
    )


def verify_total_count_extremality(
    n: int,
    m: int,
    *,
    budget: int = DEFAULT_BUDGET,
    scan: CellScan | None = None,
) -> SharpnessCertificate:
    """Certify that the lex graph maximizes the total independent-set
    count over the cell.  The reference value is the lex graph's own
    total, so valid means no graph beats it."""
    if scan is None:
        scan = scan_cell(n, m, budget=budget)
    lex_total = _lex_profile(n, m).total()
    return _certificate(
        "total",
        n,
        m,
        None,
        lex_total,
        lex_total,
        scan,
        lambda s: (s.max_total, s.total_count, s.total_witness),
    )


@dataclass(frozen=True)
class SkippedCell:
    n: int
    m: int
    required: int
    budget: int

    def as_dict(self) -> dict:
        return {
            "kind": "skipped",
            "n": self.n,
            "m": self.m,
            "required": self.required,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class VerificationSummary:
    n_max: int
    r_max: int
    budget: int
    certificates: tuple[SharpnessCertificate, ...]
    skipped: tuple[SkippedCell, ...]

    @property
    def failures(self) -> tuple[SharpnessCertificate, ...]:
        return tuple(c for c in self.certificates if not c.ok)

    @property
    def cells_checked(self) -> int:
        return len({(c.n, c.m) for c in self.certificates})

    def as_dict(self) -> dict:
        return {
            "kind": "summary",
            "n_max": self.n_max,
            "r_max": self.r_max,
            "budget": self.budget,
            "cells_checked": self.cells_checked,
            "cells_skipped": len(self.skipped),
            "certificates": len(self.certificates),
            "failures": len(self.failures),
        }


def _verify_cell(task) -> list:
    # module-level so a pool can pickle it by name; private, so tools that
    # wrap the package's public functions leave it picklable
    n, m, r_max, budget = task
    try:
        scan = scan_cell(n, m, budget=budget)
    except BudgetExceededError as exc:
        return [SkippedCell(n=n, m=m, required=exc.required, budget=exc.budget)]
    return [
        verify_alpha_sharp(n, m, scan=scan),
        *(verify_ir_sharp(n, m, r, scan=scan) for r in range(2, min(r_max, n) + 1)),
        verify_total_count_extremality(n, m, scan=scan),
    ]


def _pool(jobs: int):
    """A pool of ``jobs`` processes, or for one job a context that gives
    None, so that the caller runs its cells in place."""
    if jobs == 1:
        return nullcontext()
    # imported here: the import alone costs more than a small sweep
    import multiprocessing

    # called through the module, so that a Pool set on it is used
    return multiprocessing.Pool(jobs)


def verify_range(
    n_max: int,
    r_max: int,
    *,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
    emit=None,
) -> VerificationSummary:
    """Run all three certificate kinds for every cell n <= n_max, every
    m, every r in [2, min(r_max, n)], skipping cells over budget.

    Each cell is scanned once and shared across its certificates.  With
    ``jobs`` > 1, whole cells run in a pool of that many processes when
    the cells within the budget hold at least POOL_MIN_GRAPHS labeled
    graphs in all, and in this process otherwise.  ``imap`` returns cells
    in order, so the records are the same for any ``jobs``.  The pool is
    terminated before verify_range returns or raises.  When ``emit`` is
    given it receives each certificate and skip record as a dict, in
    cell order, as soon as its cell is done.
    """
    if n_max < 1:
        raise DomainError(f"verify_range requires n_max >= 1, got {n_max}")
    if r_max < 2:
        raise DomainError(f"verify_range requires r_max >= 2, got {r_max}")
    if jobs < 1:
        raise DomainError(f"verify_range requires jobs >= 1, got {jobs}")
    tasks = [
        (n, m, r_max, budget) for n in range(1, n_max + 1) for m in range(binom(n, 2) + 1)
    ]
    if jobs > 1:
        # graph_count without its cell check, which costs 20 times as much
        # over a sweep; every cell here is valid
        counts = (binom(binom(n, 2), m) for n, m, _, _ in tasks)
        if sum(c for c in counts if c <= budget) < POOL_MIN_GRAPHS:
            jobs = 1
    certificates = []
    skipped = []
    # leaving the block terminates the pool, also when emit raises
    with _pool(jobs) as pool:
        for records in (map if pool is None else pool.imap)(_verify_cell, tasks):
            for record in records:
                (skipped if isinstance(record, SkippedCell) else certificates).append(record)
                if emit is not None:
                    emit(record.as_dict())
    return VerificationSummary(
        n_max=n_max,
        r_max=r_max,
        budget=budget,
        certificates=tuple(certificates),
        skipped=tuple(skipped),
    )
