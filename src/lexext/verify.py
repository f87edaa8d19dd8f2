"""Exhaustive sharpness verification over all labeled graphs of a cell.

A cell is a pair (n, m).  Its graphs are the m-combinations of the
C(n, 2) lex-ordered vertex-pair slots, visited in lex combination order,
so enumeration is deterministic and a cell can be split into contiguous
rank ranges for parallel scanning.  Each range reduces to elementwise
maxima with tie counts; ranges merge associatively, so the merged result
is identical no matter how the cell was partitioned.

Certificates compare the scanned maxima against the closed-form bounds
and against the lex graph's own counts.  Validity (no graph beats the
bound) and sharpness (some graph meets it, the lex graph among them) are
recorded separately so a failure says precisely what broke.

Cells larger than the budget are refused up front with the exact graph
count required, never silently truncated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

from . import _kernels
from .arith import binom
from .bounds import alpha_upper, ir_upper_lex
from .counting import independence_profile
from .errors import BudgetExceededError, DomainError
from .lexgraph import Graph, build_lex_graph

DEFAULT_BUDGET = 10**7


def pair_slots(n: int) -> tuple[tuple[int, int], ...]:
    """All vertex pairs {u, v} of [n] as 1-indexed (u, v) with u < v, in
    lex order.  Slot i of this tuple is edge rank i of the lex graph."""
    if n < 1:
        raise DomainError(f"pair_slots requires n >= 1, got n={n}")
    return tuple((u, v) for u in range(1, n) for v in range(u + 1, n + 1))


def graph_count(n: int, m: int) -> int:
    """Number of labeled simple graphs on [n] with exactly m edges."""
    if n < 1:
        raise DomainError(f"graph_count requires n >= 1, got n={n}")
    if not 0 <= m <= binom(n, 2):
        raise DomainError(f"graph_count requires 0 <= m <= C(n,2), got m={m}")
    return binom(binom(n, 2), m)


def unrank_combination(p: int, m: int, rank: int) -> tuple[int, ...]:
    """The rank-th m-combination of {0, ..., p-1} in lex order.

    Inverse of the order itertools.combinations(range(p), m) produces;
    used to hand each parallel worker the first combination of its rank
    range without enumerating everything before it.
    """
    if p < 0 or m < 0 or m > p:
        raise DomainError(f"unrank_combination needs 0 <= m <= p, got p={p}, m={m}")
    total = binom(p, m)
    if not 0 <= rank < total:
        raise DomainError(f"rank {rank} outside [0, {total}) for C({p},{m})")
    combo = []
    x = 0
    for i in range(m):
        while True:
            # combinations that fix x at position i and fill the rest freely
            c = binom(p - x - 1, m - i - 1)
            if rank < c:
                combo.append(x)
                x += 1
                break
            rank -= c
            x += 1
    return tuple(combo)


def for_each_graph(n: int, m: int, visitor, *, budget: int = DEFAULT_BUDGET) -> int:
    """Deliver every labeled graph of the cell to ``visitor``, once each,
    in lex combination order.  Returns the number of graphs visited.

    Refuses cells whose graph count exceeds ``budget``.
    """
    total = graph_count(n, m)
    if total > budget:
        raise BudgetExceededError(n, m, required=total, budget=budget)
    slots = pair_slots(n)
    visited = 0
    for combo in itertools.combinations(range(len(slots)), m):
        adj = [0] * n
        for idx in combo:
            u, v = slots[idx]
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        visitor(Graph(n, tuple(adj)))
        visited += 1
    return visited


def _max_with_ties(a: int, a_count: int, b: int, b_count: int) -> tuple[int, int]:
    """The larger of two maxima with its tie count; equal maxima add counts."""
    if a == b:
        return a, a_count + b_count
    return (a, a_count) if a > b else (b, b_count)


@dataclass(frozen=True)
class CellScan:
    """Reduction of one (n, m) cell: maxima with tie counts.

    max_ir and ir_count are indexed by set size r = 0..n.  Two scans of
    disjoint rank ranges of the same cell merge exactly: maxima combine
    by max, counts add when the maxima tie.
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

    @classmethod
    def from_raw(cls, n: int, m: int, raw) -> "CellScan":
        checked, max_alpha, alpha_count, max_ir, ir_count, max_total, total_count = raw
        return cls(
            n=n,
            m=m,
            graphs_checked=int(checked),
            max_alpha=int(max_alpha),
            alpha_count=int(alpha_count),
            max_ir=tuple(int(x) for x in max_ir),
            ir_count=tuple(int(x) for x in ir_count),
            max_total=int(max_total),
            total_count=int(total_count),
        )

    def merge(self, other: "CellScan") -> "CellScan":
        if (self.n, self.m) != (other.n, other.m):
            raise DomainError("cannot merge scans of different cells")
        max_ir, ir_count = zip(
            *map(_max_with_ties, self.max_ir, self.ir_count, other.max_ir, other.ir_count)
        )
        max_alpha, alpha_count = _max_with_ties(
            self.max_alpha, self.alpha_count, other.max_alpha, other.alpha_count
        )
        max_total, total_count = _max_with_ties(
            self.max_total, self.total_count, other.max_total, other.total_count
        )
        return CellScan(
            n=self.n,
            m=self.m,
            graphs_checked=self.graphs_checked + other.graphs_checked,
            max_alpha=max_alpha,
            alpha_count=alpha_count,
            max_ir=max_ir,
            ir_count=ir_count,
            max_total=max_total,
            total_count=total_count,
        )


def _scan_chunk(args):
    # top-level so multiprocessing can pickle it
    n, m, first_combo, steps = args
    return _kernels.scan_graph_range(n, m, first_combo, steps)


def scan_cell(
    n: int,
    m: int,
    *,
    budget: int = DEFAULT_BUDGET,
    pool=None,
    chunks: int | None = None,
) -> CellScan:
    """Scan every graph of the cell and reduce to a CellScan.

    With a multiprocessing pool the combination space is split into
    contiguous rank ranges and merged; the result is identical to the
    sequential scan.
    """
    total = graph_count(n, m)
    if total > budget:
        raise BudgetExceededError(n, m, required=total, budget=budget)
    if chunks is None:
        chunks = 1 if pool is None else 16
    chunks = max(1, min(chunks, total))
    if pool is None or chunks == 1:
        raw = _kernels.scan_graph_range(n, m, tuple(range(m)), total)
        scan = CellScan.from_raw(n, m, raw)
    else:
        p = len(pair_slots(n))
        bounds_ = [i * total // chunks for i in range(chunks + 1)]
        tasks = []
        for lo, hi in zip(bounds_, bounds_[1:]):
            if hi > lo:
                tasks.append((n, m, unrank_combination(p, m, lo), hi - lo))
        parts = pool.map(_scan_chunk, tasks)
        scan = CellScan.from_raw(n, m, parts[0])
        for raw in parts[1:]:
            scan = scan.merge(CellScan.from_raw(n, m, raw))
    if scan.graphs_checked != total:
        raise AssertionError(
            f"cell ({n},{m}) scanned {scan.graphs_checked} graphs, expected {total}"
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


def _find_counterexample(n: int, m: int, exceeds, budget: int):
    """First graph (lex combination order) whose profile trips ``exceeds``.

    Only called after a scan has already proved one exists, so the linear
    rescan is a diagnostic path, not a hot one.
    """
    found = []

    def visitor(g: Graph) -> None:
        if found:
            return
        if exceeds(independence_profile(g)):
            found.append(tuple(g.edges()))

    for_each_graph(n, m, visitor, budget=budget)
    return found[0] if found else None


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
    max_observed: int,
    lex_value: int,
    extremal_count: int,
    scan: CellScan,
    exceeds,
    budget: int,
) -> SharpnessCertificate:
    cert = SharpnessCertificate(
        kind=kind,
        n=n,
        m=m,
        r=r,
        bound=bound,
        max_observed=max_observed,
        attained_by_lex=lex_value == max_observed,
        extremal_graph_count=extremal_count,
        graphs_checked=scan.graphs_checked,
    )
    if not cert.valid:
        witness = _find_counterexample(n, m, exceeds, budget)
        cert = replace(cert, counterexample=witness)
    return cert


def verify_alpha_sharp(
    n: int,
    m: int,
    *,
    budget: int = DEFAULT_BUDGET,
    pool=None,
    chunks: int | None = None,
    scan: CellScan | None = None,
) -> SharpnessCertificate:
    """Certify the independence-number bound against every graph of the
    cell, and that the lex graph attains the maximum.

    Pass a precomputed ``scan`` to amortize one cell scan across several
    certificates.
    """
    if scan is None:
        scan = scan_cell(n, m, budget=budget, pool=pool, chunks=chunks)
    bound = alpha_upper(n, m)
    lex_profile = _lex_profile(n, m)
    return _certificate(
        "alpha",
        n,
        m,
        None,
        bound,
        scan.max_alpha,
        lex_profile.alpha(),
        scan.alpha_count,
        scan,
        lambda prof: prof.alpha() > bound,
        budget,
    )


def verify_ir_sharp(
    n: int,
    m: int,
    r: int,
    *,
    budget: int = DEFAULT_BUDGET,
    pool=None,
    chunks: int | None = None,
    scan: CellScan | None = None,
) -> SharpnessCertificate:
    """Certify the size-r independent-set count bound for the cell.

    The lex graph must attain the scanned maximum; together with
    sharpness that pins its exact count to the bound.
    """
    if not 2 <= r <= n:
        raise DomainError(f"verify_ir_sharp requires 2 <= r <= n, got r={r}")
    if scan is None:
        scan = scan_cell(n, m, budget=budget, pool=pool, chunks=chunks)
    bound = ir_upper_lex(n, m, r)
    lex_profile = _lex_profile(n, m)
    return _certificate(
        "ir",
        n,
        m,
        r,
        bound,
        scan.max_ir[r],
        lex_profile.size_count(r),
        scan.ir_count[r],
        scan,
        lambda prof: prof.size_count(r) > bound,
        budget,
    )


def verify_total_count_extremality(
    n: int,
    m: int,
    *,
    budget: int = DEFAULT_BUDGET,
    pool=None,
    chunks: int | None = None,
    scan: CellScan | None = None,
) -> SharpnessCertificate:
    """Certify that the lex graph maximizes the total independent-set
    count over the cell.  The reference value is the lex graph's own
    total, so valid means no graph beats it."""
    if scan is None:
        scan = scan_cell(n, m, budget=budget, pool=pool, chunks=chunks)
    lex_total = _lex_profile(n, m).total()
    return _certificate(
        "total",
        n,
        m,
        None,
        lex_total,
        scan.max_total,
        lex_total,
        scan.total_count,
        scan,
        lambda prof: prof.total() > lex_total,
        budget,
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


def verify_range(
    n_max: int,
    r_max: int,
    *,
    budget: int = DEFAULT_BUDGET,
    pool=None,
    chunks: int | None = None,
    emit=None,
) -> VerificationSummary:
    """Run all three certificate kinds for every cell n <= n_max, every
    m, every r in [2, min(r_max, n)], skipping cells over budget.

    Each cell is scanned once and shared across its certificates.  When
    ``emit`` is given it receives each certificate and skip record as a
    dict, in deterministic cell order, as soon as it is produced.
    """
    if n_max < 1:
        raise DomainError(f"verify_range requires n_max >= 1, got {n_max}")
    if r_max < 2:
        raise DomainError(f"verify_range requires r_max >= 2, got {r_max}")
    certificates = []
    skipped = []
    for n in range(1, n_max + 1):
        for m in range(binom(n, 2) + 1):
            try:
                scan = scan_cell(n, m, budget=budget, pool=pool, chunks=chunks)
            except BudgetExceededError as exc:
                record = SkippedCell(n=n, m=m, required=exc.required, budget=exc.budget)
                skipped.append(record)
                if emit is not None:
                    emit(record.as_dict())
                continue
            cell_certs = [verify_alpha_sharp(n, m, budget=budget, scan=scan)]
            for r in range(2, min(r_max, n) + 1):
                cell_certs.append(verify_ir_sharp(n, m, r, budget=budget, scan=scan))
            cell_certs.append(verify_total_count_extremality(n, m, budget=budget, scan=scan))
            for cert in cell_certs:
                certificates.append(cert)
                if emit is not None:
                    emit(cert.as_dict())
    return VerificationSummary(
        n_max=n_max,
        r_max=r_max,
        budget=budget,
        certificates=tuple(certificates),
        skipped=tuple(skipped),
    )
