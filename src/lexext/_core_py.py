"""Pure-Python counting kernels.

Reference implementations with the same contracts as the C extension
``_core_c``; ``_kernels`` selects between the two at import time, and the
tests hold the C kernel to these results.
Graphs arrive as sequences of adjacency bitmasks where bit i stands for
vertex index i (0-based).  These functions are pure and safe to call from
any number of threads or worker processes.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, islice
from math import comb, factorial

# the largest count the compiled kernel's int64 arithmetic holds
INT64_MAX = 2**63 - 1


def profile_counts(adj, n: int) -> list[int]:
    """Count independent sets of every size; entry r is the size-r count.

    Branches on a vertex of maximum remaining degree (lowest index on
    ties): the branch excluding it keeps the rest of the candidate set,
    the branch including it drops its closed neighborhood and shifts
    sizes by one.  Once the candidate set is edgeless the remaining
    subsets are counted in one binomial step.
    """
    counts = [0] * (n + 1)

    def rec(mask: int, size: int) -> None:
        best_v = -1
        best_d = 0
        rest = mask
        while rest:
            lsb = rest & -rest
            v = lsb.bit_length() - 1
            rest ^= lsb
            d = (adj[v] & mask).bit_count()
            if d > best_d:
                best_d = d
                best_v = v
        if best_v < 0:
            q = mask.bit_count()
            for j in range(q + 1):
                counts[size + j] += comb(q, j)
            return
        rec(mask & ~(1 << best_v), size)
        rec(mask & ~(adj[best_v] | (1 << best_v)), size + 1)

    rec((1 << n) - 1, 0)
    return counts


def _pair_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _next_combination(combo: list[int], p: int) -> bool:
    k = len(combo)
    i = k - 1
    while i >= 0 and combo[i] == p - k + i:
        i -= 1
    if i < 0:
        return False
    combo[i] += 1
    for j in range(i + 1, k):
        combo[j] = combo[j - 1] + 1
    return True


class _Fold:
    """Running maxima of a scan's profiles, each with the weight of the
    graphs that attain it and the adjacency rows of the first graph folded
    that reached it, and the weight of all graphs folded."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.checked = 0
        self.max_alpha = -1
        self.alpha_count = 0
        self.alpha_witness = None
        self.max_ir = [-1] * (n + 1)
        self.ir_count = [0] * (n + 1)
        self.ir_witness = [None] * (n + 1)
        self.max_total = -1
        self.total_count = 0
        self.total_witness = None

    def add(self, adj, weight: int) -> None:
        counts = profile_counts(adj, self.n)
        total = 0
        alpha = 0
        for r, c in enumerate(counts):
            total += c
            if c:
                alpha = r
            if c > self.max_ir[r]:
                self.max_ir[r] = c
                self.ir_count[r] = weight
                self.ir_witness[r] = tuple(adj)
            elif c == self.max_ir[r]:
                self.ir_count[r] += weight
        if alpha > self.max_alpha:
            self.max_alpha = alpha
            self.alpha_count = weight
            self.alpha_witness = tuple(adj)
        elif alpha == self.max_alpha:
            self.alpha_count += weight
        if total > self.max_total:
            self.max_total = total
            self.total_count = weight
            self.total_witness = tuple(adj)
        elif total == self.max_total:
            self.total_count += weight
        self.checked += weight

    def record(self) -> dict:
        """The fold keyed by CellScan's field names: the seven reductions,
        which are also scan_graph_range's tuple in this order, then the
        witnesses."""
        return {
            "graphs_checked": self.checked,
            "max_alpha": self.max_alpha,
            "alpha_count": self.alpha_count,
            "max_ir": tuple(self.max_ir),
            "ir_count": tuple(self.ir_count),
            "max_total": self.max_total,
            "total_count": self.total_count,
            "alpha_witness": self.alpha_witness,
            "ir_witness": tuple(self.ir_witness),
            "total_witness": self.total_witness,
        }


def scan_graph_range(n: int, m: int, first_combo, steps: int):
    """Visit ``steps`` consecutive m-edge graphs and fold their profiles.

    Graphs are m-combinations of the lex-ordered vertex-pair slots, in
    lexicographic combination order starting from ``first_combo``.
    Returns the positional 7-tuple

        (checked, max_alpha, alpha_count, max_ir, ir_count,
         max_total, total_count)

    where max_ir[r] is the largest size-r independent-set count seen over
    the visited graphs, the *_count entries say how many graphs attained
    each maximum, and max_total is the largest per-graph total: the first
    seven values of scan_sorted's record, without names or witnesses.  It
    is the labeled reference for scan_sorted, kept for the tests and for
    the benchmark's kernel agreement check, which reads this shape.
    """
    pairs = _pair_slots(n)
    combo = list(first_combo)
    adj = [0] * n
    fold = _Fold(n)
    while fold.checked < steps:
        for i in range(n):
            adj[i] = 0
        for slot in combo:
            u, v = pairs[slot]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        fold.add(adj, 1)
        if fold.checked < steps and not _next_combination(combo, len(pairs)):
            break
    return tuple(islice(fold.record().values(), 7))


def scan_sorted(n: int, m: int):
    """Fold the profiles of every m-edge graph on n vertices, visiting only
    the degree-sorted ones, each weighted by the labeled graphs it stands
    for.  Returns a dict keyed by CellScan's fields other than n and m:
    graphs_checked, the maxima and their *_count weights as
    scan_graph_range folds them for the whole cell, and three witnesses,
    the adjacency rows of the first graph in search order that reaches
    max_alpha (alpha_witness), a tuple of those for each max_ir[r]
    (ir_witness), and those for max_total (total_witness).

    A graph is degree-sorted when deg(0) >= deg(1) >= ... >= deg(n-1).
    Every graph has a degree-sorted relabeling, and every profile entry
    is an isomorphism invariant, so each maximum is attained on a sorted
    graph.  A sorted graph G stays sorted exactly under the relabelings
    that permute its blocks of equal degree, and Aut G lies among them,
    so by orbit-stabilizer G stands for n!/prod(c_d!) labeled graphs,
    where c_d counts its vertices of degree d.  Ties add these weights,
    and ``checked``, their sum, is C(C(n,2), m).

    The search runs row by row over the lex-ordered slots: vertex u picks
    its neighbours among u+1..n-1, after which deg(u) is final and caps
    every later degree.  It prunes on edge count and on those caps, so a
    sparse or dense cell of a large order stays polynomial.  A cell whose
    count exceeds 2**63 - 1 is refused with OverflowError, as the
    compiled kernel's int64 counts could not hold it.
    """
    p = n * (n - 1) // 2
    if n < 1 or not 0 <= m <= p:
        raise ValueError(f"cell ({n},{m}) outside n >= 1, 0 <= m <= {p}")
    if comb(p, m) > INT64_MAX:
        raise OverflowError(f"cell ({n},{m}) has C({p},{m}) > 2**63 - 1 graphs")
    adj = [0] * n
    deg = [0] * n
    fold = _Fold(n)

    def row_done(u: int, e: int) -> bool:
        # later vertices gain 2(m - e) degree in all: at least enough to
        # keep the degrees sorted, at most what deg(u) and the room allow
        d = deg[u]
        top = lower = upper = 0
        for w in range(n - 1, u, -1):
            if deg[w] > d:
                return False
            top = max(top, deg[w])
            lower += top - deg[w]
            upper += min(d - deg[w], n - 2 - u)
        return lower <= 2 * (m - e) <= upper

    def row(u: int, cap: int, e: int) -> None:
        if u == n - 1:
            weight = factorial(n)
            for c in Counter(deg).values():
                weight //= factorial(c)
            fold.add(adj, weight)
            return
        later = range(u + 1, n)
        free = [v for v in later if deg[v] < cap]
        lo = max(0, m - e - comb(n - 1 - u, 2), max(deg[v] for v in later) - deg[u])
        hi = min(len(free), cap - deg[u], m - e)
        for size in range(lo, hi + 1):
            for chosen in combinations(free, size):
                for v in chosen:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    deg[v] += 1
                deg[u] += size
                if row_done(u, e + size):
                    row(u + 1, deg[u], e + size)
                deg[u] -= size
                for v in chosen:
                    adj[u] &= ~(1 << v)
                    adj[v] &= ~(1 << u)
                    deg[v] -= 1

    row(0, n - 1, 0)
    return fold.record()
