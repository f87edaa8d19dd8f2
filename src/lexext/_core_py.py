"""Pure-Python counting kernels.

Reference implementations with the same contracts as the C extension
``_core_c``; ``_kernels`` selects between the two at import time, and the
tests hold the C kernel to these results.
Graphs arrive as sequences of adjacency bitmasks where bit i stands for
vertex index i (0-based).  These functions are pure and safe to call from
any number of threads or worker processes.
"""

from __future__ import annotations

from math import comb


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


def max_independent_size(adj, n: int) -> int:
    """Size of a largest independent set, without computing the profile."""
    best = 0

    def rec(mask: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if size + mask.bit_count() <= best:
            return
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
            total = size + mask.bit_count()
            if total > best:
                best = total
            return
        rec(mask & ~(adj[best_v] | (1 << best_v)), size + 1)
        rec(mask & ~(1 << best_v), size)

    rec((1 << n) - 1, 0)
    return best


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


def scan_graph_range(n: int, m: int, first_combo, steps: int):
    """Visit ``steps`` consecutive m-edge graphs and fold their profiles.

    Graphs are m-combinations of the lex-ordered vertex-pair slots, in
    lexicographic combination order starting from ``first_combo``.
    Returns a tuple

        (checked, max_alpha, alpha_count, max_ir, ir_count,
         max_total, total_count)

    where max_ir[r] is the largest size-r independent-set count seen over
    the visited graphs, the *_count entries say how many graphs attained
    each maximum, and max_total is the largest per-graph total.  A range
    may start at any rank, so a counterexample search can bisect a cell.
    """
    pairs = _pair_slots(n)
    combo = list(first_combo)
    adj = [0] * n
    max_alpha = -1
    alpha_count = 0
    max_ir = [-1] * (n + 1)
    ir_count = [0] * (n + 1)
    max_total = -1
    total_count = 0
    checked = 0
    while checked < steps:
        for i in range(n):
            adj[i] = 0
        for slot in combo:
            u, v = pairs[slot]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        counts = profile_counts(adj, n)
        total = 0
        alpha = 0
        for r in range(n + 1):
            c = counts[r]
            total += c
            if c:
                alpha = r
            if c > max_ir[r]:
                max_ir[r] = c
                ir_count[r] = 1
            elif c == max_ir[r]:
                ir_count[r] += 1
        if alpha > max_alpha:
            max_alpha = alpha
            alpha_count = 1
        elif alpha == max_alpha:
            alpha_count += 1
        if total > max_total:
            max_total = total
            total_count = 1
        elif total == max_total:
            total_count += 1
        checked += 1
        if checked < steps and not _next_combination(combo, len(pairs)):
            break
    return (
        checked,
        max_alpha,
        alpha_count,
        tuple(max_ir),
        tuple(ir_count),
        max_total,
        total_count,
    )
