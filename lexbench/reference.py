"""Independent reference computations and output checkers.

Nothing here imports lexext.  Every expected value comes from the
definitions: decompositions by linear search, bounds through math.comb,
extremal values by brute-force enumeration, clique counts through
networkx.  A checker returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

MAX_PROBLEMS = 5


def pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs of [n], 1-indexed, in lex order."""
    return [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]


def sds_reference(n: int, m: int) -> tuple[int, int]:
    """(k, p_k) with m = (n-1) + ... + (n-k+1) + p_k, 1 <= p_k <= n-k."""
    run = 0
    for k in range(1, n):
        if m <= run + (n - k):
            return k, m - run
        run += n - k
    raise ValueError(f"m={m} outside 1..C({n},2)")


def triangular_reference(x: int) -> tuple[int, int]:
    """(s, t) with x = C(s, 2) + t and 0 < t <= s."""
    s = 1
    while x > s * (s + 1) // 2:
        s += 1
    return s, x - s * (s - 1) // 2


def alpha_reference(n: int, m: int) -> int:
    return n if m == 0 else n - sds_reference(n, m)[0]


def ir_reference(n: int, m: int, r: int) -> int:
    """Size-r bound in the depth form, C(n-k-p_k, r-1) + C(n-k, r)."""
    if m == 0:
        return math.comb(n, r)
    k, p_k = sds_reference(n, m)
    return math.comb(n - k - p_k, r - 1) + math.comb(n - k, r)


@functools.cache
def _independent_masks(n: int) -> tuple[list[int], list[int]]:
    """For each vertex subset S of [n]: its size and the mask of the pairs
    inside it, pair i of pairs(n) being bit i."""
    index = {p: i for i, p in enumerate(pairs(n))}
    sizes, inside = [], []
    for subset in range(1 << n):
        members = [v + 1 for v in range(n) if subset >> v & 1]
        sizes.append(len(members))
        mask = 0
        for u, v in itertools.combinations(members, 2):
            mask |= 1 << index[(u, v)]
        inside.append(mask)
    return sizes, inside


def naive_profile(n: int, edge_mask: int, sizes, inside) -> list[int]:
    counts = [0] * (n + 1)
    for size, mask in zip(sizes, inside):
        if not edge_mask & mask:
            counts[size] += 1
    return counts


def lex_total_reference(n: int, m: int) -> int:
    """Total independent-set count of the graph on the first m lex pairs."""
    sizes, inside = _independent_masks(n)
    return sum(naive_profile(n, (1 << m) - 1, sizes, inside))


def naive_cell(n: int, m: int) -> dict:
    """Maxima and attainer counts over every labelled graph of the cell,
    keyed like the certificates: "alpha", ("ir", r) and "total"."""
    sizes, inside = _independent_masks(n)
    best: dict = {}

    def offer(key, value):
        top, count = best.get(key, (-1, 0))
        if value > top:
            best[key] = (value, 1)
        elif value == top:
            best[key] = (top, count + 1)

    for combo in itertools.combinations(range(len(pairs(n))), m):
        edge_mask = sum(1 << i for i in combo)
        counts = naive_profile(n, edge_mask, sizes, inside)
        offer("alpha", max(r for r, c in enumerate(counts) if c))
        for r in range(2, n + 1):
            offer(("ir", r), counts[r])
        offer("total", sum(counts))
    return best


# --- bounds-all-r -----------------------------------------------------------

def check_bound_report(report, n: int, m: int) -> list[str]:
    """A report for an interior cell 0 < m < C(n, 2) with r_max = n."""
    k, p_k = sds_reference(n, m)
    s, t = triangular_reference(math.comb(n, 2) - m)
    problems = []
    expected = {"n": n, "m": m, "k": k, "p_k": p_k, "s": s, "t": t, "alpha_upper": n - k}
    for field, want in expected.items():
        got = getattr(report, field)
        if got != want:
            problems.append(f"({n},{m}) {field}={got}, expected {want}")
    relation = getattr(report.s_relation, "value", report.s_relation)
    want_relation = "S_EQUALS_ALPHA_U_MINUS_1" if t == s else "S_EQUALS_ALPHA_U"
    if relation != want_relation:
        problems.append(f"({n},{m}) s_relation={relation}, expected {want_relation}")
    sizes = [entry.r for entry in report.entries]
    if sizes != list(range(2, n + 1)):
        problems.append(f"({n},{m}) entries cover r={sizes[:3]}..., expected 2..{n}")
    largest_positive = 1  # C(n, 1) = n > 0
    for entry in report.entries:
        r = entry.r
        lex_form = math.comb(n - k - p_k, r - 1) + math.comb(n - k, r)
        erdos_form = math.comb(s, r) + math.comb(t, r - 1)
        if lex_form != erdos_form:
            problems.append(f"({n},{m},{r}) reference forms disagree")
        if (entry.ir_upper_lex, entry.ir_upper_erdos) != (lex_form, lex_form):
            problems.append(
                f"({n},{m},{r}) bounds {entry.ir_upper_lex}/{entry.ir_upper_erdos}, "
                f"expected {lex_form}"
            )
        if lex_form > 0:
            largest_positive = max(largest_positive, r)
    if report.alpha_upper != largest_positive:
        problems.append(
            f"({n},{m}) alpha_upper={report.alpha_upper}, but the largest r with a "
            f"positive bound is {largest_positive}"
        )
    return problems[:MAX_PROBLEMS]


# --- certify-seq / certify-pool ----------------------------------------------

def expected_verify_records(n_max: int, r_max: int, budget: int, naive_max_n: int = 5):
    """The record stream `lexext verify` must print, minus the summary.

    Each record holds only the fields checked.  Cells with n <= naive_max_n
    also carry the maxima and attainer counts found by naive enumeration;
    that enumeration is the costly part of this function.
    """
    records = []
    for n in range(1, n_max + 1):
        for m in range(math.comb(n, 2) + 1):
            count = math.comb(math.comb(n, 2), m)
            if count > budget:
                records.append(
                    {"kind": "skipped", "n": n, "m": m, "required": count, "budget": budget}
                )
                continue
            naive = naive_cell(n, m) if n <= naive_max_n else None
            certs = [("alpha", None, alpha_reference(n, m), "alpha")]
            for r in range(2, min(r_max, n) + 1):
                certs.append(("ir", r, ir_reference(n, m, r), ("ir", r)))
            certs.append(("total", None, lex_total_reference(n, m), "total"))
            for kind, r, bound, key in certs:
                record = {
                    "kind": kind, "n": n, "m": m, "r": r, "bound": bound,
                    "graphs_checked": count, "valid": True, "sharp": True,
                    "attained_by_lex": True, "ok": True,
                }
                if naive is not None:
                    record["max_observed"], record["extremal_graph_count"] = naive[key]
                records.append(record)
    return records


def check_verify_output(text: str, expected: list[dict], n_max: int, r_max: int, budget: int) -> list[str]:
    """Check a verify stream: every expected record in order, then a summary."""
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        return [f"output is not JSON lines: {exc}"]
    if not records:
        return ["empty output"]
    *body, summary = records
    problems = []
    if len(body) != len(expected):
        problems.append(f"{len(body)} records, expected {len(expected)}")
    for i, (got, want) in enumerate(zip(body, expected)):
        wrong = [key for key, value in want.items() if got.get(key) != value]
        if wrong:
            problems.append(
                f"record {i} ({want['kind']} n={want['n']} m={want['m']}): "
                + ", ".join(f"{key}={got.get(key)!r} expected {want[key]!r}" for key in wrong)
            )
        if len(problems) >= MAX_PROBLEMS:
            return problems
    certificates = [r for r in expected if r["kind"] != "skipped"]
    want_summary = {
        "kind": "summary",
        "n_max": n_max,
        "r_max": r_max,
        "budget": budget,
        "cells_checked": len({(r["n"], r["m"]) for r in certificates}),
        "cells_skipped": len(expected) - len(certificates),
        "certificates": len(certificates),
        "failures": 0,
    }
    for key, value in want_summary.items():
        if summary.get(key) != value:
            problems.append(f"summary {key}={summary.get(key)!r}, expected {value!r}")
    return problems[:MAX_PROBLEMS]


# --- count-profile ------------------------------------------------------------

def complement_triangles(n: int, edges) -> int:
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    full = (1 << n) - 1
    comp = [(full & ~adj[i]) & ~(1 << i) for i in range(n)]
    triangles = 0
    for u in range(n):
        for v in range(u + 1, n):
            if comp[u] >> v & 1:
                triangles += (comp[u] & comp[v] & ~((1 << (v + 1)) - 1)).bit_count()
    return triangles


def graph6(n: int, edges) -> str:
    """graph6 encoding (no header) of a graph of order n <= 62."""
    present = set(edges)
    out = [chr(n + 63)]
    bits = nbits = 0
    for v in range(2, n + 1):  # upper triangle, column by column
        for u in range(1, v):
            bits = bits << 1 | ((u, v) in present)
            nbits += 1
            if nbits == 6:
                out.append(chr(bits + 63))
                bits = nbits = 0
    if nbits:
        out.append(chr((bits << (6 - nbits)) + 63))
    return "".join(out)


def networkx_profile(n: int, edges) -> list[int]:
    """Independent sets of the graph by size, as cliques of its complement."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    counts = [0] * (n + 1)
    counts[0] = 1
    for clique in nx.enumerate_all_cliques(nx.complement(g)):
        counts[len(clique)] += 1
    return counts


def adjacency_edges(adj) -> set[tuple[int, int]]:
    """Edge set of bitmask adjacency rows, read without the package's help."""
    return {
        (i + 1, j + 1)
        for i, row in enumerate(adj)
        for j in range(i + 1, row.bit_length())
        if row >> j & 1
    }


def check_count(n: int, edges, graph_n: int, adj, counts, full_profile=None) -> list[str]:
    """Check one parsed graph and its independence profile."""
    m = len(edges)
    problems = []
    if graph_n != n or adjacency_edges(adj) != set(edges):
        problems.append(f"n={n} m={m}: parsed graph differs from the generated one")
    if len(counts) != n + 1:
        problems.append(f"n={n} m={m}: profile has {len(counts)} entries, expected {n + 1}")
    prefix = [1, n, math.comb(n, 2) - m, complement_triangles(n, edges)]
    for r, want in enumerate(prefix[: n + 1]):
        if r < len(counts) and counts[r] != want:
            problems.append(f"n={n} m={m}: c[{r}]={counts[r]}, expected {want}")
    if full_profile is not None and list(counts) != full_profile:
        problems.append(f"n={n} m={m}: profile differs from networkx clique enumeration")
    return problems[:MAX_PROBLEMS]
