"""Timing comparison of the two counting kernels.

Runs the pure Python kernel and, when the extension is importable, the
C one on identical workloads, checks that their outputs agree,
and prints a small table with the speedup.

Usage:
    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --profile-n 18 --scan-n 7 --scan-m 12 --repeat 5
"""

from __future__ import annotations

import argparse
import random
import time

from lexext import _core_py
from lexext.verify import graph_count, pair_slots

try:
    from lexext import _core_c
except ImportError:
    _core_c = None


def random_adj(n: int, rng: random.Random) -> list[int]:
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def time_call(fn, repeat: int):
    """Best-of-repeat wall time and the value from the last run."""
    best = float("inf")
    value = None
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def bench_profile(n: int, graphs: int, repeat: int, rng: random.Random):
    batch = [random_adj(n, rng) for _ in range(graphs)]

    def run(mod):
        return [mod.profile_counts(adj, n) for adj in batch]

    rows = [("python", *time_call(lambda: run(_core_py), repeat))]
    if _core_c is not None:
        rows.append(("c", *time_call(lambda: run(_core_c), repeat)))
    return rows


def bench_scan(n: int, m: int, repeat: int):
    steps = graph_count(n, m)
    first = tuple(range(m))

    def run(mod):
        return mod.scan_graph_range(n, m, first, steps)

    rows = [("python", *time_call(lambda: run(_core_py), repeat))]
    if _core_c is not None:
        rows.append(("c", *time_call(lambda: run(_core_c), repeat)))
    return rows, steps


def report(title: str, rows) -> None:
    print(title)
    base = rows[0][1]
    for name, seconds, _ in rows:
        speedup = "" if seconds == base else f"  ({base / seconds:5.1f}x)"
        print(f"  {name:<8} {seconds * 1000:10.2f} ms{speedup}")
    values = [value for _, _, value in rows]
    if any(v != values[0] for v in values[1:]):
        raise SystemExit(f"kernel outputs disagree in {title!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile-n", type=int, default=16,
                        help="graph order for the per-graph profile workload")
    parser.add_argument("--graphs", type=int, default=200,
                        help="random graphs per profile run")
    parser.add_argument("--scan-n", type=int, default=6,
                        help="order for the full-cell scan workload")
    parser.add_argument("--scan-m", type=int, default=7,
                        help="edge count for the full-cell scan workload")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per measurement (best is kept)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    if args.scan_m > len(pair_slots(args.scan_n)):
        parser.error("--scan-m exceeds the number of vertex pairs")

    if _core_c is None:
        print("C extension not importable; timing pure Python only")

    rng = random.Random(args.seed)
    report(
        f"profile_counts: {args.graphs} random graphs, n={args.profile_n}",
        bench_profile(args.profile_n, args.graphs, args.repeat, rng),
    )
    rows, steps = bench_scan(args.scan_n, args.scan_m, args.repeat)
    report(
        f"scan_graph_range: all {steps} graphs with n={args.scan_n}, m={args.scan_m}",
        rows,
    )


if __name__ == "__main__":
    main()
