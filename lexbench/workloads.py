"""The four workloads: seeded inputs, the operations run on them, and the
checks applied to each result.

Each workload hands out rounds of operations.  A round is the unit a run
repeats whole, so every run attempts the same mix of operations and the
per-operation counts of a traced run repeat exactly.  Inputs and the
reference values they are checked against are made outside the timed
calls.

A workload is made as ``make(seed, lexext, references=None)``.  Its
``references`` attribute holds the reference values that are costly in
memory or time (networkx clique counts, a sequential verify run); run.py
computes them before it starts the measured process and hands them over,
so that the measured process never imports networkx.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable

import reference


@dataclass
class Op:
    call: Callable[[], object]
    items: int  # units of work: reports, graphs checked or graphs counted
    check: Callable[[object], list[str]]


class BoundsAllR:
    """`bound_report(n, m, r_max=n)` on interior cells of the orders n in
    40..120, in a seeded order.

    A round holds weight[n] = C(n,2) // C(40,2) cells of each order, 319
    in all, so every order runs out of fresh cells after about
    the same number of rounds: 779, or 248,501 reports.  The cells of each
    order are a seeded permutation of its m in 1..C(n,2)-1, kept in a
    two-byte array; a run that gets past its end starts the permutations
    over, so a cell repeats only after every cell of its order was used.
    """

    name = "bounds-all-r"
    orders = range(40, 121)
    warmup = "lexext.bound_report(80, 1580, r_max=80)"
    references = None

    def __init__(self, seed: int, lexext, references=None) -> None:
        self.lexext = lexext
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}")
        self.weight = {n: math.comb(n, 2) // math.comb(self.orders[0], 2) for n in self.orders}
        self.cells = {
            n: array("H", rng.sample(range(1, math.comb(n, 2)), math.comb(n, 2) - 1)) for n in self.orders
        }

    def round(self, i: int) -> list[Op]:
        ops = []
        for n in self.orders:
            ms = self.cells[n]
            w = self.weight[n]
            ops += [self._op(n, ms[(i * w + j) % len(ms)]) for j in range(w)]
        random.Random(f"{self.name}/{self.seed}/{i}").shuffle(ops)
        return ops

    def _op(self, n: int, m: int) -> Op:
        lexext = self.lexext
        return Op(
            call=lambda: lexext.bound_report(n, m, r_max=n),
            items=1,
            check=lambda report: reference.check_bound_report(report, n, m),
        )

    def agreement_inputs(self):
        return []


class _Output(io.StringIO):
    """Captured stdout that offers a checkpoint on every write, so that a
    seconds-long verify run can be calibrated between its cells."""

    def __init__(self, checkpoint) -> None:
        super().__init__()
        self._checkpoint = checkpoint

    def write(self, text: str) -> int:
        self._checkpoint()
        return super().write(text)


class Certify:
    """`lexext verify --n-max 8 --budget 30000` through the in-process CLI.

    Every round is the same single invocation: 63 cells of 1 to 20,349
    graphs and 29 cells over the budget.  The seed does not change it.
    """

    n_max, budget = 8, 30000

    def __init__(self, seed: int, lexext, jobs: int, references=None) -> None:
        self.name = "certify-seq" if jobs == 1 else "certify-pool"
        self.lexext = lexext
        self.r_max = max(2, self.n_max)
        self.argv = [
            "verify", "--n-max", str(self.n_max), "--budget", str(self.budget), "--jobs", str(jobs),
        ]
        self.warmup = (
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    lexext.cli.main(['verify', '--n-max', '4', '--budget', '{self.budget}', '--jobs', '{jobs}'])"
        )
        self.checkpoint = lambda: None  # the benchmark loop may pause here to calibrate
        if references is None:
            # a pooled run must print exactly what a sequential run prints
            references = {
                "expected": reference.expected_verify_records(self.n_max, self.r_max, self.budget),
                "sequential": self._invoke(self.argv[:-1] + ["1"])[1] if jobs > 1 else None,
            }
        self.references = references
        self.expected = references["expected"]
        self.sequential = references["sequential"]
        self.cells = sorted({(r["n"], r["m"], r["graphs_checked"]) for r in self.expected if r["kind"] != "skipped"})
        self.graphs = sum(count for _, _, count in self.cells)

    def _invoke(self, argv):
        out = _Output(self.checkpoint)
        with contextlib.redirect_stdout(out):
            code = self.lexext.cli.main(argv)
        return code, out.getvalue()

    def _check(self, result) -> list[str]:
        code, text = result
        problems = [] if code == 0 else [f"exit code {code}"]
        if self.sequential is not None and text != self.sequential:
            problems.append("pooled output differs from the sequential output")
        return problems + reference.check_verify_output(
            text, self.expected, self.n_max, self.r_max, self.budget
        )

    def round(self, i: int) -> list[Op]:
        return [Op(call=lambda: self._invoke(self.argv), items=self.graphs, check=self._check)]

    def agreement_inputs(self):
        return [("scan_graph_range", (n, m, tuple(range(m)), count)) for n, m, count in self.cells]


@dataclass
class CountInput:
    n: int
    edges: list[tuple[int, int]]
    fmt: str
    text: str
    full_profile: list[int] | None = None


class CountProfile:
    """`parse_document` then `independence_profile`, the library path of
    `lexext count`, on fresh seeded graphs every round.

    A round holds, for each band of orders below, one dense graph (half
    the pairs) and one sparse graph (three tenths), each of an order drawn
    from the band; one is written as graph6 and the other as an edge list,
    alternating from round to round.  Graphs are uniform over their (n, m).
    Drawing orders within bands keeps the mix of sizes the same in every
    round while the latencies spread smoothly.  graph6 is written by the
    benchmark's own encoder (tested against networkx, whose encoder costs
    more per graph than a compiled count).
    """

    name = "count-profile"
    bands = tuple(range(lo, lo + 4) for lo in range(16, 60, 4)) + (range(60, 63),)
    densities = (0.5, 0.3)
    formats = ("graph6", "edgelist")
    nx_max_order = 24  # round 0 inputs below it get their whole profile from networkx
    warmup = (
        "lexext.independence_profile(lexext.parse_document('D}_', 'graph6').graph)\n"
        "lexext.independence_profile(lexext.parse_document('3 2\\n1 2\\n2 3\\n', 'edgelist').graph)"
    )

    def __init__(self, seed: int, lexext, references=None) -> None:
        self.lexext = lexext
        self.seed = seed
        if references is None:
            # the two lowest bands only, so that the enumeration stays short
            references = [
                reference.networkx_profile(x.n, x.edges) if x.n < self.nx_max_order else None
                for x in self.inputs(0)
            ]
        self.references = references

    def inputs(self, i: int) -> list[CountInput]:
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        inputs = []
        for j, band in enumerate(self.bands):
            for d, density in enumerate(self.densities):
                n = rng.choice(band)
                pairs = reference.pairs(n)
                edges = [pairs[k] for k in sorted(rng.sample(range(len(pairs)), round(density * len(pairs))))]
                fmt = self.formats[(i + j + d) % 2]
                if fmt == "graph6":
                    text = reference.graph6(n, edges) + "\n"
                else:
                    text = "".join([f"{n} {len(edges)}\n", *(f"{u} {v}\n" for u, v in edges)])
                inputs.append(CountInput(n, edges, fmt, text))
        rng.shuffle(inputs)
        return inputs

    def _request(self, text: str, fmt: str):
        graph = self.lexext.parse_document(text, fmt).graph
        return graph, self.lexext.independence_profile(graph)

    def round(self, i: int) -> list[Op]:
        inputs = self.inputs(i)
        if i == 0:
            for x, profile in zip(inputs, self.references):
                x.full_profile = profile
        return [self._op(x) for x in inputs]

    def _op(self, x: CountInput) -> Op:
        def check(result) -> list[str]:
            graph, profile = result
            return reference.check_count(x.n, x.edges, graph.n, graph.adj, profile.counts, x.full_profile)

        return Op(call=lambda: self._request(x.text, x.fmt), items=1, check=check)

    def agreement_inputs(self):
        out = []
        for x in self.inputs(0):
            adj = [0] * x.n
            for u, v in x.edges:
                adj[u - 1] |= 1 << (v - 1)
                adj[v - 1] |= 1 << (u - 1)
            out.append(("profile_counts", (adj, x.n)))
        return out


WORKLOADS = {
    "bounds-all-r": BoundsAllR,
    "certify-seq": lambda seed, lexext, references=None: Certify(seed, lexext, 1, references),
    "certify-pool": lambda seed, lexext, references=None: Certify(seed, lexext, 2, references),
    "count-profile": CountProfile,
}
