"""Tests of the benchmark itself.

    python3 -m pytest lexbench

The short-mode tests run every workload for about a second, untraced and
traced, and require every check to pass; the checker tests feed each
checker a corrupted output and require it to be rejected.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import lexext  # noqa: E402
import lexext.cli  # noqa: E402
import measure  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from build import BuildError, build_in_place  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, BoundsAllR, Certify, Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "lexbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_passes_every_check(workload, trace):
    proc = _result(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[0].removeprefix("record "))
    assert record["kernel_backend"] == lexext.KERNEL_BACKEND
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_fails_without_result():
    bare = ROOT / ".bench_build" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "lexbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _result(["--workload", "bounds-all-r", "--seed", "1", "--seconds", "1"], cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_build_refuses_directory_without_sources():
    with pytest.raises(BuildError):
        build_in_place(HERE)


def test_traced_counts_repeat_exactly():
    def traced_counts():
        tracer = Tracer()
        tracer.install()
        try:
            result = measure.run_loop(BoundsAllR(5, lexext), 0.2)
        finally:
            tracer.uninstall()
        metrics = per_layer_metrics(tracer.stats, result["attempted"], result["busy_ns"])
        return {k: v for k, v in metrics.items() if k.endswith((".calls", "_per_report"))}

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["bounds.bound_report.calls"] == 1.0
    assert lexext.bounds.binom is lexext.arith.binom  # uninstall restored the originals


class _OneOp:
    """A workload of a single operation per round."""

    def __init__(self, call, check=lambda result: []) -> None:
        self.op = Op(call=call, items=1, check=check)

    def round(self, i: int) -> list[Op]:
        return [self.op]


def test_an_operation_that_raises_makes_the_run_incorrect():
    def call():
        raise AssertionError("the two bound forms disagree")

    result = measure.run_loop(_OneOp(call), 0.01)
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False


def test_a_wrong_output_makes_the_run_incorrect():
    result = measure.run_loop(_OneOp(lambda: 1, check=lambda result: ["wrong"]), 0.01)
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False
    assert measure.run_loop(_OneOp(lambda: 1), 0.01)["correct"] is True


def test_bound_cells_repeat_only_after_every_cell_of_their_order():
    workload = BoundsAllR(7, lexext)
    assert len(workload.round(0)) == sum(workload.weight.values()) == 319
    rounds = len(workload.cells[40]) // workload.weight[40]  # 779, the first order to wrap
    seen = set()
    for i in range(0, rounds, 97):
        for n in workload.orders:
            w, ms = workload.weight[n], workload.cells[n]
            seen.update((n, ms[i * w + j]) for j in range(w))
    assert len(seen) == 319 * len(range(0, rounds, 97))
    assert all(len(set(ms)) == len(ms) == math.comb(n, 2) - 1 for n, ms in workload.cells.items())


def test_agreement_check_rejects_a_disagreeing_kernel():
    class OffByOne:
        @staticmethod
        def profile_counts(adj, n):
            counts = lexext._core_py.profile_counts(adj, n)
            counts[-1] += 1
            return counts

    class OneInput:
        @staticmethod
        def agreement_inputs():
            return [("profile_counts", ([0b110, 0b001, 0b001], 3))]

    assert run.check_agreement(OneInput, lexext._core_py, lexext._core_py) == 1
    with pytest.raises(run.AgreementError):
        run.check_agreement(OneInput, lexext._core_py, OffByOne)


# --- checkers reject corrupted outputs -----------------------------------------

def test_bound_checker():
    n, m = 40, 333
    report = lexext.bound_report(n, m, r_max=n)
    assert reference.check_bound_report(report, n, m) == []
    entries = list(report.entries)
    entries[3] = dataclasses.replace(entries[3], ir_upper_lex=entries[3].ir_upper_lex + 1)
    assert reference.check_bound_report(dataclasses.replace(report, entries=tuple(entries)), n, m)
    assert reference.check_bound_report(dataclasses.replace(report, alpha_upper=report.alpha_upper - 1), n, m)
    assert reference.check_bound_report(dataclasses.replace(report, t=report.t + 1), n, m)


def _verify_text(n_max, budget):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert lexext.cli.main(["verify", "--n-max", str(n_max), "--budget", str(budget)]) == 0
    return out.getvalue()


def _rewrite(text, index, change):
    lines = text.splitlines(keepends=True)
    record = json.loads(lines[index])
    change(record)
    lines[index] = json.dumps(record) + "\n"
    return "".join(lines)


def test_verify_checker():
    n_max, budget = 5, 200
    expected = reference.expected_verify_records(n_max, n_max, budget)
    text = _verify_text(n_max, budget)
    check = lambda t: reference.check_verify_output(t, expected, n_max, n_max, budget)  # noqa: E731
    assert check(text) == []
    lines = text.splitlines(keepends=True)
    skip = next(i for i, line in enumerate(lines) if '"skipped"' in line)
    cert = next(i for i, line in enumerate(lines) if '"ir"' in line and '"n": 5' in line)
    assert check("".join(lines[:skip] + lines[skip + 1:]))  # a dropped skip record
    assert check(_rewrite(text, cert, lambda r: r.update(bound=r["bound"] + 1)))
    assert check(_rewrite(text, cert, lambda r: r.update(extremal_graph_count=r["extremal_graph_count"] + 1)))
    assert check(_rewrite(text, cert, lambda r: r.update(graphs_checked=r["graphs_checked"] - 1)))
    assert check(_rewrite(text, cert, lambda r: r.update(ok=False)))
    assert check(_rewrite(text, len(lines) - 1, lambda r: r.update(cells_skipped=r["cells_skipped"] - 1)))


def test_pooled_output_must_match_sequential():
    workload = Certify(1, lexext, jobs=1)
    workload.sequential = _verify_text(workload.n_max, workload.budget)
    assert workload._check((0, workload.sequential)) == []
    reordered = "".join(sorted(workload.sequential.splitlines(keepends=True)))
    assert any("sequential" in p for p in workload._check((0, reordered)))


def test_count_checker():
    n, edges = 9, [(1, 2), (1, 5), (2, 3), (3, 4), (4, 9), (5, 6), (6, 7), (7, 8), (8, 9), (2, 8)]
    graph = lexext.parse_document(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges), "edgelist").graph
    counts = list(lexext.independence_profile(graph).counts)
    full = reference.networkx_profile(n, edges)
    assert reference.check_count(n, edges, graph.n, graph.adj, counts, full) == []
    for r in (2, 3, 5):
        wrong = counts.copy()
        wrong[r] += 1
        assert reference.check_count(n, edges, graph.n, graph.adj, wrong, full)
    assert reference.check_count(n, edges, graph.n, graph.adj, counts[:-1], full)
    assert reference.check_count(n, edges[:-1], graph.n, graph.adj, counts)  # parsed edges differ


def test_graph6_encoder_matches_networkx():
    import random

    import networkx as nx

    rng = random.Random(0)
    for n in (1, 2, 5, 16, 33, 62):
        for p in (0.1, 0.5, 0.9):
            g = nx.gnp_random_graph(n, p, seed=rng.randrange(1000))
            edges = sorted((min(u, v) + 1, max(u, v) + 1) for u, v in g.edges())
            assert reference.graph6(n, edges) == nx.to_graph6_bytes(g, header=False).decode().strip()
