"""Per-layer tracing from outside the package.

The tracer replaces each traced public function of lexext with a wrapper,
wherever a module of the package binds it, and restores the originals on
uninstall.  Spans are aggregated in memory per name: calls, calls that
raised, total and self time (self time excludes the traced calls made
inside the span), items reported by the result, and the names of the
enclosing spans.  Pool creation, teardown and map calls are timed through
a proxy for multiprocessing.Pool; work done inside pool workers is not
seen.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    errors: int = 0
    total_ns: int = 0
    self_ns: int = 0
    items: int = 0
    parents: Counter = field(default_factory=Counter)


# span name -> (module, attribute) of every function recorded under it
TARGETS = {
    "cli.main": [("lexext.cli", "main")],
    "verify.verify_range": [("lexext.verify", "verify_range")],
    "verify.scan_cell": [("lexext.verify", "scan_cell")],
    "verify.certificate": [
        ("lexext.verify", "verify_alpha_sharp"),
        ("lexext.verify", "verify_ir_sharp"),
        ("lexext.verify", "verify_total_count_extremality"),
    ],
    "kernels.scan_graph_range": [("lexext._kernels", "scan_graph_range")],
    "kernels.profile_counts": [("lexext._kernels", "profile_counts")],
    "counting.independence_profile": [("lexext.counting", "independence_profile")],
    "lexgraph.build_lex_graph": [("lexext.lexgraph", "build_lex_graph")],
    "formats.parse_graph6": [("lexext.formats", "parse_graph6")],
    "formats.parse_edgelist": [("lexext.formats", "parse_edgelist")],
    "bounds.bound_report": [("lexext.bounds", "bound_report")],
    "bounds.ir_form": [("lexext.bounds", "ir_upper_lex"), ("lexext.bounds", "ir_upper_erdos")],
    "bounds.alpha_upper": [("lexext.bounds", "alpha_upper")],
    "bounds.s_alpha_relation": [("lexext.bounds", "s_alpha_relation")],
    "sds.sds_decompose": [("lexext.sds", "sds_decompose")],
    "sds.erdos_decompose": [("lexext.sds", "erdos_decompose_for_independent_sets")],
    "arith.binom": [("lexext.arith", "binom")],
    "arith.triangular_decompose": [("lexext.arith", "triangular_decompose")],
}


def _graphs_in_scan(stats: SpanStats, result) -> None:
    stats.items += int(result[0])


def _graphs_in_cell(stats: SpanStats, result) -> None:
    stats.items += result.graphs_checked


ON_RESULT = {
    "kernels.scan_graph_range": _graphs_in_scan,
    "verify.scan_cell": _graphs_in_cell,
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []  # [span name, child time in ns]
        self._undo: list = []

    def _stats(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def _open(self, name: str):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0]
        stack.append(frame)
        return frame, parent, time.perf_counter_ns()

    def _close(self, stats: SpanStats, frame, parent, start: int) -> None:
        elapsed = time.perf_counter_ns() - start
        stack = self._stack
        stack.pop()
        stats.calls += 1
        stats.total_ns += elapsed
        stats.self_ns += elapsed - frame[1]
        stats.parents[parent] += 1
        if stack:
            stack[-1][1] += elapsed

    @contextmanager
    def span(self, name: str):
        stats = self._stats(name)
        opened = self._open(name)
        try:
            yield stats
        except BaseException:
            stats.errors += 1
            raise
        finally:
            self._close(stats, *opened)

    def _wrap(self, name: str, fn):
        stats = self._stats(name)
        on_result = ON_RESULT.get(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            opened = open_(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                close(stats, *opened)
            if on_result is not None:
                on_result(stats, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded lexext module that binds it,
        including the PARSERS/EMITTERS tables, plus Graph validation and
        multiprocessing.Pool."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "lexext"]
        for name, targets in TARGETS.items():
            for module_name, attr in targets:
                module = sys.modules.get(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                traced = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, traced, original)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    value[k] = traced
                                    self._undo.append(lambda d=value, k=k, v=v: d.__setitem__(k, v))
        graph = getattr(sys.modules.get("lexext.lexgraph"), "Graph", None)
        if graph is not None and "__post_init__" in vars(graph):
            original = vars(graph)["__post_init__"]
            self._patch(graph, "__post_init__", self._wrap("lexgraph.graph_validate", original), original)
        self._patch(multiprocessing, "Pool", self._pool_factory(multiprocessing.Pool), multiprocessing.Pool)

    def _patch(self, owner, key, new, old) -> None:
        setattr(owner, key, new)
        self._undo.append(lambda: setattr(owner, key, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _pool_factory(self, make_pool):
        tracer = self

        def pool(*args, **kwargs):
            with tracer.span("cli.pool_start"):
                return _PoolProxy(tracer, make_pool(*args, **kwargs))

        return pool


class _PoolProxy:
    """Times teardown and map waits of a real pool; everything else passes through."""

    def __init__(self, tracer: Tracer, pool) -> None:
        self._tracer = tracer
        self._pool = pool

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        with self._tracer.span("cli.pool_start"):
            return self._pool.__exit__(*exc)

    def map(self, fn, iterable, *args, **kwargs):
        tasks = list(iterable)
        with self._tracer.span("verify.pool_wait") as stats:
            stats.items += len(tasks)
            return self._pool.map(fn, tasks, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._pool, name)


def per_layer_metrics(stats: dict[str, SpanStats], ops: int, busy_ns: int) -> dict[str, float]:
    """Per-layer metrics of a traced run of ``ops`` operations that kept
    the program busy for ``busy_ns``.

    ``*.calls``, ``*_ms`` totals and ``verify.*`` counts are per operation;
    ``*_per_report`` per bound_report call; ``*_us``/``*_ns`` per call.
    A layer the workload never calls reads 0.
    """

    def s(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_op(x: float) -> float:
        return ratio(x, ops)

    def us_per_call(name: str, field: str = "total_ns") -> float:
        return ratio(getattr(s(name), field) * 1e-3, s(name).calls)

    def combined(*names: str) -> SpanStats:
        out = SpanStats()
        for name in names:
            part = s(name)
            out.calls += part.calls
            out.total_ns += part.total_ns
            out.self_ns += part.self_ns
        return out

    reports = s("bounds.bound_report").calls
    scan = s("verify.scan_cell")
    cells_scanned = scan.calls - scan.errors
    kernel_scan = s("kernels.scan_graph_range")
    pool_wait = s("verify.pool_wait")
    parse = combined("formats.parse_graph6", "formats.parse_edgelist")
    decompose = combined("sds.sds_decompose", "sds.erdos_decompose")
    ms = 1e-6

    return {
        "cli.verify.self_ms": per_op(s("cli.main").self_ns * ms),
        "cli.pool_start_ms": per_op(s("cli.pool_start").total_ns * ms),
        "verify.scan_cell.calls": per_op(scan.calls),
        "verify.graphs_checked": per_op(scan.items),
        "verify.scan_cell.self_ms": per_op(scan.self_ns * ms),
        "verify.pool_wait_ms": per_op(pool_wait.total_ns * ms),
        "verify.chunks_per_cell": ratio(pool_wait.items + kernel_scan.calls, cells_scanned),
        "verify.certificate.calls": per_op(s("verify.certificate").calls),
        "verify.certificate.self_us": us_per_call("verify.certificate", "self_ns"),
        "verify.lex_profiles_per_cell": ratio(
            s("counting.independence_profile").parents["verify.certificate"], cells_scanned
        ),
        "verify.cells_skipped": per_op(scan.errors),
        "kernels.scan_graph_range.calls": per_op(kernel_scan.calls),
        "kernels.scan_graph_range.ns_per_graph": ratio(kernel_scan.total_ns, kernel_scan.items),
        "kernels.scan_graph_range.share_of_run": ratio(kernel_scan.total_ns, busy_ns),
        "kernels.profile_counts.calls": per_op(s("kernels.profile_counts").calls),
        "kernels.profile_counts.us_per_call": us_per_call("kernels.profile_counts"),
        "counting.independence_profile.calls": per_op(s("counting.independence_profile").calls),
        "counting.independence_profile.self_us": us_per_call("counting.independence_profile", "self_ns"),
        "lexgraph.build_lex_graph.calls": per_op(s("lexgraph.build_lex_graph").calls),
        "lexgraph.build_lex_graph.us_per_call": us_per_call("lexgraph.build_lex_graph"),
        "lexgraph.graph_validate.us_per_call": us_per_call("lexgraph.graph_validate"),
        "formats.parse_graph6.us_per_call": us_per_call("formats.parse_graph6"),
        "formats.parse_edgelist.us_per_call": us_per_call("formats.parse_edgelist"),
        "formats.parse.share_of_request": ratio(parse.total_ns, busy_ns),
        "bounds.bound_report.calls": per_op(reports),
        "bounds.bound_report.self_us": us_per_call("bounds.bound_report", "self_ns"),
        "bounds.ir_form.calls_per_report": ratio(s("bounds.ir_form").calls, reports),
        "bounds.ir_form.us_per_call": us_per_call("bounds.ir_form"),
        "bounds.alpha_upper.calls_per_report": ratio(s("bounds.alpha_upper").calls, reports),
        "bounds.s_alpha_relation.calls_per_report": ratio(s("bounds.s_alpha_relation").calls, reports),
        "sds.sds_decompose.calls_per_report": ratio(s("sds.sds_decompose").calls, reports),
        "sds.erdos_decompose.calls_per_report": ratio(s("sds.erdos_decompose").calls, reports),
        "sds.decompose.us_per_call": ratio(decompose.total_ns * 1e-3, decompose.calls),
        "arith.binom.calls_per_report": ratio(s("arith.binom").calls, reports),
        "arith.binom.ns_per_call": ratio(s("arith.binom").total_ns, s("arith.binom").calls),
        "arith.triangular_decompose.calls_per_report": ratio(
            s("arith.triangular_decompose").calls, reports
        ),
    }


_UNIT_BY_SUFFIX = (
    (".calls", "calls/op"), ("_per_report", "calls/report"), ("_ms", "ms"), ("_us", "us"),
    ("us_per_call", "us"), ("ns_per_call", "ns"), ("ns_per_graph", "ns"), ("share_of_run", "share"),
    ("share_of_request", "share"), ("graphs_checked", "graphs/op"), ("chunks_per_cell", "chunks/cell"),
    ("lex_profiles_per_cell", "profiles/cell"), ("cells_skipped", "cells/op"),
)
PER_LAYER_UNITS = {
    name: next(unit for suffix, unit in _UNIT_BY_SUFFIX if name.endswith(suffix))
    for name in per_layer_metrics({}, 0, 0)
}
