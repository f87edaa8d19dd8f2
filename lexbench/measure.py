"""The measured process: one workload's closed loop and its result.

run.py starts this module as a fresh interpreter once the build, the
set-up probes and the costly reference values are done, and writes one
JSON object to its stdin: the workload, seed, seconds and trace flag, the
set-up times it measured, and the workload's references.  This process
then imports only lexext and the benchmark's own modules, so the peak
resident memory it reports is that of the package, its pool workers and
the loop's inputs, not that of setuptools or networkx.  It prints the
readable lines and, last, the result JSON.
"""

from __future__ import annotations

import array
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibration import Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "items/s", "op_p50_ms": "ms"}


def run_loop(workload, seconds: float, calibrate: bool = True) -> dict:
    """Closed loop over whole rounds until the program was busy ``seconds``.

    Each operation's time is scaled by the mean speed of the calibration
    samples on either side of each stretch of it (see Speedometer); a
    traced run passes ``calibrate=False`` so that no sample lands inside a
    traced span, and samples only at its start and end.  An operation
    that raises or returns a wrong output counts as failed, and any
    failure makes the run incorrect.  The per-operation record is kept in
    flat arrays, 17 bytes an operation, and peak RSS is read before the
    record is processed, so the benchmark's own bookkeeping barely grows
    with the number of operations."""
    speedometer = Speedometer()
    if calibrate:
        workload.checkpoint = speedometer.checkpoint
    starts, ends, completed = array.array("q"), array.array("q"), bytearray()
    attempted = failed = items = busy_ns = 0
    notes = []
    i = 0
    while busy_ns < seconds * 1e9:
        ops = workload.round(i)
        i += 1
        for op in ops:
            attempted += 1
            start = time.perf_counter_ns()
            try:
                result = op.call()
                ok = True
            except Exception:
                ok = False
                failed += 1
                if len(notes) < 5:
                    notes.append(traceback.format_exc(limit=3))
            end = time.perf_counter_ns()
            busy_ns += end - start
            starts.append(start)
            ends.append(end)
            completed.append(ok)
            if ok:
                items += op.items
                problems = op.check(result)
                if problems:
                    failed += 1
                    if len(notes) < 5:
                        notes.append("; ".join(problems))
            if calibrate:
                speedometer.checkpoint()
    speedometer.sample(1)
    peak_rss = peak_rss_mb()
    raw, scaled = array.array("d"), array.array("d")
    raw_busy = scaled_busy = 0.0
    for start, end, ok in zip(starts, ends, completed):
        r, s = speedometer.scale(start, end)
        raw_busy += r
        scaled_busy += s
        if ok:
            raw.append(r)
            scaled.append(s)
    return {
        "rounds": i, "attempted": attempted, "failed": failed, "correct": failed == 0, "items": items,
        "busy_ns": raw_busy, "scaled_busy_ns": scaled_busy,
        "latencies": raw, "scaled_latencies": scaled,
        "speed": scaled_busy / raw_busy, "peak_rss_mb": peak_rss, "notes": notes,
    }


def peak_rss_mb() -> float:
    """Peak resident set of the largest of this process and its finished
    children (pool workers).  Not their sum: a forked child starts out
    counting its parent's pages.

    This process's own peak is read as VmHWM from /proc where there is
    one: getrusage would also count the peak of run.py, which started
    this process, because the kernel carries a process's peak across
    exec."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def main() -> int:
    config = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    import lexext
    import lexext.cli  # noqa: F401

    workload = WORKLOADS[config["workload"]](config["seed"], lexext, config["references"])
    exec(workload.warmup, {"lexext": lexext})
    baseline_rss = peak_rss_mb()
    if config["trace"]:
        from tracing import PER_LAYER_UNITS, Tracer, per_layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            run = run_loop(workload, config["seconds"], calibrate=False)
        finally:
            tracer.uninstall()
        values = per_layer_metrics(tracer.stats, run["attempted"], run["busy_ns"])
        units = PER_LAYER_UNITS
    else:
        run = run_loop(workload, config["seconds"])
        values = {
            "setup_s": config["setup_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "items_per_s": run["items"] / (run["scaled_busy_ns"] / 1e9),
            # no latency when every operation raised; the run is incorrect then
            "op_p50_ms": statistics.median(run["scaled_latencies"] or [0]) / 1e6,
        }
        units = END_TO_END_UNITS

    for note in run["notes"]:
        print("note " + note.strip().replace("\n", " | "))
    raw = sorted(run["latencies"])
    summary = (
        f"ops {run['attempted']} failed {run['failed']} rounds {run['rounds']} "
        f"busy {run['busy_ns'] / 1e9:.3f} s; peak RSS before the loop {baseline_rss:.1f} MB"
    )
    if raw:
        summary += (
            f"; unscaled: items/s {run['items'] / (run['busy_ns'] / 1e9):.6g}"
            f" op_p50_ms {statistics.median(raw) / 1e6:.6g}"
        )
    if len(raw) >= 40:
        # a percentile needs ten samples beyond it
        summary += f" op_p90_ms {statistics.quantiles(raw, n=10)[-1] / 1e6:.6g}"
    if config["raw_setup_s"] is not None:
        summary += f" setup_s {config['raw_setup_s']:.6g}"
    print(summary + f"; machine ran at {run['speed']:.4g} of nominal speed")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
