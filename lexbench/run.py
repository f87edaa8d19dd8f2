"""Benchmark for lexext: bound reports, exhaustive certification
(sequential and pooled) and graph counting.

    python3 lexbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the checkout in place (see build.py), prints a run record, measures
set-up time and computes the workload's costly reference values, then
starts the measured process (see measure.py), which runs one closed-loop
workload: a single client issues each operation after the previous one
returned, and checks every result against independent reference values.
Operations run in whole rounds until they have kept the program busy for
--seconds.  The last line of output is one JSON object: with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from build import BuildError, build_in_place  # noqa: E402
from calibration import CALIBRATION_NOMINAL_NS, calibration_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SETUP_REPEATS = 31
SETUP_CALIBRATION_PASSES = 6
MEASURE_TIMEOUT_S = 150
SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import lexext, lexext.cli\n"
    "{warmup}\n"
    "sys.stdout.write(repr(time.perf_counter() - start))\n"
)


class AgreementError(RuntimeError):
    pass


def commit_hash(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def kernel_modules(lexext) -> dict:
    """Import every compiled kernel the sources declare (a `_core_*` .pyx or
    .c file); map each module name to the module or to its import error."""
    src = Path(lexext.__file__).parent
    names = sorted({p.stem for p in src.glob("_core_*") if p.suffix in (".pyx", ".c")} - {"_core_py"})
    found = {}
    for name in names:
        try:
            found[name] = importlib.import_module(f"lexext.{name}")
        except ImportError as exc:
            found[name] = f"{type(exc).__name__}: {exc}"
    return found


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return int(value)


def check_agreement(workload, pure, compiled) -> int:
    """Pure and compiled kernels must return identical outputs on the
    workload's kernel inputs; a mismatch stops the run."""
    inputs = workload.agreement_inputs()
    for fname, args in inputs:
        a = _plain(getattr(pure, fname)(*args))
        b = _plain(getattr(compiled, fname)(*args))
        if a != b:
            raise AgreementError(f"{fname}{args[1:]!r}: pure {a} != compiled {b}")
    return len(inputs)


def measure_setup(warmup: str) -> tuple[float, float]:
    """Median over fresh interpreters of: import lexext (which selects the
    kernel) plus one warm-up request.  Interpreter start is excluded.  The
    calibration loop is timed between probes, and each probe is scaled by
    the mean of the samples on either side of it.  Returns the median
    scaled to nominal speed, and the raw median."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = SETUP_PROBE.format(warmup=warmup)
    scaled, raw = [], []
    before = calibration_ns(SETUP_CALIBRATION_PASSES)
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = calibration_ns(SETUP_CALIBRATION_PASSES)
        raw.append(float(proc.stdout))
        scaled.append(raw[-1] * CALIBRATION_NOMINAL_NS * 2 / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        build = build_in_place(ROOT)
    except BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import lexext
    import lexext.cli
    from lexext import _core_py

    kernels = kernel_modules(lexext)
    compiled = next((m for m in kernels.values() if not isinstance(m, str)), None)
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_backend": lexext.KERNEL_BACKEND,
        "extension_errors": {k: v for k, v in kernels.items() if isinstance(v, str)},
        "build": {k: build[k] for k in ("command", "produced", "cached")},
        "commit": commit_hash(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    workload = WORKLOADS[args.workload](args.seed, lexext)
    if compiled is None:
        record["kernel_agreement"] = "skipped: no compiled kernel imports"
    else:
        try:
            agreed = check_agreement(workload, _core_py, compiled)
            record["kernel_agreement"] = f"{agreed} inputs agree" if agreed else "no kernel inputs"
        except AgreementError as exc:
            print(f"error: kernels disagree: {exc}", file=sys.stderr)
            return 3
    print("record " + json.dumps(record), flush=True)

    setup_s, raw_setup_s = measure_setup(workload.warmup) if not args.trace else (None, None)
    config = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "setup_s": setup_s, "raw_setup_s": raw_setup_s, "references": workload.references,
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py")], input=json.dumps(config),
        text=True, timeout=MEASURE_TIMEOUT_S,
    )
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
