"""The compiled and pure counting kernels must be interchangeable."""

import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from itertools import combinations
from pathlib import Path

import pytest

import lexext
from lexext import _core_py, _kernels, binom
from lexext.cli import main
from lexext.verify import graph_count


def random_adj(n: int, rng) -> list[int]:
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


C_SOURCE = Path(lexext.__file__).with_name("_core_c.c")


def build_core_c(out_dir: Path):
    """Compile the C kernel source into out_dir with setuptools' build_ext
    and load it from there, leaving the source tree untouched."""
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    ext = Extension("_core_c", [str(C_SOURCE)], extra_compile_args=["-O3"])
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib = str(out_dir)
    cmd.build_temp = str(out_dir / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location("_core_c", cmd.get_ext_fullpath("_core_c"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def core_c(tmp_path_factory):
    """The C kernel: the built extension when it imports, else compiled from
    its source for this test run.  Skips only when no C compiler is found;
    a compile error fails the tests."""
    try:
        from lexext import _core_c
    except ImportError:
        cc = os.environ.get("CC") or sysconfig.get_config_var("CC")
        if not cc or shutil.which(shlex.split(cc)[0]) is None:
            pytest.skip("no C compiler found to build the C kernel")
        _core_c = build_core_c(tmp_path_factory.mktemp("core_c"))
    return _core_c


class TestBackendSelection:
    def test_backend_reported(self):
        assert _kernels.BACKEND in ("c", "python")

    def test_without_extension_pure_kernel_prints_same_stream(self, capsys, tmp_path):
        # a copy of the package's Python files only, so the C kernel is
        # missing whether or not the extension is built in the source tree
        package = tmp_path / "lexext"
        package.mkdir()
        for source in Path(lexext.__file__).parent.glob("*.py"):
            shutil.copy(source, package)
        code = (
            "import sys, lexext, lexext.cli\n"
            "print(lexext.KERNEL_BACKEND, lexext.__file__)\n"
            "sys.exit(lexext.cli.main(['verify', '--n-max', '6']))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        header, stream = child.stdout.split("\n", 1)
        backend, path = header.split(" ", 1)
        assert backend == "python"
        assert Path(path).parent == package
        assert main(["verify", "--n-max", "6"]) == 0
        assert stream == capsys.readouterr().out


class TestKernelAgreement:
    def test_order_cap_matches(self, core_c):
        assert core_c.MAX_ORDER == _kernels.MAX_ORDER

    def test_profile_counts(self, core_c):
        rng = random.Random(101)
        for _ in range(300):
            n = rng.randint(1, 16)
            adj = random_adj(n, rng)
            assert core_c.profile_counts(adj, n) == _core_py.profile_counts(adj, n)
        # the empty graph, and the edgeless graph at the cap, whose total
        # 2**62 is the largest the int64 counts must hold
        for adj, n in [([], 0), ([0] * 62, 62)]:
            assert core_c.profile_counts(adj, n) == _core_py.profile_counts(adj, n)
        assert sum(core_c.profile_counts([0] * 62, 62)) == 2**62

    def test_scan_full_cells(self, core_c):
        for n, m in [(4, 3), (5, 6), (5, 0), (5, 10), (6, 9)]:
            total = graph_count(n, m)
            first = tuple(range(m))
            assert core_c.scan_graph_range(n, m, first, total) == tuple(
                _core_py.scan_graph_range(n, m, first, total)
            )

    def test_scan_partial_ranges(self, core_c):
        combos = list(combinations(range(binom(5, 2)), 6))
        # (9, 9) takes no steps; (205, 300) runs past the last of the 210
        for lo, hi in [(0, 1), (7, 40), (100, 210), (205, 210), (9, 9), (205, 300)]:
            first = combos[lo]
            assert core_c.scan_graph_range(5, 6, first, hi - lo) == tuple(
                _core_py.scan_graph_range(5, 6, first, hi - lo)
            )

    def test_rejects_what_its_arrays_cannot_hold(self, core_c):
        adj = [0] * 63
        with pytest.raises(ValueError):
            core_c.profile_counts(adj, 63)
        with pytest.raises(ValueError):
            core_c.scan_graph_range(63, 0, (), 1)
        with pytest.raises(ValueError):
            core_c.scan_graph_range(5, 11, (0,) * 11, 1)
        with pytest.raises(ValueError):
            core_c.scan_graph_range(5, 3, (0, 1), 1)
        for slot in (-1, 10):
            with pytest.raises(ValueError):
                core_c.scan_graph_range(5, 3, (0, 1, slot), 1)


def labeled_scan(scan_graph_range, n, m):
    """The whole cell (n, m) through a labeled rank-range scan."""
    return tuple(scan_graph_range(n, m, tuple(range(m)), graph_count(n, m)))


class TestSortedScan:
    """scan_sorted must fold to exactly what a scan of every labeled graph
    of the cell folds to: maxima, weighted tie counts and graphs checked.
    Those are its first seven fields; the witnesses that follow are
    checked against naive profiles in test_verify."""

    def test_kernels_agree_with_labeled_scan_to_order_six(self, core_c):
        for n in range(1, 7):
            for m in range(binom(n, 2) + 1):
                labeled = labeled_scan(_core_py.scan_graph_range, n, m)
                pure = _core_py.scan_sorted(n, m)
                assert pure[:7] == labeled, (n, m)
                # the witnesses too: both kernels search in the same order
                assert core_c.scan_sorted(n, m) == pure, (n, m)

    def test_compiled_agrees_with_labeled_scan_at_order_seven(self):
        try:
            from lexext import _core_c
        except ImportError:
            pytest.skip("C kernel not built: the labeled scan of all 2**21 order-7 graphs is left to it")
        for m in range(binom(7, 2) + 1):
            assert _core_c.scan_sorted(7, m)[:7] == labeled_scan(_core_c.scan_graph_range, 7, m)

    @pytest.mark.parametrize("n, m", [(30, 2), (30, 433), (62, 1), (62, 1890)])
    def test_sparse_and_dense_cells_of_large_orders(self, core_c, n, m):
        # the search must prune on edge count and degree caps: row 0 of
        # (30, 2) alone has 2**29 neighbour sets
        reduction = _kernels.scan_sorted(n, m)[:7]
        assert reduction == labeled_scan(core_c.scan_graph_range, n, m)

    @pytest.mark.parametrize("m", [10, 945, 1881])
    def test_refuses_counts_past_int64_up_front(self, core_c, m):
        # C(1891, m) > 2**63 - 1: no weight or sum of these cells fits
        for kernel in (core_c, _core_py):
            start = time.perf_counter()
            with pytest.raises(OverflowError):
                kernel.scan_sorted(62, m)
            assert time.perf_counter() - start < 1.0

    def test_rejects_cells_outside_its_range(self, core_c):
        for n, m in [(0, 0), (5, -1), (5, 11)]:
            with pytest.raises(ValueError):
                core_c.scan_sorted(n, m)
            with pytest.raises(ValueError):
                _core_py.scan_sorted(n, m)
        # only the compiled kernel has an order cap
        with pytest.raises(ValueError):
            core_c.scan_sorted(63, 0)


class TestPureKernelShapes:
    def test_profile_of_triangle(self):
        adj = [0b110, 0b101, 0b011]
        assert _core_py.profile_counts(adj, 3) == [1, 3, 0, 0]

    def test_profile_of_edgeless(self):
        assert _core_py.profile_counts([0, 0, 0, 0], 4) == [1, 4, 6, 4, 1]

    def test_scan_counts_every_graph(self):
        raw = _core_py.scan_graph_range(4, 3, (0, 1, 2), graph_count(4, 3))
        assert raw[0] == 20

    def test_scan_empty_cell(self):
        raw = _core_py.scan_graph_range(3, 0, (), 1)
        checked, max_alpha, alpha_count, max_ir, ir_count, max_total, total_count = raw
        assert checked == 1
        assert max_alpha == 3
        assert tuple(max_ir) == (1, 3, 3, 1)
        assert max_total == 8

    def test_dispatcher_routes_large_orders_to_pure(self):
        # beyond the compiled word width the pure path must take over
        n = 70
        adj = [0] * n
        counts = _kernels.profile_counts(adj, n)
        assert counts[0] == 1 and counts[1] == n
        assert counts[n] == 1
