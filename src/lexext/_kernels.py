"""Kernel selection: the C extension when importable, pure Python otherwise.

Set LEXEXT_BACKEND=python or LEXEXT_BACKEND=c to pin the choice at import
time (the default, auto, prefers the extension; pinning c when
lexext._core_c does not import raises ImportError).  The C kernel handles
orders up to MAX_ORDER; larger graphs are routed to the pure
implementation call by call.
"""

from __future__ import annotations

import os

from . import _core_py

# the largest order the C kernel accepts: one adjacency bitmask per 64-bit
# word, every count in a signed 64-bit integer; _core_c.MAX_ORDER agrees
MAX_ORDER = 62

_requested = os.environ.get("LEXEXT_BACKEND", "auto").strip().lower()
if _requested not in ("auto", "c", "python"):
    raise ImportError(f"LEXEXT_BACKEND must be auto, c, or python, got {_requested!r}")

_compiled = None
if _requested in ("auto", "c"):
    try:
        from . import _core_c as _compiled  # type: ignore[no-redef]
    except ImportError as exc:
        if _requested == "c":
            # the cause, chained below, may read as a circular import: that is
            # how Python reports a missing submodule of a package mid-import
            raise ImportError(
                "LEXEXT_BACKEND=c, but the C kernel lexext._core_c is not built "
                "or does not import"
            ) from exc

BACKEND = "c" if _compiled is not None else "python"


def profile_counts(adj, n: int) -> list[int]:
    if _compiled is not None and n <= MAX_ORDER:
        return _compiled.profile_counts(adj, n)
    return _core_py.profile_counts(adj, n)


def max_independent_size(adj, n: int) -> int:
    if _compiled is not None and n <= MAX_ORDER:
        return _compiled.max_independent_size(adj, n)
    return _core_py.max_independent_size(adj, n)


def scan_graph_range(n: int, m: int, first_combo, steps: int):
    if _compiled is not None and n <= MAX_ORDER:
        return _compiled.scan_graph_range(n, m, first_combo, steps)
    return _core_py.scan_graph_range(n, m, first_combo, steps)
