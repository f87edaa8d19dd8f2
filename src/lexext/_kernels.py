"""Kernel selection: the C extension lexext._core_c when it imports, the
pure Python _core_py otherwise; BACKEND names the one in use.  The C
kernel handles orders up to MAX_ORDER; larger graphs are routed to the
pure implementation call by call.
"""

from __future__ import annotations

from . import _core_py

# the largest order the C kernel accepts: one adjacency bitmask per 64-bit
# word, every count in a signed 64-bit integer; _core_c.MAX_ORDER agrees
MAX_ORDER = 62

try:
    from . import _core_c as _compiled
except ImportError:
    _compiled = None

BACKEND = "c" if _compiled is not None else "python"


def profile_counts(adj, n: int) -> list[int]:
    if _compiled is not None and n <= MAX_ORDER:
        return _compiled.profile_counts(adj, n)
    return _core_py.profile_counts(adj, n)


def scan_sorted(n: int, m: int):
    if _compiled is not None and n <= MAX_ORDER:
        return _compiled.scan_sorted(n, m)
    return _core_py.scan_sorted(n, m)
