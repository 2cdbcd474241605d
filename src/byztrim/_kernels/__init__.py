"""Kernel selection: compiled extension when available, pure Python otherwise.

Set BYZTRIM_PURE=1 to force the pure-Python kernels (used by the benchmark
and to exercise the fallback in tests).  The partition search runs the
pruned pure-Python search on every backend: it carries the visit budget,
and its cuts visit a small part of what the compiled exhaustive
enumeration visits.  Only the reduced-graph search uses the extension.
"""

from __future__ import annotations

import os

from byztrim._kernels import pure

PASS = pure.PASS
FAIL = pure.FAIL
BUDGET_EXCEEDED = pure.BUDGET_EXCEEDED

if os.environ.get("BYZTRIM_PURE"):
    _impl = pure
else:
    try:
        from byztrim._kernels import native as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = pure

BACKEND: str = _impl.BACKEND

# The compiled kernels use 64-bit masks; anything larger goes to pure Python
# (condition checks at that size are hopeless anyway, but stay correct).
_NATIVE_MAX_N = 62


violating_partition = pure.violating_partition


def failing_reduction(n, in_masks, f, min_source_size, budget):
    if _impl is not pure and n > _NATIVE_MAX_N:
        return pure.failing_reduction(n, in_masks, f, min_source_size, budget)
    return _impl.failing_reduction(n, in_masks, f, min_source_size, budget)
