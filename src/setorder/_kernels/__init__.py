"""Kernel backend selection.

The compiled extension is used when importable, the NumPy reference
otherwise. Both expose the same two functions with identical semantics
(asserted by the backend-equivalence test suite); ``covered`` is NumPy only.
"""

from __future__ import annotations

from .pure import LARGE, LOWER, STRICT, covered

try:
    from . import _fast as _impl  # type: ignore[attr-defined]
    BACKEND = "fast"
except ImportError:
    from . import pure as _impl
    BACKEND = "pure"

rel_corners = _impl.rel_corners
shift_bound = _impl.shift_bound

__all__ = ["BACKEND", "LARGE", "LOWER", "STRICT", "covered", "rel_corners",
           "shift_bound"]
