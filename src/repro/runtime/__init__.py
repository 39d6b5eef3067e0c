"""Fortran D run-time library: intrinsics and remapping."""

from .intrinsics import CONTEXT_INTRINSICS, PURE_INTRINSICS, f_func, g_func
from .remap import mark_array, remap_array_y, transfer_sections

__all__ = [
    "PURE_INTRINSICS",
    "CONTEXT_INTRINSICS",
    "f_func",
    "g_func",
    "remap_array_y",
    "mark_array",
    "transfer_sections",
]
