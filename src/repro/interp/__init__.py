"""The closure-compiling interpreter, the generated engine's oracle.
The runtime names re-exported here live in :mod:`repro.runtime.node`."""

from ..runtime.node import (
    FArray,
    Frame,
    InterpError,
    SPMDResult,
    default_init,
    run_sequential,
    run_spmd,
)
from .interpreter import Interpreter

__all__ = [
    "FArray",
    "Frame",
    "Interpreter",
    "InterpError",
    "SPMDResult",
    "run_sequential",
    "run_spmd",
    "default_init",
]
