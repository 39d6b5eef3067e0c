"""repro — Interprocedural Compilation of Fortran D for MIMD
Distributed-Memory Machines (Hall, Hiranandani, Kennedy, Tseng; SC'92).

A from-scratch reproduction: a Fortran D front end, the interprocedural
compilation pipeline (reaching decompositions, cloning, delayed
instantiation of partition/communication/remapping, overlap estimation,
recompilation analysis), and a simulated MIMD distributed-memory machine
that executes the generated SPMD node programs.

Quickstart::

    from repro import compile_program, Options, Mode

    cp = compile_program(FORTRAN_D_SOURCE, Options(nprocs=4))
    print(cp.text())              # the generated node program
    result = cp.run()             # execute on the simulated machine
    print(result.stats.summary())
    global_x = result.gathered("x")
"""

from .core import (
    CompiledProgram,
    CompileError,
    CompileReport,
    DynOpt,
    Mode,
    Options,
    RecompilationManager,
    compile_program,
)
from .runtime.node import SPMDResult, run_sequential, run_spmd
from .lang import parse, program_str
from .machine import FAST_NETWORK, FREE, IPSC860, CostModel, Machine
from .obs import Tracer, profile_report, write_chrome_trace

__version__ = "0.1.0"

__all__ = [
    "compile_program",
    "CompiledProgram",
    "CompileReport",
    "CompileError",
    "Options",
    "Mode",
    "DynOpt",
    "RecompilationManager",
    "parse",
    "program_str",
    "run_sequential",
    "run_spmd",
    "SPMDResult",
    "Machine",
    "CostModel",
    "IPSC860",
    "FAST_NETWORK",
    "FREE",
    "Tracer",
    "write_chrome_trace",
    "profile_report",
    "__version__",
]
