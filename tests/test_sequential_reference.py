"""The sequential reference, ``run_sequential``: the uncompiled source
run through the generated engine on one simulated processor.

What every ``--verify`` compares against must not move: the reference
gives the scalar tree-walking interpreter's arrays on every application
builder and paper figure, with vectorization on and off.  A failure of the
generated run is never hidden behind the interpreter's answer, and no
run setting in the environment reaches the reference.  Each test sets
``REPRO_CODEGEN`` itself, so every CI leg checks the generated path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.apps import FIG1, FIG4, FIG15
from repro.apps.adi import adi_source
from repro.apps.cg import cg_source
from repro.apps.dgefa import (
    dgefa_dgesl_source,
    dgefa_pivot_source,
    dgefa_source,
    make_dgefa_init,
)
from repro.apps.paper_figures import fig1_source, fig4_source, fig15_source
from repro.apps.stencil import stencil1d_source, stencil2d_source
from repro.apps.wave import wave_source
import repro.runtime.node as node_mod
from repro.codegen import GeneratedProgram
from repro.interp import InterpError, run_sequential, run_spmd
from repro.interp.interpreter import default_init
from repro.lang import parse
from repro.machine.faults import FaultPlan
from repro.obs import default_registry

#: (name, source, init_fn) -- every ``repro.apps`` builder at a small
#: size, plus the paper's figures as printed
GRID = [
    ("adi", adi_source(12, 2), None),
    ("cg", cg_source(16, 3), None),
    ("dgefa", dgefa_source(10), make_dgefa_init(10)),
    ("dgefa_pivot", dgefa_pivot_source(10), make_dgefa_init(10)),
    ("dgefa_dgesl", dgefa_dgesl_source(10), make_dgefa_init(10)),
    ("fig1_source", fig1_source(24, 3), None),
    ("fig4_source", fig4_source(12, 2), None),
    ("fig15_source", fig15_source(24, 3), None),
    ("FIG1", FIG1, None),
    ("FIG4", FIG4, None),
    ("FIG15", FIG15, None),
    ("stencil1d", stencil1d_source(48, 2), None),
    ("stencil2d", stencil2d_source(16, 2), None),
    ("wave", wave_source(48, 2), None),
]


def interpreted(src: str, init_fn=None):
    """The reference as it was: the scalar interpreter, at P=1."""
    return run_spmd(
        parse(src), 1, init_fn=init_fn or default_init, timeout_s=math.inf,
        faults=FaultPlan(), scheduler="event",
        trace=False, topology="uniform", codegen=False, metrics=False,
    ).frames[0]


def assert_same_arrays(got, want) -> None:
    assert sorted(got.arrays) == sorted(want.arrays)
    for name, arr in want.arrays.items():
        assert np.array_equal(got.arrays[name].data, arr.data,
                              equal_nan=True), f"array {name} differs"


@pytest.mark.parametrize("vectorize", [True, False], ids=["vec", "novec"])
@pytest.mark.parametrize("name,src,init", GRID, ids=[g[0] for g in GRID])
def test_reference_is_the_interpreters(name, src, init, vectorize,
                                       monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN", "1")
    kw = {"init_fn": init} if init is not None else {}
    got = run_sequential(parse(src), vectorize=vectorize, **kw)
    assert_same_arrays(got, interpreted(src, init))


def _fail_generated(self):
    raise RuntimeError("forced generated failure")


#: ``GeneratedProgram.module`` stored as usual but failing to read: a
#: run fails where it takes the generated functions
_failing_module = property(
    _fail_generated, lambda self, mod: vars(self).update(module=mod))


def test_generated_failure_is_never_silent(monkeypatch):
    """The interpreter runs this program fine, so the generated failure
    is raised (chained), not papered over with the interpreter's
    frame."""
    monkeypatch.setenv("REPRO_CODEGEN", "1")
    monkeypatch.setattr(GeneratedProgram, "module", _failing_module,
                        raising=False)
    with pytest.raises(InterpError, match="generated sequential reference"
                       ) as info:
        run_sequential(parse(FIG1))
    causes, exc = [], info.value
    while exc is not None:
        causes.append(exc)
        exc = exc.__cause__
    assert any(isinstance(e, RuntimeError)
               and "forced generated failure" in str(e) for e in causes)


def test_codegen_off_is_the_interpreter(monkeypatch):
    """``REPRO_CODEGEN=0`` keeps the interpreted reference: the
    generated engine is not entered at all."""
    monkeypatch.setattr(GeneratedProgram, "module", _failing_module,
                        raising=False)
    monkeypatch.setenv("REPRO_CODEGEN", "0")
    assert_same_arrays(run_sequential(parse(FIG1)), interpreted(FIG1))


def test_environment_does_not_reach_the_reference(monkeypatch, tmp_path):
    """Each of these would change, break or record the run if it reached
    the reference: a crash of rank 0 at clock 0, a backend that rejects
    link contention, a trace file, the default metrics registry, a
    flight recorder, a wall-clock cut and a postmortem directory.  The
    machine the reference builds shows none of them."""
    src, init = dgefa_source(16), make_dgefa_init(16)
    want = interpreted(src, init)
    machines = []

    class Spy(node_mod.Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(self)

    monkeypatch.setattr(node_mod, "Machine", Spy)
    trace_file = tmp_path / "trace.json"
    postmortems = tmp_path / "postmortem"
    postmortems.mkdir()
    before = default_registry().snapshot()
    for name, value in (
        ("REPRO_CODEGEN", "1"),
        ("REPRO_FAULTS", "crash=0@0"),
        ("REPRO_SCHEDULER", "threads"),
        ("REPRO_TOPOLOGY", "mesh2d:contention"),
        ("REPRO_TRACE", str(trace_file)),
        ("REPRO_METRICS", "1"),
        ("REPRO_FLIGHTREC", "64"),
        ("REPRO_SIM_TIMEOUT", "0.5"),
        ("REPRO_POSTMORTEM_DIR", str(postmortems)),
    ):
        monkeypatch.setenv(name, value)
    assert_same_arrays(run_sequential(parse(src), init_fn=init), want)
    assert not trace_file.exists()
    assert default_registry().snapshot() == before
    assert list(postmortems.iterdir()) == []
    (machine,) = machines
    assert machine.faults == FaultPlan()
    assert machine.scheduler == "event" and machine.topology.is_uniform
    assert machine.tracer is None and machine.metrics is None
    assert machine.network.timeout_s == math.inf
