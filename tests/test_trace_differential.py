"""Traced-vs-untraced differential suite: tracing must be invisible.

The tracer's design constraint is *bit-identical-off*: attaching a
Tracer only reads simulation state (virtual timestamps at
non-observation points come from ``ProcContext.clock_estimate``, which
previews the batched-charge flush without performing it).  This suite
runs every application with and without tracing — across both
schedulers, both execution paths, and under a chaos fault plan — and
requires identical arrays, per-rank virtual clocks, and delivery
statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.adi import adi_source
from repro.apps.cg import cg_source
from repro.apps.dgefa import dgefa_source, make_dgefa_init
from repro.apps.stencil import stencil1d_source, stencil2d_source
from repro.apps.wave import wave_source
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.machine import FaultPlan

from .conftest import SCHEDULER_SPELLINGS

STAT_FIELDS = (
    "messages", "bytes", "collectives", "collective_bytes",
    "remaps", "remap_bytes", "guards", "flops",
    "comm_cache_hits", "comm_cache_misses",
)

CASES = [
    ("stencil1d", stencil1d_source(128, 4), None),
    ("stencil2d", stencil2d_source(24, 2), None),
    ("adi", adi_source(32, 2), None),
    ("cg", cg_source(32, 4), None),
    ("dgefa", dgefa_source(16), make_dgefa_init(16)),
    ("wave", wave_source(64, 4), None),
]


def _run(cp, init, *, trace, **kw):
    extra = {"init_fn": init} if init is not None else {}
    return cp.run(timeout_s=30.0, trace=trace, **extra, **kw)


def _assert_invisible(off, on, label):
    assert off.trace is None
    assert on.trace is not None and on.trace.event_count() > 0
    assert off.stats.proc_times == on.stats.proc_times, label
    for f in STAT_FIELDS:
        assert getattr(off.stats, f) == getattr(on.stats, f), (label, f)
    for name in off.frames[0].arrays:
        for rk, (fa, fb) in enumerate(zip(off.frames, on.frames)):
            assert np.array_equal(
                fa.arrays[name].data, fb.arrays[name].data,
                equal_nan=True,
            ), f"{label}: array {name} differs on rank {rk}"


@pytest.mark.parametrize("vectorize", [False, True],
                         ids=["scalar", "vectorized"])
@pytest.mark.parametrize("scheduler", SCHEDULER_SPELLINGS)
@pytest.mark.parametrize(
    "src,init", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_tracing_is_invisible(src, init, scheduler, vectorize):
    cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
    off = _run(cp, init, trace=False, scheduler=scheduler,
               vectorize=vectorize)
    on = _run(cp, init, trace=True, scheduler=scheduler,
              vectorize=vectorize)
    _assert_invisible(off, on, f"{scheduler} vec={vectorize}")


@pytest.mark.parametrize("scheduler", SCHEDULER_SPELLINGS)
def test_tracing_is_invisible_under_faults(scheduler):
    """Fault events are recorded from the same deterministic draws the
    untraced run makes — injection must not consume extra randomness."""
    cp = compile_program(stencil1d_source(128, 4),
                         Options(nprocs=4, mode=Mode.INTER))
    plan = FaultPlan(seed=2, delay_prob=0.5, delay_max_us=80.0,
                     drop_prob=0.1, retry_timeout_us=50.0)
    off = _run(cp, None, trace=False, scheduler=scheduler, faults=plan)
    on = _run(cp, None, trace=True, scheduler=scheduler, faults=plan)
    _assert_invisible(off, on, f"faults {scheduler}")
    assert on.trace.events("fault")
    assert on.stats.faulted_messages == off.stats.faulted_messages


@pytest.mark.parametrize("mode", [Mode.INTER, Mode.RTR],
                         ids=["inter", "rtr"])
def test_tracing_is_invisible_across_modes(mode):
    """RTR's element-grain messaging exercises the densest event
    stream (per-element sends with rtr provenance)."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=mode))
    _assert_invisible(
        _run(cp, None, trace=False), _run(cp, None, trace=True),
        mode.value,
    )


def test_traced_compile_output_identical():
    """Compiling with a tracer yields the same node program text and
    report as compiling without (decision hooks only observe)."""
    src = dgefa_source(16)
    opts = Options(nprocs=4, mode=Mode.INTER)
    plain = compile_program(src, opts)
    from repro.obs import Tracer

    traced = compile_program(src, opts, trace=Tracer())
    assert plain.text() == traced.text()
    assert plain.report.distributions == traced.report.distributions
    assert plain.report.comm_placements == traced.report.comm_placements
