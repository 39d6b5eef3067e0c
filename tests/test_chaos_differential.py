"""Chaos differential suite: seeded faults must not change results.

Delay jitter and drops-with-retransmit only move virtual arrival times —
the modeled transport is reliable, so under any eventually-delivering
fault plan the compiled applications must produce bit-identical per-rank
arrays and identical message/byte statistics to the fault-free run.
Only virtual clocks may differ.  Crash faults are the opposite contract:
the run must fail promptly with a clean :class:`SimulationError`, never
a hang, and never a leaked node thread.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.apps.adi import adi_source
from repro.apps.cg import cg_source
from repro.apps.dgefa import dgefa_source, make_dgefa_init
from repro.apps.stencil import stencil1d_source, stencil2d_source
from repro.apps.wave import wave_source
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.machine import FaultPlan, SimulationError

#: delivery statistics that must be untouched by eventually-delivering
#: faults (clocks and the fault counters themselves are exempt)
STAT_FIELDS = (
    "messages", "bytes", "collectives", "collective_bytes",
    "remaps", "remap_bytes", "guards",
)

CASES = [
    ("stencil1d", stencil1d_source(128, 4), None),
    ("stencil2d", stencil2d_source(24, 2), None),
    ("adi", adi_source(32, 2), None),
    ("cg", cg_source(32, 4), None),
    ("dgefa", dgefa_source(16), make_dgefa_init(16)),
    ("wave", wave_source(64, 4), None),
]
SEEDS = [1, 2, 3]


def _chaos_plan(seed: int) -> FaultPlan:
    """Aggressive but eventually-delivering: half of all messages
    jittered, a tenth of transmissions dropped and retried."""
    return FaultPlan(seed=seed, delay_prob=0.5, delay_max_us=80.0,
                     drop_prob=0.1, retry_timeout_us=50.0)


def _run(cp, init, **kw):
    extra = {"init_fn": init} if init is not None else {}
    return cp.run(timeout_s=30.0, **extra, **kw)


def node_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("node-")]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "src,init", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_faulted_apps_bit_identical(src, init, seed):
    cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
    clean = _run(cp, init)
    chaos = _run(cp, init, faults=_chaos_plan(seed))
    for f in STAT_FIELDS:
        assert getattr(chaos.stats, f) == getattr(clean.stats, f), f
    for name in clean.frames[0].arrays:
        for rk, (fc, ff) in enumerate(zip(clean.frames, chaos.frames)):
            assert np.array_equal(
                fc.arrays[name].data, ff.arrays[name].data, equal_nan=True
            ), f"array {name} differs on rank {rk} under seed {seed}"


def test_chaos_run_is_reproducible():
    """Same program, same plan: clocks (not just results) identical."""
    cp = compile_program(stencil1d_source(128, 4),
                         Options(nprocs=4, mode=Mode.INTER))
    plan = _chaos_plan(1)
    a = _run(cp, None, faults=plan)
    b = _run(cp, None, faults=plan)
    assert a.stats.proc_times == b.stats.proc_times
    assert a.stats.faulted_messages == b.stats.faulted_messages
    assert a.stats.retransmits == b.stats.retransmits


def test_chaos_actually_perturbs_clocks():
    """The differential test is vacuous if no fault ever fires: under
    the chaos plan messages are faulted and virtual time stretches."""
    cp = compile_program(stencil1d_source(128, 4),
                         Options(nprocs=4, mode=Mode.INTER))
    clean = _run(cp, None)
    chaos = _run(cp, None, faults=_chaos_plan(1))
    assert chaos.stats.faulted_messages > 0
    assert chaos.stats.time_us > clean.stats.time_us
    assert clean.stats.faulted_messages == 0


def test_scalar_path_equally_immune():
    """The fault layer sits below the execution paths: scalar loops
    under chaos must also match their own fault-free run (CI
    additionally runs the whole module under REPRO_VECTORIZE=0/1)."""
    cp = compile_program(stencil2d_source(24, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    clean = _run(cp, None, vectorize=False)
    chaos = _run(cp, None, vectorize=False, faults=_chaos_plan(2))
    for f in STAT_FIELDS:
        assert getattr(chaos.stats, f) == getattr(clean.stats, f), f
    for name in clean.frames[0].arrays:
        for fc, ff in zip(clean.frames, chaos.frames):
            assert np.array_equal(
                fc.arrays[name].data, ff.arrays[name].data, equal_nan=True
            )


@pytest.mark.parametrize("victim", [0, 2])
def test_crash_fault_fails_cleanly(victim):
    """A crash anywhere must surface as one clean SimulationError,
    quickly, with every node thread torn down."""
    cp = compile_program(stencil1d_source(128, 4),
                         Options(nprocs=4, mode=Mode.INTER))
    t0 = time.monotonic()
    with pytest.raises(SimulationError, match="injected crash"):
        _run(cp, None, faults=FaultPlan(crash_at={victim: 100.0}))
    assert time.monotonic() - t0 < 10.0
    assert not node_threads(), "leaked node threads after crash"


def test_crash_mid_computation_names_the_rank():
    cp = compile_program(cg_source(32, 4),
                         Options(nprocs=4, mode=Mode.INTER))
    with pytest.raises(SimulationError, match=r"rank 1"):
        _run(cp, None, faults=FaultPlan(crash_at={1: 500.0}))
    assert not node_threads()


def test_crash_beats_concurrent_chaos():
    """Crash + delays + drops together still ends in a clean error."""
    cp = compile_program(adi_source(32, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    plan = FaultPlan(seed=2, delay_prob=0.5, delay_max_us=80.0,
                     drop_prob=0.1, retry_timeout_us=50.0,
                     crash_at={3: 200.0})
    with pytest.raises(SimulationError, match="injected crash"):
        _run(cp, None, faults=plan)
    assert not node_threads()
