"""Experiment [observability]: metrics overhead and postmortem at scale.

Two production-observability gates, neither a paper figure:

* **metrics overhead** — attaching a :class:`MetricsRegistry` to a run
  records blocked-time histograms per receive/collective plus one bulk
  fold at end of run.  The design target is ≤ 5 % over a metrics-off
  run on a paper app; measured best-of-N against a metrics-off twin
  series that bounds the timer noise floor, with the same asymmetric
  gating as ``BENCH_obs_overhead``: the 1.05 target is recorded in the
  payload, the hard assert absorbs shared-CI jitter.  Results land in
  ``BENCH_obs_metrics.json``.

* **postmortem at scale** — a forced deadlock at P = 1024 on the event
  backend must still produce a *complete* postmortem bundle: structured
  deadlock report, flight-recorder tails, run stats, and the metrics
  snapshot, in one JSON file.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.apps.stencil import stencil1d_source
from repro.core import Mode, Options, compile_program
from repro.machine import FREE, IPSC860, Machine
from repro.machine.network import SimulationError
from repro.obs.metrics import MetricsRegistry

from _harness import emit_bench

N, STEPS, P = 256, 50, 16
REPS = 5

#: metrics-on design target (recorded in the payload) and the hard CI
#: gate; the gate scales with the measured off/off twin ratio so a
#: noisy shared host (single-CPU CI runners show twin ratios up to
#: ~1.6x) cannot flake a run whose *relative* overhead is fine
ON_TARGET = 1.05
ON_LIMIT = 1.5
OFF_TOLERANCE = 2.0


def _best_wall(run, reps: int = REPS) -> tuple[float, object]:
    best, res = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        res = run()
        best = min(best, time.perf_counter() - t0)
    return best, res


def test_bench_metrics_overhead(benchmark, paper_table):
    src = stencil1d_source(N, STEPS)
    cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER))

    def run(metrics):
        return cp.run(cost=IPSC860, scheduler="event", timeout_s=300.0,
                      metrics=metrics)

    off_a, res_off = _best_wall(lambda: run(False))
    off_b, _ = _best_wall(lambda: run(False))
    reg = MetricsRegistry()
    on_w, res_on = _best_wall(lambda: run(reg))
    benchmark.pedantic(lambda: run(False), rounds=2, iterations=1)

    # metrics must be *invisible*: same arrays, same virtual clocks
    assert np.array_equal(res_off.gathered("x"), res_on.gathered("x"))
    assert res_off.stats.proc_times == res_on.stats.proc_times
    assert res_off.stats.messages == res_on.stats.messages

    snap = reg.snapshot()
    blocks = sum(v["value"]
                 for v in snap["repro_sim_blocks_total"]["values"])
    twin_ratio = max(off_a, off_b) / min(off_a, off_b)
    on_ratio = on_w / min(off_a, off_b)
    payload = {
        "workload": {"app": "stencil1d", "n": N, "steps": STEPS, "P": P},
        "reps": REPS,
        "wall_off_s": min(off_a, off_b),
        "wall_off_twin_s": max(off_a, off_b),
        "wall_on_s": on_w,
        "off_twin_ratio": twin_ratio,
        "on_over_off": on_ratio,
        "on_target_ratio": ON_TARGET,
        "block_events_recorded": blocks,
    }
    emit_bench("obs_metrics", payload)
    paper_table(
        f"Metrics overhead (stencil n={N} x {STEPS} steps, P={P}, "
        f"best of {REPS})",
        "config                 wall(ms)    ratio",
        [
            f"{'metrics off':<22} {min(off_a, off_b) * 1e3:>8.1f}"
            f"    1.00x",
            f"{'metrics off (twin)':<22} {max(off_a, off_b) * 1e3:>8.1f}"
            f"    {twin_ratio:.3f}x",
            f"{'metrics on':<22} {on_w * 1e3:>8.1f}"
            f"    {on_ratio:.3f}x  ({blocks:.0f} block events)",
        ],
    )
    benchmark.extra_info.update(
        off_twin_ratio=round(twin_ratio, 4),
        on_over_off=round(on_ratio, 4),
    )

    assert twin_ratio <= OFF_TOLERANCE, \
        f"metrics-off runs diverged {twin_ratio:.3f}x (noise or guards)"
    limit = ON_LIMIT * max(1.0, twin_ratio)
    assert on_ratio <= limit, \
        f"metrics-on overhead {on_ratio:.2f}x exceeds {limit:.2f}x " \
        f"(noise floor {twin_ratio:.2f}x)"
    assert blocks > 0


def test_bench_postmortem_at_scale(tmp_path, monkeypatch, paper_table):
    """Forced deadlock at P=1024 on the event backend: detection stays
    instant and the postmortem bundle is complete."""
    P_BIG = 1024
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.setenv("REPRO_FLIGHTREC", "32")
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
    reg = MetricsRegistry()

    def prog(ctx):
        if ctx.rank != 0:
            # rank 0 finishes without sending: every peer blocks
            yield from ctx.recv_y(0, 1)

    t0 = time.perf_counter()
    with pytest.raises(SimulationError, match="deadlock|aborted"):
        Machine(P_BIG, FREE, timeout_s=120.0, scheduler="event",
                metrics=reg).run(prog)
    detect_s = time.perf_counter() - t0

    files = sorted(tmp_path.glob("postmortem-simulation-error-*.json"))
    assert files, "deadlock produced no postmortem bundle"
    bundle = json.loads(files[-1].read_text())
    dl = bundle["deadlock"]
    assert dl is not None
    assert len(dl["waits"]) == P_BIG  # every rank accounted for
    blocked = sum(1 for w in dl["waits"]
                  if w["state"].startswith("blocked"))
    assert blocked == P_BIG - 1
    assert bundle["events"]["events_seen"] > 0
    assert bundle["stats"]["nprocs"] == P_BIG
    assert bundle["metrics"] is not None
    assert bundle["extra"]["scheduler"] == "event"

    paper_table(
        f"Postmortem at scale (P={P_BIG}, event backend)",
        "quantity                         value",
        [
            f"{'detection wall':<32} {detect_s * 1e3:.1f} ms",
            f"{'blocked ranks reported':<32} {blocked}",
            f"{'flight-recorder events seen':<32} "
            f"{bundle['events']['events_seen']}",
            f"{'bundle size':<32} {files[-1].stat().st_size} bytes",
        ],
    )
