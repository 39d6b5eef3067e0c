"""Metrics-subsystem tests.

Registry semantics (labels, histogram quantiles, both exposition
formats, mirror adoption), the enabling chain (``REPRO_METRICS`` /
``metrics=``), and — the load-bearing contract — the metrics-on/off
differential: instrumenting a run must leave results, virtual clocks,
and statistics bit-identical on every scheduler backend and execution
path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.apps.cg import cg_source
from repro.apps.stencil import stencil1d_source
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.machine import FREE, Machine, resolve_scheduler
from repro.obs import Tracer
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    metrics_enabled,
    mirror_counters,
    resolve_metrics,
)

from .conftest import SCHEDULER_SPELLINGS

SRC = stencil1d_source(64, 2)
OPTS = Options(nprocs=4, mode=Mode.INTER)

GRID = [(s, v) for s in SCHEDULER_SPELLINGS for v in (False, True)]
GRID_IDS = [f"{s}-{'vec' if v else 'scalar'}" for s, v in GRID]


# ---------------------------------------------------------------------------
# registry semantics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help", labels=("op",))
        c.inc(1.0, op="a")
        c.inc(2.0, op="a")
        c.inc(5.0, op="b")
        assert c.value(op="a") == 3.0
        assert c.value(op="b") == 5.0
        # unlabeled family: .labels() binds the single child
        u = reg.counter("y_total")
        u.labels().inc()
        assert u.labels().get() == 1.0

    def test_label_validation(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labels=("op",))
        with pytest.raises(ValueError, match="labels"):
            c.inc(1.0, wrong="a")
        with pytest.raises(ValueError, match="labels"):
            c.labels(op="a", extra="b")

    def test_reregistration(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels=("op",))
        assert reg.counter("x_total") is a  # same family, one identity
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")

    def test_gauge_set(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth").labels()
        g.set(7)
        assert g.get() == 7.0
        g.set(2)
        assert g.get() == 2.0

    def test_histogram_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0, 100.0)).labels()
        assert h.quantile(0.5) == 0.0  # empty
        for v in (0.5, 0.5, 5.0, 5.0, 50.0, 50.0, 50.0, 50.0):
            h.observe(v)
        assert h.count == 8
        assert h.sum == pytest.approx(211.0)
        # quantiles are bucket-interpolated: p50 falls in (10, 100]
        assert 0.0 < h.quantile(0.25) <= 10.0
        assert 10.0 < h.quantile(0.99) <= 100.0
        # overflow observations clamp to the last finite edge
        h.observe(1e9)
        assert h.quantile(1.0) == 100.0

    def test_snapshot_schema(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "ch", labels=("op",)).inc(2.0, op="a")
        reg.histogram("h_seconds", "hh",
                      buckets=(0.1, 1.0)).labels().observe(0.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["help"] == "ch"
        assert snap["c_total"]["values"] == [
            {"labels": {"op": "a"}, "value": 2.0}
        ]
        (hv,) = snap["h_seconds"]["values"]
        assert hv["count"] == 1 and hv["sum"] == 0.5
        assert set(hv["buckets"]) == {"0.1", "1", "+Inf"}
        assert {"p50", "p90", "p99"} <= set(hv)

    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "c help", labels=("op",)).inc(3.0, op="a")
        h = reg.histogram("h_seconds", buckets=(0.1, 1.0)).labels()
        h.observe(0.05)
        h.observe(0.5)
        h.observe(50.0)
        text = reg.prometheus()
        lines = text.splitlines()
        assert "# HELP c_total c help" in lines
        assert "# TYPE c_total counter" in lines
        assert 'c_total{op="a"} 3' in lines
        assert "# TYPE h_seconds histogram" in lines
        # cumulative buckets, +Inf matches _count
        assert 'h_seconds_bucket{le="0.1"} 1' in lines
        assert 'h_seconds_bucket{le="1"} 2' in lines
        assert 'h_seconds_bucket{le="+Inf"} 3' in lines
        assert "h_seconds_count 3" in lines
        assert text.endswith("\n")

    def test_mirror_counters_is_idempotent(self):
        reg = MetricsRegistry()
        mirror_counters(reg, "m_total", {"hits": 3, "skip": "str"})
        mirror_counters(reg, "m_total", {"hits": 5})  # set_to, not add
        fam = reg.counter("m_total")
        assert fam.value(event="hits") == 5.0
        snap = reg.snapshot()
        assert all(v["labels"]["event"] != "skip"
                   for v in snap["m_total"]["values"])


# ---------------------------------------------------------------------------
# enabling chain
# ---------------------------------------------------------------------------


class TestResolve:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert not metrics_enabled()
        assert resolve_metrics(None) is None
        assert Machine(2).metrics is None

    def test_explicit_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        reg = MetricsRegistry()
        assert resolve_metrics(reg) is reg
        assert resolve_metrics(True) is default_registry()
        assert resolve_metrics(False) is None
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert metrics_enabled()
        assert resolve_metrics(None) is default_registry()
        assert resolve_metrics(False) is None  # False beats the env
        monkeypatch.setenv("REPRO_METRICS", "off")
        assert not metrics_enabled()


# ---------------------------------------------------------------------------
# simulator integration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler,vectorize", GRID, ids=GRID_IDS)
class TestSimulatorMetrics:
    def test_run_records_families(self, scheduler, vectorize):
        reg = MetricsRegistry()
        cp = compile_program(SRC, OPTS)
        res = cp.run(scheduler=scheduler, vectorize=vectorize,
                     metrics=reg)
        snap = reg.snapshot()
        runs = {tuple(sorted(v["labels"].items())): v["value"]
                for v in snap["repro_sim_runs_total"]["values"]}
        assert runs[(("backend", resolve_scheduler(scheduler)),
                     ("outcome", "ok"))] == 1.0
        events = {v["labels"]["event"]: v["value"]
                  for v in snap["repro_sim_events_total"]["values"]}
        assert events["messages"] == res.stats.messages
        assert events["bytes"] == res.stats.bytes
        # the stencil blocks on its shift receives: blocked-time
        # histogram observed at least one wait
        (blocked,) = [
            v for v in snap["repro_sim_blocked_us"]["values"]
            if v["labels"]["kind"] == "recv"
        ]
        assert blocked["count"] > 0
        # the run's stats carry the same snapshot; no tracer leaked
        assert res.stats.metrics is not None
        assert res.stats.as_dict()["metrics"] == res.stats.metrics
        assert res.trace is None

    def test_on_off_bit_identity(self, scheduler, vectorize):
        """The whole point: attaching metrics must not perturb the
        simulation — results, clocks, and stats stay bit-identical."""
        cp = compile_program(SRC, OPTS)
        off = cp.run(scheduler=scheduler, vectorize=vectorize,
                     metrics=False)
        on = cp.run(scheduler=scheduler, vectorize=vectorize,
                    metrics=MetricsRegistry())
        assert np.array_equal(off.gathered("x"), on.gathered("x"))
        a, b = off.stats.as_dict(), on.stats.as_dict()
        assert a["proc_times"] == b["proc_times"]  # exact virtual clocks
        for key in ("time_us", "messages", "bytes", "collectives",
                    "guards", "dispatches", "total_bytes"):
            assert a[key] == b[key], f"{key} perturbed by metrics"


# ---------------------------------------------------------------------------
# the per-event metrics are a fold over the sink's records
# ---------------------------------------------------------------------------

#: app -> blocked-time histogram rows (kind -> count, sum, nonzero
#: buckets) and event-backend block counts (why -> value), as the
#: simulator measured them before the fold replaced its own hooks
PINNED = {
    "stencil": (
        stencil1d_source(64, 2),
        {"recv": (12, 313.9400000000001, {"1": 7, "2.5": 2, "250": 3}),
         "collective": (0, 0.0, {})},
        {"recv": 6.0, "collective": 0.0},
    ),
    "cg": (
        cg_source(64, 5),
        {"recv": (30, 537.5000000000009,
                  {"1": 15, "2.5": 9, "5": 1, "250": 5}),
         "collective": (124, 517.2500000000034,
                        {"1": 114, "2.5": 5, "250": 5})},
        {"recv": 11.0, "collective": 93.0},
    ),
}


def _sim_rows(snap):
    """The folded families of a snapshot, keyed by their labels."""
    return {
        name: {
            tuple(sorted(v["labels"].items())):
                {k: x for k, x in v.items() if k != "labels"}
            for v in snap.get(name, {"values": []})["values"]
        }
        for name in ("repro_sim_blocked_us", "repro_sim_blocks_total")
    }


@pytest.mark.parametrize("app", sorted(PINNED))
@pytest.mark.parametrize("scheduler", ["event", "threads"])
def test_fold_reproduces_pinned_values(app, scheduler):
    src, blocked, blocks = PINNED[app]
    reg = MetricsRegistry()
    compile_program(src, OPTS).run(scheduler=scheduler, metrics=reg)
    snap = reg.snapshot()
    rows = {v["labels"]["kind"]: v
            for v in snap["repro_sim_blocked_us"]["values"]}
    assert set(rows) == set(blocked)
    for kind, (count, total, buckets) in blocked.items():
        row = rows[kind]
        assert row["labels"]["backend"] == scheduler
        assert row["count"] == count
        # threads rank interleaving may reorder the float additions
        assert row["sum"] == (total if scheduler == "event"
                              else pytest.approx(total, rel=1e-12))
        assert {b: c for b, c in row["buckets"].items() if c} == buckets
    # only the event loop blocks in simulated time; the threads backend
    # emits no sched.block records and has no block-counter rows
    got = {v["labels"]["why"]: v["value"]
           for v in snap.get("repro_sim_blocks_total",
                             {"values": []})["values"]
           if v["labels"]["backend"] == scheduler}
    assert got == (blocks if scheduler == "event" else {})


@pytest.mark.parametrize("app", sorted(PINNED))
def test_fold_sees_what_retention_drops(app, monkeypatch):
    """One snapshot under four sinks: the default ring, a full trace,
    a trace sampled down to one event of one rank, and no recorder at
    all — the fold reads every record before retention decides."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
    cp = compile_program(PINNED[app][0], OPTS)

    def folded(trace=None):
        reg = MetricsRegistry()
        cp.run(scheduler="event", trace=trace, metrics=reg)
        return _sim_rows(reg.snapshot())

    ring = folded()
    assert ring == folded(True)
    sampled = Tracer(sample="1:1")
    assert ring == folded(sampled)
    assert sampled.dropped_events > 0
    monkeypatch.setenv("REPRO_FLIGHTREC", "0")
    assert ring == folded()
