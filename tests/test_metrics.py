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

from repro.apps.stencil import stencil1d_source
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.machine import FREE, Machine, resolve_scheduler
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
