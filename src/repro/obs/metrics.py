"""Production metrics: labeled counters, gauges, and latency histograms.

One :class:`MetricsRegistry` holds a process's metric families.  The
compile daemon owns a registry that is served live over the unix-socket
protocol (``op: "metrics"`` / ``fdc metrics``); the simulator attaches
one when ``REPRO_METRICS`` is set (or ``Machine(metrics=...)`` /
``run_spmd(metrics=...)`` passes one) and folds a snapshot into
:meth:`~repro.machine.stats.RunStats.as_dict`, so benchmarks, the
daemon, and ``fdc --stats-json`` all share one schema.

Design constraints (the same contract as :mod:`.tracer`):

* **cheap-when-disabled** — with metrics off, each instrumentation
  point costs one ``metrics is not None`` test; nothing is allocated.
* **read-only** — recording never touches simulated state: virtual
  timestamps come from the same observation points the tracer uses, so
  metrics-on runs stay bit-identical to metrics-off runs
  (``tests/test_metrics.py`` enforces it across both backends).
* **hot paths hoist children** — ``family.labels(...)`` resolves a
  label set once to a bound child; a record on the child is one locked
  float add (plus one bisect for histograms).

Exposition comes in two forms: :meth:`MetricsRegistry.snapshot` (a
JSON-ready dict, histograms carrying extracted p50/p90/p99) and
:meth:`MetricsRegistry.prometheus` (text exposition format, cumulative
``_bucket``/``_sum``/``_count`` series).
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_VIRTUAL_BUCKETS",
    "MetricsRegistry",
    "SimMetrics",
    "default_registry",
    "metrics_enabled",
    "mirror_counters",
    "resolve_metrics",
]

_INF = float("inf")

#: default histogram buckets for host-side latencies, in seconds
#: (log-spaced, covering sub-millisecond cache hits through the
#: daemon's 300 s deadline ceiling)
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: default buckets for simulated (virtual-time) durations, in µs —
#: blocked-receive waits range from single-hop latencies to whole-run
#: makespans
DEFAULT_VIRTUAL_BUCKETS: tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 1e6,
)


def _fmt(v: float) -> str:
    """Prometheus-style number: integers without a trailing ``.0``."""
    if v == _INF:
        return "+Inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _escape(v: Any) -> str:
    return str(v).replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


class _Child:
    """One (family, label-values) series: a single locked float cell."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    # monotonic mirror: adopt an externally-maintained cumulative
    # counter (pool/store/cache counters) without double counting
    set_to = set

    def get(self) -> float:
        with self._lock:
            return self.value


class _HistChild:
    """One histogram series: bucket counts + sum + count."""

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock,
                 bounds: Sequence[float]) -> None:
        self._lock = lock
        self.bounds = tuple(bounds)          # upper edges, +Inf implicit
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        i = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[i] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Approximate q-quantile by linear interpolation inside the
        bucket holding the q-th observation (0 with no samples; the
        last finite edge for observations in the overflow bucket)."""
        with self._lock:
            total = self.count
            counts = list(self.counts)
        if total <= 0:
            return 0.0
        rank = q * total
        cum = 0
        for i, c in enumerate(counts):
            prev = cum
            cum += c
            if cum >= rank and c > 0:
                lo = 0.0 if i == 0 else self.bounds[i - 1]
                hi = self.bounds[i] if i < len(self.bounds) \
                    else self.bounds[-1]
                if hi <= lo:
                    return hi
                return lo + (hi - lo) * ((rank - prev) / c)
        return self.bounds[-1] if self.bounds else 0.0


class _Family:
    """A named metric family: children keyed by label-value tuples."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str, labelnames: Iterable[str]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = registry._lock
        self._children: dict[tuple, Any] = {}

    def _key(self, labels: dict[str, Any]) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: labels {sorted(labels)} != declared "
                f"{sorted(self.labelnames)}"
            )
        return tuple(str(labels[k]) for k in self.labelnames)

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labels: Any):
        """The bound child for one label-value set (created on first
        use).  Hot paths call this once and keep the child."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
        return child

    def _items(self) -> list[tuple[dict, Any]]:
        with self._lock:
            items = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in sorted(items)
        ]


class CounterFamily(_Family):
    kind = "counter"

    def _make_child(self) -> _Child:
        return _Child(self._lock)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        return self.labels(**labels).get()


class GaugeFamily(CounterFamily):
    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self.labels(**labels).set(value)


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str, labelnames: Iterable[str],
                 buckets: Sequence[float]) -> None:
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"{name}: need at least one bucket edge")
        self.buckets = bounds

    def _make_child(self) -> _HistChild:
        return _HistChild(self._lock, self.buckets)

    def observe(self, value: float, **labels: Any) -> None:
        self.labels(**labels).observe(value)

    def quantile(self, q: float, **labels: Any) -> float:
        return self.labels(**labels).quantile(q)


class MetricsRegistry:
    """A process-local set of metric families (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, name: str, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not type(family):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}"
                    )
                return existing
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> CounterFamily:
        return self._register(name, CounterFamily(self, name, help,
                                                  labels))

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> GaugeFamily:
        return self._register(name, GaugeFamily(self, name, help,
                                                labels))

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> HistogramFamily:
        return self._register(
            name, HistogramFamily(self, name, help, labels, buckets)
        )

    # -- exposition ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready dump: ``{family: {type, help, values: [...]}}``,
        histogram values carrying extracted p50/p90/p99."""
        with self._lock:
            families = sorted(self._families.items())
        out: dict[str, Any] = {}
        for name, fam in families:
            values = []
            for labels, child in fam._items():
                if fam.kind == "histogram":
                    values.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "p50": child.quantile(0.50),
                        "p90": child.quantile(0.90),
                        "p99": child.quantile(0.99),
                        "buckets": {
                            _fmt(b): c for b, c in zip(
                                fam.buckets + (_INF,), child.counts
                            )
                        },
                    })
                else:
                    values.append({"labels": labels,
                                   "value": child.get()})
            out[name] = {"type": fam.kind, "help": fam.help,
                         "values": values}
        return out

    def prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, fam in families:
            if fam.help:
                lines.append(f"# HELP {name} {fam.help}")
            lines.append(f"# TYPE {name} {fam.kind}")
            for labels, child in fam._items():
                base = ",".join(
                    f'{k}="{_escape(v)}"' for k, v in labels.items()
                )
                if fam.kind != "histogram":
                    sel = f"{{{base}}}" if base else ""
                    lines.append(f"{name}{sel} {_fmt(child.get())}")
                    continue
                cum = 0
                for b, c in zip(fam.buckets + (_INF,), child.counts):
                    cum += c
                    sel = base + ("," if base else "") \
                        + f'le="{_fmt(b)}"'
                    lines.append(f"{name}_bucket{{{sel}}} {cum}")
                sel = f"{{{base}}}" if base else ""
                lines.append(f"{name}_sum{sel} {_fmt(child.sum)}")
                lines.append(f"{name}_count{sel} {child.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def mirror_counters(registry: MetricsRegistry, name: str,
                    values: dict, label: str = "event",
                    help: str = "", **const_labels: Any) -> None:
    """Adopt an externally-maintained counter dict (``pool.stats()``,
    ``store.stats()``, cache counters) as a labeled counter family —
    the sources are monotonic, so ``set_to`` preserves counter
    semantics without instrumenting every increment site."""
    fam = registry.counter(name, help,
                           labels=(*const_labels.keys(), label))
    for k, v in values.items():
        if isinstance(v, (int, float)):
            fam.labels(**const_labels, **{label: k}).set_to(v)


# -- enabling ---------------------------------------------------------------

_default_lock = threading.Lock()
_default_registry: Optional[MetricsRegistry] = None


def default_registry() -> MetricsRegistry:
    """The process-wide registry (created on first use) — what
    ``REPRO_METRICS=1`` runs and the benchmark harness record into."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = MetricsRegistry()
        return _default_registry


def metrics_enabled(arg: Any = None) -> bool:
    """``REPRO_METRICS`` truthiness (explicit *arg* wins)."""
    if arg is not None:
        return bool(arg)
    v = os.environ.get("REPRO_METRICS", "").strip().lower()
    return bool(v) and v not in ("0", "false", "no", "off")


def resolve_metrics(metrics: Any = None) -> Optional[MetricsRegistry]:
    """Normalize a ``metrics=`` argument: a registry passes through,
    ``True`` selects the default registry, ``False`` forces metrics
    off, and ``None`` defers to ``REPRO_METRICS``."""
    if isinstance(metrics, MetricsRegistry):
        return metrics
    if metrics is True:
        return default_registry()
    if metrics is False:
        return None
    return default_registry() if metrics_enabled() else None


class SimMetrics:
    """Pre-bound simulator instruments for one :class:`Machine`.

    Hot-path children (blocked-time histograms, block counters) are
    hoisted here once per run so the per-event cost is a single locked
    update; whole-run totals (messages, bytes, dispatches, cache
    counters) are folded in from :class:`RunStats` at the end of the
    run rather than per event, keeping metrics-on overhead within the
    BENCH_obs_metrics bound.
    """

    def __init__(self, registry: MetricsRegistry, backend: str,
                 topology: str = "uniform") -> None:
        self.registry = registry
        self.backend = backend
        self.topology = topology
        blocked = registry.histogram(
            "repro_sim_blocked_us",
            "virtual µs a rank spent blocked before its operation "
            "completed", labels=("backend", "kind"),
            buckets=DEFAULT_VIRTUAL_BUCKETS,
        )
        self.recv_blocked = blocked.labels(backend=backend, kind="recv")
        self.coll_blocked = blocked.labels(backend=backend,
                                           kind="collective")
        blocks = registry.counter(
            "repro_sim_blocks_total",
            "rank block events by cause", labels=("backend", "why"),
        )
        self.block_recv = blocks.labels(backend=backend, why="recv")
        self.block_coll = blocks.labels(backend=backend,
                                        why="collective")
        self._runs = registry.counter(
            "repro_sim_runs_total", "simulated SPMD runs by outcome",
            labels=("backend", "outcome"),
        )
        self._totals = registry.counter(
            "repro_sim_events_total",
            "simulated traffic and scheduling totals across runs",
            labels=("backend", "event"),
        )
        self._wall = registry.histogram(
            "repro_sim_run_wall_seconds",
            "host wall-clock of Machine.run", labels=("backend",),
        ).labels(backend=backend)
        self._time = registry.histogram(
            "repro_sim_time_us",
            "simulated makespan (virtual µs)", labels=("backend",),
            buckets=DEFAULT_VIRTUAL_BUCKETS,
        ).labels(backend=backend)

    def record_run(self, stats: Any, failed: bool = False) -> None:
        """Fold one finished run's :class:`RunStats` into the registry
        (bulk counter adds — one lock round-trip per series)."""
        outcome = "failed" if failed else "ok"
        self._runs.inc(1.0, backend=self.backend, outcome=outcome)
        t = self._totals
        for event, amount in (
            ("messages", stats.messages),
            ("bytes", stats.bytes),
            ("collectives", stats.collectives),
            ("collective_bytes", stats.collective_bytes),
            ("dispatches", stats.dispatches),
            ("switches", stats.switches),
            ("guards", stats.guards),
            ("faulted_messages", stats.faulted_messages),
            ("retransmits", stats.retransmits),
        ):
            if amount:
                t.labels(backend=self.backend, event=event).inc(amount)
        mirror_counters(
            self.registry, "repro_cache_events_total",
            {
                "comm_hits": stats.comm_cache_hits,
                "comm_misses": stats.comm_cache_misses,
                "codegen_hits": stats.codegen_cache_hits,
                "codegen_misses": stats.codegen_cache_misses,
                "codegen_demotions": stats.codegen_demotions,
            },
            help="interpreter/codegen cache activity (latest run)",
        )
        self._wall.observe(stats.wall_s)
        self._time.observe(stats.time_us)
