"""Observability layer: structured tracing, profiling, and
critical-path analysis for the compiler and the simulated machine.

The paper's whole argument (§9) is *explaining* where messages come from
and which communication pattern dominates; this package makes that story
visible for any compiled program:

* :class:`Tracer` — a low-overhead structured event recorder threaded
  through the compiler driver (host-time phase spans and decision
  events) and the simulator (virtual-time message lifecycle, scheduler
  dispatch, collective rendezvous, vectorized-block and comm-cache
  events).  Off by default; with no sink attached every
  instrumentation point is a single ``is not None`` test, with one it
  appends one positional record (:data:`FIELDS` is the schema; event
  dicts are built on read), and traced and untraced runs are
  bit-identical.
* :func:`chrome_trace` / :func:`write_chrome_trace` — export to the
  Chrome trace-event / Perfetto JSON format (``fdc --trace out.json``):
  one track per simulated rank in virtual µs plus compiler-phase tracks
  in host time.
* :func:`comm_hotspots`, :func:`comm_matrix`, :func:`critical_path`,
  :func:`profile_report` — ``fdc --profile``: communication hot spots by
  (procedure, statement), the rank x rank traffic matrix, and the
  virtual-time critical path — the chain of blocking dependencies from
  t=0 to the final clock.
* :class:`MetricsRegistry` (:mod:`.metrics`) — labeled counters,
  gauges, and bucketed latency histograms with p50/p90/p99 extraction;
  the production-telemetry substrate of the compile daemon
  (``fdc metrics``) and, under ``REPRO_METRICS``, the simulator.
* :class:`FlightRecorder` (:mod:`.flightrec`) — an always-on bounded
  ring of recent trace events per rank, dumped via
  :func:`dump_postmortem` into ``REPRO_POSTMORTEM_DIR`` when a run or
  a service worker dies.
"""

from .tracer import FIELDS, Tracer, resolve_trace, trace_output_path
from .chrome import chrome_trace, write_chrome_trace
from .flightrec import (
    FlightRecorder,
    dump_postmortem,
    flightrec_capacity,
    postmortem_dir,
)
from .metrics import (
    MetricsRegistry,
    SimMetrics,
    default_registry,
    metrics_enabled,
    mirror_counters,
    resolve_metrics,
)
from .profile import (
    comm_hotspots,
    comm_matrix,
    critical_path,
    link_traffic,
    objective_summary,
    path_length,
    profile_report,
)

__all__ = [
    "FIELDS",
    "Tracer",
    "resolve_trace",
    "trace_output_path",
    "chrome_trace",
    "write_chrome_trace",
    "FlightRecorder",
    "dump_postmortem",
    "flightrec_capacity",
    "postmortem_dir",
    "MetricsRegistry",
    "SimMetrics",
    "default_registry",
    "metrics_enabled",
    "mirror_counters",
    "resolve_metrics",
    "comm_hotspots",
    "comm_matrix",
    "critical_path",
    "link_traffic",
    "objective_summary",
    "path_length",
    "profile_report",
]
