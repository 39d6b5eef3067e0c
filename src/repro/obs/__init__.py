"""Observability layer: structured tracing, profiling, and
critical-path analysis for the compiler and the simulated machine.

The paper's whole argument (§9) is *explaining* where messages come from
and which communication pattern dominates; this package makes that story
visible for any compiled program:

* :class:`Tracer` — the one telemetry sink: a low-overhead structured
  event recorder threaded through the compiler driver (host-time phase
  spans and decision events) and the simulator (virtual-time message
  lifecycle, scheduler dispatch, collective rendezvous,
  vectorized-block and comm-cache events).  It keeps everything, a
  sample, or — as the flight recorder ``Machine`` replays a failed
  untraced run with — a bounded ring of recent events per rank.  With
  no sink attached (an untraced run) every instrumentation point is a
  single ``is not None`` test, with one it appends one positional record
  (:data:`FIELDS` is the schema; event dicts are built on read), and
  traced and untraced runs are bit-identical.
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
  (``fdc metrics``) and, under ``REPRO_METRICS``, the simulator, whose
  per-event metrics (:class:`SimMetrics`) fold the sink's records.
* :func:`dump_postmortem` (:mod:`.flightrec`) — the error, event tails
  (for an untraced run, recorded by a replay of the failed run), run
  stats and metrics in one bundle under ``REPRO_POSTMORTEM_DIR`` when a
  run or a service worker dies.
"""

from .tracer import FIELDS, Tracer, resolve_trace
from .chrome import chrome_trace, write_chrome_trace
from .flightrec import dump_postmortem
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
    "chrome_trace",
    "write_chrome_trace",
    "dump_postmortem",
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
