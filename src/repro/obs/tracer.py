"""The structured event tracer.

One :class:`Tracer` instance collects everything observable about one
compile + run: compiler phases and decisions in *host* time, and
simulator events in *virtual* time, one event stream per simulated
rank.  Design constraints (enforced by ``tests/test_trace.py`` and the
traced-vs-untraced differential suite):

* **bit-identical-off** — tracing must never perturb the simulation.
  Every hook only *reads* state; virtual timestamps at non-observation
  points come from :meth:`ProcContext.clock_estimate`, which previews
  the batched-charge flush without performing it (an actual flush
  changes floating-point summation order and would alter clocks).
* **low overhead** — with no sink attached (``trace=False`` or
  ``REPRO_FLIGHTREC=0``) each instrumentation point costs one
  ``tracer is not None`` test.  With any sink — the default flight
  recorder or a full Tracer — an event is one positional tuple and one
  :meth:`Tracer.emit` call appending it to the rank's stream; the
  event *dict* is built only when a consumer reads
  (:attr:`Tracer.rank_events`, :meth:`Tracer.events`, the exports).
  No lock is needed even under the thread-per-rank backend: each
  rank's stream is only ever appended by code running on behalf of
  that rank, or — for collective completions — at a rendezvous point
  where every other participant is parked.

Event schema
------------

A rank event (virtual time) is stored as the record ``(kind, ts, dur,
v1, ..., vk)`` on its rank's stream and read as a dict with ``kind``,
``rank``, ``ts`` (virtual µs), ``dur`` on span-like events, and the
fields :data:`FIELDS` names for its kind — :data:`FIELDS` is the schema;
``docs/observability.md`` § Event schema describes each kind.

Host events are spans (``kind == "compile.phase"``, with ``t0``/``t1``
in ``time.perf_counter`` seconds and a nesting ``depth``) and instants
(``kind == "compile.decision"``).

Enabling
--------

``Machine(trace=...)`` / ``cp.run(trace=...)`` / ``compile_program(...,
trace=...)`` accept a Tracer (or ``True`` for a fresh one); the
``REPRO_TRACE`` environment variable turns tracing on globally —
``REPRO_TRACE=1`` collects in memory, any other value is a path the
run's Chrome trace JSON is written to.

Sampling
--------

Full-fidelity traces become unusable (and memory-hungry) at
event-backend scale: P=4096 ranks each produce thousands of events.
``REPRO_TRACE_SAMPLE=<ranks>[:<events-per-rank>]`` bounds the trace:
only ``<ranks>`` evenly-spaced ranks record events (rank 0 and the
last rank always included), and each sampled rank keeps at most
``<events-per-rank>`` events (0 or omitted = unbounded).  Sampling
drops *whole* events, so each surviving per-rank stream is an ordered
subsequence of the unsampled stream — per-rank clock monotonicity is
preserved (``tests/test_trace_sampling.py`` enforces it).  The drop
count is tracked in :attr:`Tracer.dropped_events`.
"""

from __future__ import annotations

import os
import time
from typing import Any, Optional

#: The rank-event schema: per kind, the names of a record's values
#: ``v1..vk``, in the order a reader sees them as dict (and JSON) keys.
FIELDS: dict[str, tuple[str, ...]] = {
    "net.send": ("dst", "tag", "bytes", "avail", "origin", "hops"),
    "net.recv": ("src", "tag", "bytes", "sent_at", "avail", "wait",
                 "origin"),
    "net.exchange": ("dst", "bytes", "origin"),
    "coll": ("label", "bytes", "maxclock", "maxrank", "origin"),
    "fault": ("dst", "tag", "delay", "retries"),
    "sched.dispatch": (),
    "sched.block": ("why", "src", "tag", "label"),
    "sched.unblock": ("why", "src", "tag"),
    "interp.vec": ("unit", "var", "n", "ops"),
    "interp.cache": ("array", "hit"),
}


#: Placeholder for a skipped *middle* field of a record (trailing
#: fields are simply left off).  ``None`` is a value, not absence.
ABSENT = object()


def event_dict(rank: int, rec: tuple) -> dict:
    """The event a reader sees for record *rec* of *rank*'s stream:
    ``kind``/``rank``/``ts``, ``dur`` when nonzero, then the fields
    :data:`FIELDS` names for the kind, in schema order."""
    kind = rec[0]
    names = FIELDS[kind]
    if len(rec) - 3 > len(names):
        raise ValueError(
            f"{kind!r} record carries {len(rec) - 3} values, "
            f"schema names {len(names)}: {rec!r}"
        )
    ev = {"kind": kind, "rank": rank, "ts": rec[1]}
    if rec[2]:
        ev["dur"] = rec[2]
    for name, v in zip(names, rec[3:]):
        if v is not ABSENT:
            ev[name] = v
    return ev


def _env_trace() -> str:
    return os.environ.get("REPRO_TRACE", "").strip()


def trace_output_path() -> Optional[str]:
    """The trace-file path requested via ``REPRO_TRACE``, if any
    (values that merely switch tracing on/off are not paths)."""
    v = _env_trace()
    if v and v.lower() not in ("0", "1", "false", "true", "no", "yes",
                               "off", "on"):
        return v
    return None


def _parse_sample(spec: str) -> tuple[Optional[int], Optional[int]]:
    """``"<ranks>[:<events-per-rank>]"`` -> (rank limit, event budget);
    0/empty/garbage components mean "no limit" for that component."""
    ranks: Optional[int] = None
    budget: Optional[int] = None
    head, _, tail = spec.partition(":")
    try:
        n = int(head)
        ranks = n if n > 0 else None
    except ValueError:
        pass
    if tail:
        try:
            n = int(tail)
            budget = n if n > 0 else None
        except ValueError:
            pass
    return ranks, budget


def resolve_trace(trace: Any = None) -> Optional["Tracer"]:
    """Normalize a ``trace=`` argument: a Tracer passes through,
    ``True`` makes a fresh one, ``False`` forces tracing off, and
    ``None`` defers to ``REPRO_TRACE``."""
    if isinstance(trace, Tracer):
        return trace
    if trace is True:
        return Tracer()
    if trace is False:
        return None
    v = _env_trace()
    if v and v.lower() not in ("0", "false", "no", "off"):
        return Tracer()
    return None


class _PhaseSpan:
    """Context manager recording one host-time compiler phase."""

    __slots__ = ("tracer", "event")

    def __init__(self, tracer: "Tracer", event: dict) -> None:
        self.tracer = tracer
        self.event = event

    def __enter__(self) -> dict:
        return self.event

    def __exit__(self, *exc) -> None:
        self.event["t1"] = time.perf_counter()
        self.tracer._depth -= 1
        return None


class Tracer:
    """Collects host-time compiler events and virtual-time rank events."""

    def __init__(self, nprocs: int = 0, sample: Any = None) -> None:
        self.host_events: list[dict] = []
        #: one stream of ``(kind, ts, dur, *values)`` records per rank
        self.streams: list[Any] = []
        self.meta: dict[str, Any] = {}
        self._depth = 0
        self.epoch = time.perf_counter()
        # -- sampling (see module docstring): *sample* is a spec
        # string, False to force full fidelity, or None to defer to
        # REPRO_TRACE_SAMPLE
        if sample is None:
            sample = os.environ.get("REPRO_TRACE_SAMPLE", "").strip()
        self.sample_ranks: Optional[int] = None
        self._budget: Optional[int] = None
        if sample:
            self.sample_ranks, self._budget = _parse_sample(sample)
            self.meta["trace_sample"] = sample
        #: ranks allowed to record (None = all ranks)
        self._sampled: Optional[set[int]] = None
        self.dropped_events = 0
        self.ensure_ranks(nprocs)

    # -- machine attachment -------------------------------------------------

    def _new_stream(self) -> Any:
        return []

    def ensure_ranks(self, nprocs: int) -> None:
        """Grow the per-rank event streams to *nprocs* tracks (the
        tracer may be created before the machine exists)."""
        while len(self.streams) < nprocs:
            self.streams.append(self._new_stream())
        n = self.sample_ranks
        P = len(self.streams)
        if n is not None and P > n:
            # evenly-spaced deterministic rank subset, endpoints kept
            if n == 1:
                self._sampled = {0}
            else:
                self._sampled = {
                    round(i * (P - 1) / (n - 1)) for i in range(n)
                }

    @property
    def nprocs(self) -> int:
        return len(self.streams)

    # -- compiler (host time) ----------------------------------------------

    def phase(self, name: str, **fields: Any) -> _PhaseSpan:
        """``with tracer.phase("codegen", proc="dgefa"):`` — a nested
        host-time span around one compiler phase."""
        ev = {
            "kind": "compile.phase",
            "name": name,
            "t0": time.perf_counter(),
            "t1": None,
            "depth": self._depth,
        }
        if fields:
            ev.update(fields)
        self._depth += 1
        self.host_events.append(ev)
        return _PhaseSpan(self, ev)

    def decision(self, name: str, **fields: Any) -> None:
        """An instantaneous compiler decision event (distribution
        chosen, clone created, communication placed, RTR fallback)."""
        ev = {
            "kind": "compile.decision",
            "name": name,
            "t0": time.perf_counter(),
            "depth": self._depth,
        }
        if fields:
            ev.update(fields)
        self.host_events.append(ev)

    # -- simulator (virtual time) -------------------------------------------

    def emit(self, rank: int, rec: tuple) -> None:
        """The sink every instrumentation site calls: append the record
        ``(kind, ts, dur, *values)`` to *rank*'s stream (dropped whole
        when the sampling policy excludes it)."""
        if self._sampled is not None and rank not in self._sampled:
            self.dropped_events += 1
            return
        stream = self.streams[rank]
        if self._budget is not None and len(stream) >= self._budget:
            self.dropped_events += 1
            return
        stream.append(rec)

    def rank_event(self, rank: int, kind: str, ts: float,
                   dur: float = 0.0, **fields: Any) -> None:
        """Keyword front door to :meth:`emit` for tests and ad-hoc
        callers: packs *fields* into a record by ``FIELDS[kind]``."""
        names = FIELDS[kind]
        unknown = fields.keys() - set(names)
        if unknown:
            raise TypeError(
                f"{kind!r} events have no field {sorted(unknown)}; "
                f"schema: {names}"
            )
        self.emit(rank, (kind, ts, dur,
                         *(fields.get(name, ABSENT) for name in names)))

    # -- readers ------------------------------------------------------------

    @property
    def rank_events(self) -> list[list[dict]]:
        """Every stream materialised as event dicts, one list per rank
        (built afresh on each read — hoist it out of loops)."""
        return [
            [event_dict(rank, rec) for rec in stream]
            for rank, stream in enumerate(self.streams)
        ]

    def event_count(self) -> int:
        return len(self.host_events) + sum(map(len, self.streams))

    def events(self, kind: str | tuple[str, ...] | None = None
               ) -> list[dict]:
        """All rank events, rank-major; *kind* — one kind or a tuple of
        kinds — filters on the record, before any dict is built."""
        kinds = (kind,) if isinstance(kind, str) else kind
        return [
            event_dict(rank, rec)
            for rank, stream in enumerate(self.streams)
            for rec in stream
            if kinds is None or rec[0] in kinds
        ]
