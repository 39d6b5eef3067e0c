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
* **low overhead** — with tracing off, each instrumentation point costs
  one ``tracer is not None`` test.  With tracing on, an event is one
  dict construction and one list append into a per-rank list (so no
  lock is needed even under the thread-per-rank backend: each rank's
  list is only ever appended by code running on behalf of that rank,
  or — for collective completions — at a rendezvous point where every
  other participant is parked).

Event schema
------------

Rank events (virtual time) are dicts with at least ``kind``, ``rank``
and ``ts`` (virtual µs); span-like events carry ``dur``.  Kinds:

=================  ========================================================
``net.send``       message posted: dst, tag, bytes, avail, origin, proc
``net.recv``       matched receive span: src, tag, bytes, sent_at, avail,
                   wait (blocked µs), origin, proc
``net.exchange``   one pairwise transfer inside an all-to-all exchange
``coll``           collective rendezvous span: label, seq, maxclock,
                   maxrank, bytes, origin, proc
``sched.dispatch`` event scheduler resumed this rank
``sched.block``    rank blocked (why: recv/collective, detail)
``sched.unblock``  a send/rendezvous made this rank runnable again
``interp.vec``     vectorized block execution span: unit, var, n, ops
``interp.cache``   comm-schedule cache probe: array, hit
``fault``          injected delay/retransmit on a posted message
=================  ========================================================

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
        self.rank_events: list[list[dict]] = [[] for _ in range(nprocs)]
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

    # -- machine attachment -------------------------------------------------

    def ensure_ranks(self, nprocs: int) -> None:
        """Grow the per-rank event streams to *nprocs* tracks (the
        tracer may be created before the machine exists)."""
        while len(self.rank_events) < nprocs:
            self.rank_events.append([])
        n = self.sample_ranks
        P = len(self.rank_events)
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
        return len(self.rank_events)

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

    def rank_event(self, rank: int, kind: str, ts: float,
                   dur: float = 0.0, **fields: Any) -> None:
        """Record one virtual-time event on *rank*'s track (dropped
        whole when the sampling policy excludes it)."""
        if self._sampled is not None and rank not in self._sampled:
            self.dropped_events += 1
            return
        evs = self.rank_events[rank]
        if self._budget is not None and len(evs) >= self._budget:
            self.dropped_events += 1
            return
        ev = {"kind": kind, "rank": rank, "ts": ts}
        if dur:
            ev["dur"] = dur
        if fields:
            ev.update(fields)
        evs.append(ev)

    # -- summaries ----------------------------------------------------------

    def event_count(self) -> int:
        return len(self.host_events) + sum(
            len(evs) for evs in self.rank_events
        )

    def events(self, kind: Optional[str] = None) -> list[dict]:
        """All rank events (optionally filtered by kind), rank-major."""
        out: list[dict] = []
        for evs in self.rank_events:
            for ev in evs:
                if kind is None or ev["kind"] == kind:
                    out.append(ev)
        return out
