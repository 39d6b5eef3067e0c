"""Flight recorder: bounded always-on tracing + postmortem bundles.

Full tracing (:class:`~repro.obs.tracer.Tracer`) keeps every event and
is opt-in; the :class:`FlightRecorder` is its bounded sibling — one
ring buffer of the most recent events per rank — cheap enough to leave
attached to every run.  When no explicit tracer is requested,
:class:`~repro.machine.machine.Machine` attaches one automatically
(``REPRO_FLIGHTREC`` sizes the per-rank rings or turns them off), so a
run that dies with a :class:`~repro.machine.network.SimulationError` or
deadlock still has its final moments on record.

The postmortem side: :func:`dump_postmortem` writes one JSON bundle —
the error, the structured :class:`DeadlockReport`, the run's
:class:`RunStats`, the recorder's event tails, and a metrics snapshot —
into ``REPRO_POSTMORTEM_DIR`` (no directory configured → no bundle; the
dump is best-effort and never raises into the failing run).  The
machine dumps on simulation failure; the service worker pool dumps on
worker crashes and hang kills.
"""

from __future__ import annotations

import datetime
import json
import os
import threading
from collections import deque
from typing import Any, Optional

from ..cas import atomic_write
from ..settings import DEFAULT_CAPACITY, Settings
from .tracer import Tracer, event_dict


class FlightRecorder(Tracer):
    """A :class:`Tracer` whose event storage is bounded.

    Same sink interface (``emit``/``phase``/``decision``), same
    read-only discipline — so attaching one cannot perturb the
    simulation — but each rank's stream and the host stream are
    ``deque(maxlen=capacity)`` rings: memory stays O(P · capacity) no
    matter how long the run, and what remains at failure time is
    exactly the recent history a postmortem needs.  A ring slot holds
    one ``(kind, ts, dur, *values)`` record; :meth:`tail` turns the
    survivors into event dicts.
    """

    def __init__(self, nprocs: int = 0,
                 capacity: Optional[int] = None) -> None:
        self.capacity = DEFAULT_CAPACITY if capacity is None \
            else max(1, capacity)
        #: events offered per rank.  Each counter is touched only by
        #: its own stream's writers, so the sum is exact on both
        #: scheduler backends.
        self._seen: list[int] = []
        super().__init__(nprocs, sample=False)
        self.host_events = deque(maxlen=self.capacity)

    def _new_stream(self) -> deque:
        self._seen.append(0)
        return deque(maxlen=self.capacity)

    def emit(self, rank: int, rec: tuple) -> None:
        self._seen[rank] += 1
        self.streams[rank].append(rec)

    @property
    def events_seen(self) -> int:
        """Total events offered (appends beyond capacity evict the
        oldest)."""
        return sum(self._seen)

    def tail(self) -> dict:
        """The recorder's content as a JSON-ready dict (only ranks
        that recorded anything appear)."""
        return _tail(self, self.capacity, self.events_seen)


def _tail(tracer: Tracer, cap: int, seen: int) -> dict:
    """The last *cap* events of each stream of *tracer*, materialised
    after slicing (a full trace may hold millions of records)."""
    return {
        "capacity": cap,
        "events_seen": seen,
        "host": list(tracer.host_events)[-cap:],
        "ranks": {
            str(r): [event_dict(r, rec) for rec in list(stream)[-cap:]]
            for r, stream in enumerate(tracer.streams) if stream
        },
    }


def _recorder_tail(recorder: Any) -> Optional[dict]:
    """Event tails from a FlightRecorder *or* a full Tracer (when the
    run was explicitly traced, the postmortem reuses its last events)."""
    if recorder is None:
        return None
    if isinstance(recorder, FlightRecorder):
        return recorder.tail()
    return _tail(recorder, DEFAULT_CAPACITY, recorder.event_count())


def _report_dict(report: Any) -> Optional[dict]:
    """A DeadlockReport as JSON-ready structure (best-effort)."""
    if report is None:
        return None
    try:
        return {
            "reason": report.reason,
            "waits": [
                {"rank": w.rank, "state": w.state,
                 "awaiting": str(w.awaiting), "clock": w.clock}
                for w in report.waits
            ],
            "pending": {
                str(r): [[list(key), n] for key, n in keys]
                for r, keys in sorted(report.pending.items())
            },
            "describe": report.describe(),
        }
    except Exception:  # pragma: no cover - malformed report
        return {"describe": str(report)}


_seq_lock = threading.Lock()
_seq = 0


def dump_postmortem(
    kind: str,
    error: Optional[BaseException] = None,
    report: Any = None,
    stats: Any = None,
    recorder: Any = None,
    metrics: Any = None,
    extra: Optional[dict] = None,
    directory: Optional[str] = None,
) -> Optional[str]:
    """Write one postmortem bundle into *directory* (else
    ``REPRO_POSTMORTEM_DIR``); returns its path, or None when no
    directory is configured.  Best-effort: any failure here returns
    None rather than masking the error being reported."""
    global _seq
    try:
        d = directory or Settings.from_env().postmortem_dir
        if d is None:
            return None
        bundle = {
            "schema": 1,
            "kind": kind,
            "generated_at": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "pid": os.getpid(),
            "error": None if error is None else {
                "type": type(error).__name__,
                "message": str(error),
            },
            "deadlock": _report_dict(report),
            "stats": stats.as_dict() if stats is not None else None,
            "metrics": metrics.snapshot() if metrics is not None
            else None,
            "events": _recorder_tail(recorder),
        }
        if extra:
            bundle["extra"] = extra
        with _seq_lock:
            _seq += 1
            seq = _seq
        out = os.path.join(
            d, f"postmortem-{kind}-{os.getpid()}-{seq}.json")
        atomic_write(out, (json.dumps(bundle, indent=2, sort_keys=True,
                                      default=str) + "\n").encode())
        return out
    except Exception:
        return None
