"""Postmortem bundles: what a run or a service worker leaves when it dies.

The flight recorder is a replay, not an always-on ring: an untraced run
attaches no sink at all, so every instrumentation site costs its one
``tracer is not None`` test.  When a run fails and a bundle will be
written (``REPRO_POSTMORTEM_DIR`` set), and the run's own sink kept no
events, :class:`~repro.machine.machine.Machine` re-simulates the same
node program on a replica of itself with a
:class:`~repro.obs.tracer.Tracer` ring of ``REPRO_FLIGHTREC`` events per
rank (0: no events).  The simulation is deterministic, so the rings hold
what a ring attached to the failed run would have held.

:func:`dump_postmortem` writes one JSON bundle — the error (with the
failing rank's traceback), the structured :class:`DeadlockReport`, the
run's :class:`RunStats`, the event tails (:meth:`Tracer.tail` of the
run's own sink or of the replay's ring; ``replayed`` says which), a
note when the events need one, and a metrics snapshot — into
``REPRO_POSTMORTEM_DIR`` (no directory configured → no bundle; the dump
is best-effort and never raises into the failing run).  The machine
dumps on simulation failure; the service worker pool dumps on worker
crashes and hang kills.
"""

from __future__ import annotations

import datetime
import json
import os
import threading
from typing import Any, Optional

from ..cas import atomic_write
from ..settings import Settings


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
    events: Optional[dict] = None,
    metrics: Any = None,
    extra: Optional[dict] = None,
    directory: Optional[str] = None,
    replayed: bool = False,
    note: Optional[str] = None,
) -> Optional[str]:
    """Write one postmortem bundle into *directory* (else
    ``REPRO_POSTMORTEM_DIR``); returns its path, or None when no
    directory is configured.  *events* is a :meth:`Tracer.tail`,
    *replayed* whether a replay recorded it, *note* why the events are
    missing or what they are not.  Best-effort: any failure here
    returns None rather than masking the error being reported."""
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
            "events": events,
            "replayed": replayed,
            "events_note": note,
        }
        if getattr(error, "traceback", None):
            bundle["error"]["traceback"] = error.traceback
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
