"""Postmortem bundles: what a run or a service worker leaves when it dies.

The flight recorder itself is a :class:`~repro.obs.tracer.Tracer` ring
(``Tracer(capacity=N)``): when no trace is requested,
:class:`~repro.machine.machine.Machine` attaches one to every run
(``REPRO_FLIGHTREC`` sizes the per-rank rings or turns them off), so a
run that dies with a :class:`~repro.machine.network.SimulationError` or
deadlock still has its final moments on record.

:func:`dump_postmortem` writes one JSON bundle — the error, the
structured :class:`DeadlockReport`, the run's :class:`RunStats`, the
sink's event tails (:meth:`Tracer.tail`, whichever retention the run's
tracer had), and a metrics snapshot — into ``REPRO_POSTMORTEM_DIR`` (no
directory configured → no bundle; the dump is best-effort and never
raises into the failing run).  The machine dumps on simulation failure;
the service worker pool dumps on worker crashes and hang kills.
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
            "events": recorder.tail() if recorder is not None else None,
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
