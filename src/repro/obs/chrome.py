"""Chrome trace-event / Perfetto JSON export.

``chrome_trace`` turns a :class:`~repro.obs.tracer.Tracer` into the
trace-event JSON object format (https://ui.perfetto.dev loads it
directly, as does ``chrome://tracing``):

* **pid 0 "compiler (host time)"** — one track of nested phase spans
  (``ph: "X"`` complete events) plus decision instants, timestamped in
  host µs relative to the tracer's epoch;
* **pid 1 "simulation (virtual time)"** — one tid per simulated rank;
  receive waits, collective rendezvous and vectorized blocks are spans,
  sends / cache probes / faults / scheduler transitions are instants.

Timestamps are µs in both coordinate systems (the trace-event format's
native unit); the two pids simply use different clocks, which is why
they live in different process groups.
"""

from __future__ import annotations

import json
from typing import Any

from .tracer import Tracer

#: rank events rendered as duration spans; everything else is an instant
_SPAN_KINDS = {"net.recv", "coll", "interp.vec"}

COMPILER_PID = 0
SIM_PID = 1


def _args(ev: dict, skip: tuple) -> dict:
    return {k: v for k, v in ev.items() if k not in skip and v is not None}


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The trace as a Chrome trace-event JSON object."""
    out: list[dict] = [
        {"ph": "M", "pid": COMPILER_PID, "tid": 0,
         "name": "process_name",
         "args": {"name": "compiler (host time)"}},
        {"ph": "M", "pid": SIM_PID, "tid": 0,
         "name": "process_name",
         "args": {"name": "simulation (virtual time)"}},
    ]
    for rank in range(tracer.nprocs):
        out.append({
            "ph": "M", "pid": SIM_PID, "tid": rank,
            "name": "thread_name", "args": {"name": f"rank {rank}"},
        })

    epoch = tracer.epoch
    for ev in tracer.host_events:
        ts = (ev["t0"] - epoch) * 1e6
        if ev["kind"] == "compile.phase":
            t1 = ev["t1"] if ev["t1"] is not None else ev["t0"]
            out.append({
                "name": ev["name"], "cat": "compile", "ph": "X",
                "pid": COMPILER_PID, "tid": 0,
                "ts": ts, "dur": max(0.0, (t1 - ev["t0"]) * 1e6),
                "args": _args(ev, ("kind", "name", "t0", "t1", "depth")),
            })
        else:
            out.append({
                "name": ev["name"], "cat": "compile", "ph": "i",
                "s": "t", "pid": COMPILER_PID, "tid": 0, "ts": ts,
                "args": _args(ev, ("kind", "name", "t0", "depth")),
            })

    for ev in tracer.events():
        kind = ev["kind"]
        rec: dict[str, Any] = {
            "name": kind, "cat": kind.split(".", 1)[0],
            "pid": SIM_PID, "tid": ev["rank"], "ts": ev["ts"],
            "args": _args(ev, ("kind", "rank", "ts", "dur")),
        }
        if kind in _SPAN_KINDS:
            rec["ph"] = "X"
            rec["dur"] = ev.get("dur", 0.0)
        else:
            rec["ph"] = "i"
            rec["s"] = "t"
        out.append(rec)

    meta = dict(tracer.meta)
    dropped = getattr(tracer, "dropped_events", 0)
    if dropped:
        meta["dropped_events"] = dropped
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Serialize :func:`chrome_trace` to *path*; returns the path."""
    with open(path, "w") as f:
        json.dump(chrome_trace(tracer), f, default=str)
        f.write("\n")
    return path
