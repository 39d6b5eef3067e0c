"""Trace consumers: communication hot spots, the rank x rank traffic
matrix, and the virtual-time critical path.

The critical path is the chain of blocking dependencies that sets the
run's final virtual clock — exactly the paper's pipelining-vs-blocking
story (Fig 10 vs Fig 12) made visible.  Starting from the rank whose
clock is the makespan, the walk goes backward through time: local
compute until the nearest blocking event; if a receive resumed the rank
(the message arrived *after* the rank started waiting), the path jumps
to the sender at its send clock; if a collective resumed it, the path
jumps to the last participant to arrive.  The produced segments tile
``[0, final clock]`` exactly, so ``path_length(segments)`` equals the
final virtual clock — an invariant the test suite asserts per run.
"""

from __future__ import annotations

from .tracer import Tracer

#: event kinds that can block a rank in virtual time
_BLOCKING = ("net.recv", "coll")
#: event kinds that move bytes from one rank to one other
_TRANSFERS = ("net.send", "net.exchange")


# ---------------------------------------------------------------------------
# hot spots
# ---------------------------------------------------------------------------


def comm_hotspots(tracer: Tracer) -> list[dict]:
    """Communication volume grouped by source-program provenance.

    Returns rows ``{proc, origin, kind, count, bytes}`` sorted by byte
    volume (then message count).  Point-to-point sends and exchange
    transfers count per message; collectives count once per operation
    (every participant records the rendezvous, so rank 0's stream —
    every collective includes rank 0 — enumerates each exactly once).
    """
    groups: dict[tuple, dict] = {}

    def add(origin, kind, nbytes, n=1):
        # origins are "proc:statement" strings built at closure-compile
        # time; anything without the colon (e.g. a bare collective
        # label) has no procedure attribution
        proc = origin.split(":", 1)[0] if origin and ":" in origin else None
        key = (proc or "?", origin or "?", kind)
        row = groups.get(key)
        if row is None:
            row = groups[key] = {
                "proc": key[0], "origin": key[1], "kind": kind,
                "count": 0, "bytes": 0,
            }
        row["count"] += n
        row["bytes"] += nbytes

    for ev in tracer.events(_TRANSFERS + ("coll",)):
        k = ev["kind"]
        if k != "coll":
            add(ev.get("origin"), k, ev.get("bytes", 0))
        elif ev["rank"] == 0:
            add(ev.get("origin") or ev.get("label"),
                f"coll.{ev.get('label', '?')}", ev.get("bytes", 0))
    return sorted(
        groups.values(),
        key=lambda r: (-r["bytes"], -r["count"], r["proc"], r["origin"]),
    )


# ---------------------------------------------------------------------------
# rank x rank matrix
# ---------------------------------------------------------------------------


def comm_matrix(tracer: Tracer) -> tuple[list[list[int]], list[list[float]]]:
    """Per-run communication matrix: ``(messages, bytes)`` indexed
    ``[src][dst]``.  Point-to-point sends and the pairwise transfers
    inside all-to-all exchanges are counted; collectives are not (they
    have no single destination)."""
    P = tracer.nprocs
    msgs = [[0] * P for _ in range(P)]
    byts = [[0.0] * P for _ in range(P)]
    for ev in tracer.events(_TRANSFERS):
        src, dst = ev["rank"], ev["dst"]
        msgs[src][dst] += 1
        byts[src][dst] += ev.get("bytes", 0)
    return msgs, byts


def link_traffic(
    tracer: Tracer, topology
) -> tuple[dict[tuple, dict], dict[int, int]]:
    """Per-link traffic under *topology*: every point-to-point message
    and exchange transfer is routed along ``topology.link_path(src,
    dst)`` and charged to each directed link it crosses.

    Returns ``(links, hop_histogram)`` where *links* maps each link
    label to ``{"msgs": n, "bytes": b}`` and *hop_histogram* maps hop
    count to number of messages.  Under a non-uniform topology this is
    the congestion picture the uniform model cannot see: a 2D-mesh
    transpose funnels traffic through central links even though the
    rank x rank matrix looks perfectly balanced.
    """
    links: dict[tuple, dict] = {}
    hops: dict[int, int] = {}
    for ev in tracer.events(_TRANSFERS):
        path = topology.link_path(ev["rank"], ev["dst"])
        hops[len(path)] = hops.get(len(path), 0) + 1
        nbytes = ev.get("bytes", 0)
        for link in path:
            row = links.get(link)
            if row is None:
                row = links[link] = {"msgs": 0, "bytes": 0.0}
            row["msgs"] += 1
            row["bytes"] += nbytes
    return links, hops


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------


def _seg(kind: str, rank: int, t0: float, t1: float, **fields) -> dict:
    seg = {"kind": kind, "rank": rank, "t0": t0, "t1": t1,
           "dur": t1 - t0}
    seg.update(fields)
    return seg


def critical_path(
    tracer: Tracer, proc_times: dict[int, float]
) -> list[dict]:
    """The blocking-dependency chain from t=0 to the final virtual
    clock, as time-ordered segments that tile ``[0, makespan]``.

    *proc_times* is ``RunStats.proc_times`` (final clock per rank).
    Segment kinds: ``compute`` (the rank ran), ``recv`` (receive
    overhead; ``blocked`` tells whether the message was awaited),
    ``wait`` (blocked on an in-flight message; ``src``/``origin`` name
    the sender and the emitting statement), ``collective`` (rendezvous
    cost, or the idle-until-last-arrival span when this rank was not
    the straggler).
    """
    if not proc_times:
        return []
    T = max(proc_times.values())
    rank = min(r for r, t in proc_times.items() if t == T)
    blocking: list[list[dict]] = [[] for _ in range(tracer.nprocs)]
    for e in tracer.events(_BLOCKING):
        blocking[e["rank"]].append(e)
    ptr = [len(b) - 1 for b in blocking]
    eps = 1e-9 * max(1.0, abs(T))
    segs: list[dict] = []
    t = T
    budget = sum(len(b) for b in blocking) + len(blocking) + 8
    while t > eps and budget > 0:
        budget -= 1
        evs = blocking[rank] if rank < len(blocking) else []
        i = ptr[rank] if rank < len(ptr) else -1
        while i >= 0 and evs[i]["ts"] + evs[i].get("dur", 0.0) > t + eps:
            i -= 1
        if i < 0:
            if rank < len(ptr):
                ptr[rank] = i
            segs.append(_seg("compute", rank, 0.0, t))
            t = 0.0
            break
        e = evs[i]
        ptr[rank] = i - 1
        end = e["ts"] + e.get("dur", 0.0)
        if t > end + eps:
            segs.append(_seg("compute", rank, end, t))
        t = end
        if e["kind"] == "net.recv":
            avail = e.get("avail", e["ts"])
            sent = e.get("sent_at", avail)
            if avail > e["ts"] + eps:
                # the message set the resume clock: the path crosses
                # the network to the sender
                segs.append(_seg(
                    "recv", rank, avail, t, blocked=True,
                    src=e.get("src"), tag=e.get("tag"),
                    origin=e.get("origin"), proc=e.get("proc"),
                ))
                segs.append(_seg(
                    "wait", rank, sent, avail, src=e.get("src"),
                    tag=e.get("tag"), bytes=e.get("bytes"),
                    origin=e.get("origin"), proc=e.get("proc"),
                ))
                rank = e.get("src", rank)
                t = sent
            else:
                segs.append(_seg(
                    "recv", rank, e["ts"], t, blocked=False,
                    src=e.get("src"), tag=e.get("tag"),
                    origin=e.get("origin"), proc=e.get("proc"),
                ))
                t = e["ts"]
        else:  # collective rendezvous
            mc = e.get("maxclock", e["ts"])
            mr = e.get("maxrank", rank)
            label = e.get("label", "?")
            if mr != rank and mc > e["ts"] + eps:
                # another rank arrived last: the path jumps to it at
                # the rendezvous clock
                segs.append(_seg(
                    "collective", rank, mc, t, label=label,
                    straggler=mr, origin=e.get("origin"),
                    proc=e.get("proc"),
                ))
                rank = mr
                t = mc
            else:
                segs.append(_seg(
                    "collective", rank, e["ts"], t, label=label,
                    straggler=rank, origin=e.get("origin"),
                    proc=e.get("proc"),
                ))
                t = e["ts"]
    if t > eps:  # pragma: no cover - defensive (budget exhausted)
        segs.append(_seg("compute", rank, 0.0, t))
    segs.reverse()
    return segs


def path_length(segments: list[dict]) -> float:
    """Total virtual duration of a critical path (== final clock)."""
    return sum(s["dur"] for s in segments)


def objective_summary(tracer: Tracer, stats) -> dict:
    """Machine-readable tuning objective: the profile report's numbers
    as data.  The auto-tuner prunes its plan space with this —
    ``comm_share`` (fraction of the critical path not spent computing)
    decides whether layout search is worth anything at all, and
    ``hotspots`` names the procedures/statements whose arrays are worth
    retargeting.

    Returns ``{time_us, path: {kind: virtual-us on the critical path},
    comm_share, hotspots: [{proc, origin, kind, count, bytes}],
    bytes_by_array_site: [...comm_hotspots rows...]}``.
    """
    segs = critical_path(tracer, stats.proc_times)
    by_kind: dict[str, float] = {}
    for s in segs:
        by_kind[s["kind"]] = by_kind.get(s["kind"], 0.0) + s["dur"]
    total = path_length(segs)
    comm = sum(v for k, v in by_kind.items() if k != "compute")
    return {
        "time_us": stats.time_us,
        "path": by_kind,
        "comm_share": (comm / total) if total > 0 else 0.0,
        "hotspots": comm_hotspots(tracer),
    }


# ---------------------------------------------------------------------------
# the --profile text report
# ---------------------------------------------------------------------------


def _fmt_origin(row: dict) -> str:
    origin = row["origin"]
    proc = row["proc"]
    if origin.startswith(f"{proc}:"):
        return origin
    return f"{proc}: {origin}" if proc != "?" else origin


def _fmt_link(link: tuple) -> str:
    a, b = link
    return f"{a}->{b}"


def profile_report(
    tracer: Tracer,
    stats,
    max_hotspots: int = 20,
    max_segments: int = 40,
    topology=None,
) -> str:
    """The ``fdc --profile`` report: hot spots, matrix, critical path,
    and — when *topology* is a non-uniform
    :class:`~repro.machine.topology.Topology` — per-link traffic with a
    hop-count histogram."""
    lines: list[str] = []
    rows = comm_hotspots(tracer)
    lines.append("communication hot spots (by provenance):")
    if rows:
        lines.append(f"  {'msgs':>7} {'bytes':>10}  {'kind':<12} source")
        for row in rows[:max_hotspots]:
            lines.append(
                f"  {row['count']:>7} {row['bytes']:>10.0f}  "
                f"{row['kind']:<12} {_fmt_origin(row)}"
            )
        if len(rows) > max_hotspots:
            lines.append(f"  ... {len(rows) - max_hotspots} more")
    else:
        lines.append("  (no communication recorded)")

    msgs, byts = comm_matrix(tracer)
    P = tracer.nprocs
    lines.append("")
    lines.append("communication matrix (messages src->dst):")
    header = "  src\\dst " + "".join(f"{d:>8}" for d in range(P))
    lines.append(header)
    for s in range(P):
        lines.append(
            f"  {s:>7} " + "".join(f"{msgs[s][d]:>8}" for d in range(P))
        )

    if topology is not None and topology.name != "uniform":
        links, hops = link_traffic(tracer, topology)
        lines.append("")
        lines.append(
            f"per-link traffic (topology={topology.describe()}, "
            f"busiest first):"
        )
        if links:
            ranked = sorted(
                links.items(),
                key=lambda kv: (-kv[1]["bytes"], -kv[1]["msgs"],
                                str(kv[0])),
            )
            lines.append(f"  {'msgs':>7} {'bytes':>10}  link")
            for link, row in ranked[:max_hotspots]:
                lines.append(
                    f"  {row['msgs']:>7} {row['bytes']:>10.0f}  "
                    f"{_fmt_link(link)}"
                )
            if len(ranked) > max_hotspots:
                lines.append(f"  ... {len(ranked) - max_hotspots} more")
            lines.append("  hop histogram: " + "  ".join(
                f"{h} hop{'s' if h != 1 else ''}={n} msgs"
                for h, n in sorted(hops.items())
            ))
        else:
            lines.append("  (no point-to-point traffic recorded)")

    segs = critical_path(tracer, stats.proc_times)
    total = path_length(segs)
    lines.append("")
    lines.append(
        f"virtual-time critical path: {total:.3f} us over "
        f"{len(segs)} segments (final clock {stats.time_us:.3f} us)"
    )
    by_kind: dict[str, float] = {}
    for s in segs:
        by_kind[s["kind"]] = by_kind.get(s["kind"], 0.0) + s["dur"]
    if total > 0:
        lines.append("  breakdown: " + "  ".join(
            f"{k}={v:.3f}us ({100 * v / total:.1f}%)"
            for k, v in sorted(by_kind.items(), key=lambda kv: -kv[1])
        ))
    shown = segs if len(segs) <= max_segments else segs[:max_segments]
    for s in shown:
        desc = ""
        if s["kind"] == "wait":
            desc = (f"msg from rank {s.get('src')} "
                    f"({s.get('origin') or '?'})")
        elif s["kind"] == "recv":
            desc = (f"recv overhead from rank {s.get('src')}"
                    + ("" if s.get("blocked") else " (already queued)"))
        elif s["kind"] == "collective":
            desc = (f"{s.get('label')} (last arrival: rank "
                    f"{s.get('straggler')})")
        lines.append(
            f"  [{s['t0']:>12.3f} -> {s['t1']:>12.3f}] rank {s['rank']} "
            f"{s['kind']:<10} {desc}"
        )
    if len(segs) > max_segments:
        lines.append(f"  ... {len(segs) - max_segments} more segments")
    return "\n".join(lines)
