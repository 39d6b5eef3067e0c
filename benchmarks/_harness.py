"""Measurement helpers shared by the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures: it runs
the relevant compiled programs on the simulated machine, records the
measured quantities (simulated time, messages, bytes, remaps, guards)
into ``benchmark.extra_info``, prints the paper-style table, and asserts
the *shape* — who wins and by roughly what factor.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from pathlib import Path

import numpy as np

from repro.core import DynOpt, Mode, Options, compile_program
from repro.interp import run_sequential
from repro.lang import parse
from repro.machine import IPSC860, resolve_scheduler, resolve_topology

#: repository root — every benchmark's JSON artifact lands here so CI
#: can glob ``BENCH_*.json`` uniformly
REPO_ROOT = Path(__file__).resolve().parents[1]


def bench_dir() -> Path:
    """Where ``BENCH_*.json`` artifacts land: ``REPRO_BENCH_DIR`` when
    set (created on demand — CI points it at a scratch directory so
    fresh payloads never clobber the committed baselines), else the
    repository root (unchanged default)."""
    d = os.environ.get("REPRO_BENCH_DIR", "").strip()
    if not d:
        return REPO_ROOT
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


def git_sha() -> str:
    """The repository HEAD commit (short), or "unknown" outside a git
    checkout / without a git binary."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def bench_timestamp() -> str:
    """ISO-8601 UTC generation time; ``REPRO_BENCH_TIMESTAMP`` (e.g. a
    CI pipeline's start time) overrides the clock so reruns of one
    pipeline produce identical payloads."""
    injected = os.environ.get("REPRO_BENCH_TIMESTAMP")
    if injected:
        return injected
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )


def emit_bench(name: str, payload: dict) -> Path:
    """Write *payload* to ``BENCH_<name>.json`` in :func:`bench_dir`
    (the repository root unless ``REPRO_BENCH_DIR`` redirects it).

    Each benchmark module calls this once with its measured quantities;
    the files are the machine-readable counterpart of the printed
    paper-style tables and are uploaded as CI artifacts.

    Every payload is made self-describing: the active scheduler
    backend, topology, host CPU count, execution path (vectorization
    and node-program codegen switches), the producing commit
    (``git_sha``), and the generation time (``generated_at``,
    injectable via ``REPRO_BENCH_TIMESTAMP``) are stamped in (explicit
    keys set by the benchmark win) so a downloaded artifact identifies
    the configuration that produced it without consulting CI logs.
    """
    from repro.codegen import enabled as codegen_enabled
    from repro.codegen.vectorize import enabled as vectorize_enabled
    from repro.obs.metrics import default_registry, metrics_enabled

    payload.setdefault("git_sha", git_sha())
    payload.setdefault("generated_at", bench_timestamp())
    payload.setdefault("scheduler", resolve_scheduler(None))
    payload.setdefault("topology", resolve_topology(None, 1).describe())
    payload.setdefault("host_cpus", os.cpu_count() or 1)
    payload.setdefault("vectorize", vectorize_enabled(None))
    payload.setdefault("codegen", codegen_enabled(None))
    payload.setdefault(
        "metrics",
        default_registry().snapshot() if metrics_enabled() else None,
    )
    out = bench_dir() / f"BENCH_{name}.json"
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    )
    return out


def compile_and_measure(
    src: str,
    arr: str,
    mode: Mode = Mode.INTER,
    P: int = 4,
    dynopt: DynOpt = DynOpt.KILLS,
    init_fn=None,
    reference=None,
    timeout_s: float = 180.0,
    **optkw,
):
    """Compile + run + verify; returns (CompiledProgram, RunStats)."""
    opts = Options(nprocs=P, mode=mode, dynopt=dynopt, **optkw)
    cp = compile_program(src, opts)
    res = cp.run(cost=IPSC860, init_fn=init_fn, timeout_s=timeout_s)
    if reference is None:
        ref_frame = (
            run_sequential(parse(src), init_fn=init_fn)
            if init_fn else run_sequential(parse(src))
        )
        reference = ref_frame.arrays[arr].data
    assert np.allclose(res.gathered(arr), reference), \
        f"{mode} produced wrong results"
    return cp, res


def stats_row(label: str, s, extra: str = "") -> str:
    """One printed table row from a RunStats (via its as_dict() snapshot,
    the same machine-readable form ``fdc --stats-json`` writes)."""
    d = s.as_dict()
    return (
        f"{label:<26} {d['time_ms']:>10.3f} {d['messages']:>7} "
        f"{d['collectives']:>6} {d['total_bytes']:>10} {d['guards']:>8} "
        f"{extra}"
    )


STATS_HEADER = (
    f"{'version':<26} {'time(ms)':>10} {'msgs':>7} {'colls':>6} "
    f"{'bytes':>10} {'guards':>8}"
)
