"""Benchmark [§8, reconstructed]: the resilient compile service.

"Rather than recompiling the entire program after each change,
ParaScope performs recompilation analysis to pinpoint modules that may
have been affected by program changes, thus reducing recompilation
costs."

Regenerated as a service-level experiment: an editing session against
the compile daemon.  Measured quantities land in ``BENCH_service.json``:

* warm-store incremental recompile time for one-procedure edits vs the
  cold whole-program compile (the §8 claim — asserted >= 2x),
* daemon request throughput and p50/p99 latency,
* warm summary-store hit rate,
* recovery time for a request whose worker is killed mid-compile.
"""

import os
import statistics
import tempfile
import time

import numpy as np

from repro.core import Options, compile_program
from repro.core.driver import front_end
from repro.service import (
    CompileClient,
    CompileDaemon,
    ServiceCompiler,
    SummaryStore,
)

from _harness import emit_bench

P = 4
NPROCS_IN_APP = 16  # pipeline stages: per-procedure work dominates


def make_app(K=NPROCS_IN_APP, N=256):
    """A K-stage relaxation pipeline: one program + K subroutines, so
    a one-procedure edit leaves K procedures untouched."""
    parts = ["program p", f"real x({N}), y({N})",
             "align y(i) with x(i)", "distribute x(block)"]
    parts += [f"call stage{k}(x, y)" for k in range(K)]
    parts.append("end")
    for k in range(K):
        parts += [f"subroutine stage{k}(x, y)",
                  f"real x({N}), y({N})",
                  f"do i = 2, {N - 1}",
                  f"  y(i) = f(x(i - 1)) + f(x(i + 1)) + {k}.0",
                  "enddo",
                  f"do i = 1, {N}",
                  "  x(i) = y(i) * 0.5",
                  "enddo",
                  "end"]
    return "\n".join(parts) + "\n"


def median_time(fn, reps=7):
    xs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        xs.append(time.perf_counter() - t0)
    return statistics.median(xs)


def sock_path(tmp_path):
    p = str(tmp_path / "fdc.sock")
    if len(p) > 90:  # AF_UNIX sun_path limit
        p = os.path.join(tempfile.mkdtemp(prefix="fdc-"), "fdc.sock")
    return p


def test_service_bench(tmp_path, paper_table):
    src = make_app()
    opts = Options(nprocs=P)
    edits = [src.replace(f"+ {k}.0", f"+ {k}.5") for k in (3, 7, 11)]
    for e in edits:
        assert e != src

    # -- §8 claim: warm incremental vs cold whole-program ------------------
    compile_program(src, opts)  # prewarm interpreter/codegen caches
    store = SummaryStore(str(tmp_path / "store"))
    svc = ServiceCompiler(store=store)
    svc.compile(src, opts)  # seed the summary store
    cold_s = median_time(lambda: compile_program(src, opts))
    warm_s = median_time(lambda: svc.compile(edits[0], opts))
    front_s = median_time(lambda: front_end(src, opts))
    _, stats = svc.compile(edits[1], opts)
    assert stats["reused"] == NPROCS_IN_APP  # only the edit recompiles
    assert stats["compiled"] == 1
    speedup = cold_s / warm_s

    # -- daemon: throughput / latency / hit rate ---------------------------
    daemon = CompileDaemon(sock_path(tmp_path),
                           store_dir=str(tmp_path / "dstore"),
                           pool_size=0, queue_limit=32, handlers=2)
    daemon.serve_in_thread()
    try:
        client = CompileClient(daemon.socket_path)
        client.compile(src, opts)  # cold request seeds the store
        lat = []
        reqs = 24
        t0 = time.perf_counter()
        for i in range(reqs):
            r0 = time.perf_counter()
            client.compile(edits[i % len(edits)], opts)
            lat.append(time.perf_counter() - r0)
        wall = time.perf_counter() - t0
        lat.sort()
        p50 = lat[len(lat) // 2]
        p99 = lat[min(len(lat) - 1, int(len(lat) * 0.99))]
        dstats = daemon.stats()
        sstore = dstats["store"]
        hit_rate = sstore["hits"] / max(1, sstore["hits"]
                                        + sstore["misses"])
    finally:
        daemon.stop()

    # -- recovery after a worker kill --------------------------------------
    crash_flag = str(tmp_path / "crash")
    (tmp_path / "d2").mkdir()
    daemon2 = CompileDaemon(sock_path(tmp_path / "d2"),
                            store_dir=str(tmp_path / "dstore2"),
                            pool_size=1, handlers=1,
                            crash_flag=crash_flag)
    daemon2.serve_in_thread()
    try:
        client2 = CompileClient(daemon2.socket_path)
        baseline_s = median_time(
            lambda: client2.compile(src, opts), reps=3)
        with open(crash_flag, "w") as fh:
            fh.write("1")
        r0 = time.perf_counter()
        client2.compile(edits[2], opts)  # worker SIGKILLs itself; retried
        recovery_s = time.perf_counter() - r0
        pstats = daemon2.stats()["pool"]
        assert pstats["crashes"] >= 1 and pstats["retries"] >= 1
    finally:
        daemon2.stop()

    paper_table(
        "Resilient compile service (editing session, "
        f"{NPROCS_IN_APP}-procedure app)",
        f"{'metric':<38}{'value':>14}",
        [
            f"{'cold whole-program compile (ms)':<38}"
            f"{cold_s * 1e3:>14.2f}",
            f"{'warm 1-procedure edit (ms)':<38}"
            f"{warm_s * 1e3:>14.2f}",
            f"{'front end alone (ms)':<38}{front_s * 1e3:>14.2f}",
            f"{'incremental speedup':<38}{speedup:>13.2f}x",
            f"{'daemon throughput (req/s)':<38}"
            f"{reqs / wall:>14.1f}",
            f"{'daemon p50 latency (ms)':<38}{p50 * 1e3:>14.2f}",
            f"{'daemon p99 latency (ms)':<38}{p99 * 1e3:>14.2f}",
            f"{'warm store hit rate':<38}{hit_rate:>14.2f}",
            f"{'recovery after worker kill (ms)':<38}"
            f"{recovery_s * 1e3:>14.2f}",
        ],
    )

    emit_bench("service", {
        "app_procedures": NPROCS_IN_APP + 1,
        "nprocs": P,
        "cold_compile_s": cold_s,
        "warm_incremental_s": warm_s,
        "front_end_s": front_s,
        "incremental_speedup": speedup,
        "throughput_rps": reqs / wall,
        "latency_p50_s": p50,
        "latency_p99_s": p99,
        "warm_store_hit_rate": hit_rate,
        "recovery_after_kill_s": recovery_s,
        "recovery_baseline_s": baseline_s,
        "worker_crashes": pstats["crashes"],
    })

    # the §8 shape: pinpointed recompilation beats whole-program rebuilds
    assert speedup >= 2.0, \
        f"warm incremental only {speedup:.2f}x faster than cold"
    assert hit_rate >= 0.8, f"warm store hit rate {hit_rate:.2f}"
    assert recovery_s < 30.0, "recovery after worker kill unbounded"
