"""Experiment [fast path]: generated node programs vs the interpreter.

Not a paper figure — this measures the simulator itself.  The codegen
backend (``repro.codegen``) emits one straight-line numpy Python module
that every rank runs and caches it on disk, replacing the closure-tree
interpreter walk at run time.  This bench reports end-to-end wall-clock
on the paper's applications for the two engines — the scalar
interpreter and generated modules — plus a cold/warm generation-cache
series, and writes the numbers to ``BENCH_codegen.json`` at the repo
root.

Both engines produce bit-identical arrays and virtual clocks (enforced
by ``tests/test_codegen_differential.py`` and re-checked here); the
only difference allowed is wall-clock speed.  The gates: generated runs
are faster than the scalar interpreter on every app and at least 2x
faster on at least two (measured on a 2-CPU x86-64 host, best of 2
generated runs against one scalar run: stencil1d 26x, dgefa 46x, wave
20x, adi 5.9x, cg 11x), and warm-cache runs perform no generation.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.apps.adi import adi_source
from repro.apps.cg import cg_source
from repro.apps.dgefa import dgefa_source, make_dgefa_init
from repro.apps.stencil import stencil1d_source
from repro.apps.wave import wave_source
from repro.codegen import GEN_COUNTS, get_generated, reset_memory
from repro.core import Mode, Options, compile_program

from _harness import emit_bench

P = 4

#: (name, params, source, init_fn, must_be_2x) — the last flag marks the
#: apps whose inner loops run scalar in generated code too (loop-carried
#: dependences, reductions: ``LoopPlan`` rejects them), so the win there
#: is the statement walk alone; those carry the hard >=2x assertion.
APPS = [
    ("stencil1d", "n=512 steps=64", stencil1d_source(512, 64), None, False),
    ("dgefa", "n=128", dgefa_source(128), make_dgefa_init(128), False),
    ("wave", "n=256 steps=64", wave_source(256, 64), None, False),
    ("adi", "n=64 steps=32", adi_source(64, 32), None, True),
    ("cg", "n=256 iters=64", cg_source(256, 64), None, True),
]


def _timed_run(cp, init, rounds, **kw):
    """Best-of-*rounds* wall clock; returns (seconds, last RunResult)."""
    extra = {"init_fn": init} if init is not None else {}
    best, res = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        res = cp.run(timeout_s=120.0, **extra, **kw)
        best = min(best, time.perf_counter() - t0)
    return best, res


def _assert_identical(ref, other, label):
    assert ref.stats.proc_times == other.stats.proc_times, label
    for name in ref.frames[0].arrays:
        for rk, (fa, fb) in enumerate(zip(ref.frames, other.frames)):
            assert np.array_equal(
                fa.arrays[name].data, fb.arrays[name].data, equal_nan=True
            ), f"{label}: array {name} differs on rank {rk}"


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    apps = {}
    cps = {}
    for name, params, src, init, must2x in APPS:
        cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER))
        cps[name] = (cp, init)
        t_s, r_s = _timed_run(cp, init, 1, codegen=False)
        t_g, r_g = _timed_run(cp, init, 2, codegen=True, vectorize=True)
        # the two engines must agree bit for bit before timing means
        # anything
        _assert_identical(r_s, r_g, f"{name}: generated vs scalar")
        apps[name] = {
            "params": params,
            "scalar_s": t_s,
            "generated_s": t_g,
            "speedup_vs_scalar": t_s / t_g,
            "must_be_2x": must2x,
        }

    # cold / warm generation-cache series on the adi program (the
    # largest generated modules): cold = emit + compile + store, warm
    # disk = load + compile only, warm memo = per-procedure unit-memo
    # lookups plus assembly of the module's tables.  The
    # acceptance criterion is that warm runs *generate nothing*.
    cachedir = tmp_path_factory.mktemp("codegen-cache")
    prog = cps["adi"][0].program
    old = os.environ.get("REPRO_CODEGEN_CACHE")
    os.environ["REPRO_CODEGEN_CACHE"] = str(cachedir)
    try:
        reset_memory()
        g0 = dict(GEN_COUNTS)
        t0 = time.perf_counter()
        gen, hits_c, miss_c = get_generated(prog, P, True)
        t_cold = time.perf_counter() - t0
        gen_cold = GEN_COUNTS["generated"] - g0["generated"]

        reset_memory()
        g0 = dict(GEN_COUNTS)
        t0 = time.perf_counter()
        _, hits_d, miss_d = get_generated(prog, P, True)
        t_disk = time.perf_counter() - t0
        gen_disk = GEN_COUNTS["generated"] - g0["generated"]

        t0 = time.perf_counter()
        _, hits_m, miss_m = get_generated(prog, P, True)
        t_memo = time.perf_counter() - t0
    finally:
        if old is None:
            os.environ.pop("REPRO_CODEGEN_CACHE", None)
        else:
            os.environ["REPRO_CODEGEN_CACHE"] = old
        reset_memory()

    cache = {
        "modules": len(gen.modules),
        "cold_s": t_cold,
        "warm_disk_s": t_disk,
        "warm_memo_s": t_memo,
        "cold_generated": gen_cold,
        "cold_hits": hits_c,
        "cold_misses": miss_c,
        "warm_disk_generated": gen_disk,
        "warm_disk_hits": hits_d,
        "warm_disk_misses": miss_d,
        "warm_memo_hits": hits_m,
        "warm_memo_misses": miss_m,
    }
    return {"apps": apps, "cps": cps, "cache": cache}


def _report(benchmark, measured, paper_table):
    apps = measured["apps"]
    cache = measured["cache"]
    rows = [
        f"{name:<12} {a['params']:<16} {a['scalar_s']:>9.3f} "
        f"{a['generated_s']:>9.3f} {a['speedup_vs_scalar']:>8.2f}x"
        for name, a in apps.items()
    ]
    rows.append(
        f"{'cache(adi)':<12} {'cold/disk/memo':<16} "
        f"{cache['cold_s']:>9.4f} {cache['warm_disk_s']:>9.4f} "
        f"{cache['warm_memo_s']:>9.4f} "
        f"gen={cache['warm_disk_generated']}"
    )
    payload = {"nprocs": P, "apps": apps, "cache": cache}
    benchmark.extra_info.update(payload)
    emit_bench("codegen", payload)
    paper_table(
        f"Node-program codegen: wall-clock vs the interpreter (P={P})",
        f"{'app':<12} {'size':<16} {'scalar':>9} {'genmod':>9} "
        f"{'scal/gen':>9}",
        rows,
    )


def test_bench_codegen_speedup(benchmark, measured, paper_table):
    cp, init = measured["cps"]["adi"]
    extra = {"init_fn": init} if init is not None else {}
    benchmark.pedantic(
        lambda: cp.run(codegen=True, timeout_s=120.0, **extra),
        rounds=3, iterations=1,
    )
    _report(benchmark, measured, paper_table)
    at_least_2x = []
    for name, a in measured["apps"].items():
        su = a["speedup_vs_scalar"]
        assert a["generated_s"] < a["scalar_s"], (
            f"{name}: generated slower than the scalar interpreter"
        )
        if su >= 2.0:
            at_least_2x.append(name)
        if a["must_be_2x"]:
            assert su >= 2.0, f"{name}: generated only {su:.2f}x"
    assert len(at_least_2x) >= 2, (
        f"need >=2 apps at 2x, got {at_least_2x}"
    )


def test_bench_codegen_cache(benchmark, measured, paper_table):
    prog = measured["cps"]["adi"][0].program
    # memo-warm lookups are the steady state every cp.run() hits
    benchmark.pedantic(
        lambda: get_generated(prog, P, True), rounds=3, iterations=1
    )
    _report(benchmark, measured, paper_table)
    c = measured["cache"]
    n = c["modules"]
    assert c["cold_generated"] == n and c["cold_misses"] == n
    # warm runs skip generation entirely: everything loads from disk
    assert c["warm_disk_generated"] == 0
    assert c["warm_disk_hits"] == n and c["warm_disk_misses"] == 0
    assert c["warm_memo_hits"] == n and c["warm_memo_misses"] == 0
