"""Experiment [fast path]: interpreter throughput, scalar vs vectorized.

Not a paper figure — this measures the simulator itself.  The vectorized
execution engine compiles innermost affine loop nests to numpy slice
assignments; this bench reports end-to-end elements/second on the 1-D
relaxation app for both execution paths, sequentially (the
interpreter on one simulated processor) and under the full SPMD
simulation (P ranks + virtual network), and writes the numbers to
``BENCH_interp.json`` at the repo root.

The two paths produce bit-identical arrays and RunStats (enforced by
``tests/test_vectorize_differential.py``); the only difference allowed
here is wall-clock speed.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.apps.stencil import stencil1d_source
from repro.core import Mode, Options, compile_program
from repro.interp import run_spmd
from repro.lang import parse

from _harness import emit_bench

N = 2048
STEPS = 8
P = 4
#: elements updated per run: STEPS time steps, two sweeps (smooth +
#: copyback) over the interior
ELEMS = STEPS * 2 * (N - 2)


def _eps(seconds: float) -> float:
    return ELEMS / seconds


@pytest.fixture(scope="module")
def measured():
    src = stencil1d_source(N, STEPS)
    prog = parse(src)
    cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER))
    out = {}
    ref = {}
    for vec in (False, True):
        t0 = time.perf_counter()
        frame = run_spmd(prog, 1, codegen=False, vectorize=vec).frames[0]
        out[("seq", vec)] = time.perf_counter() - t0
        ref[("seq", vec)] = frame.arrays["x"].data
        t0 = time.perf_counter()
        res = cp.run(vectorize=vec)
        out[("spmd", vec)] = time.perf_counter() - t0
        ref[("spmd", vec)] = res.gathered("x")
    # same answer everywhere, bit for bit
    base = ref[("seq", False)]
    for k, arr in ref.items():
        assert np.array_equal(arr, base), f"{k} diverged from reference"
    return out


def test_bench_throughput_sequential(benchmark, measured, paper_table):
    src = stencil1d_source(N, STEPS)
    prog = parse(src)
    benchmark.pedantic(
        lambda: run_spmd(prog, 1, codegen=False, vectorize=True),
        rounds=3, iterations=1,
    )
    _report(benchmark, measured, paper_table)
    slow, fast = measured[("seq", False)], measured[("seq", True)]
    assert fast < slow, "vectorized sequential run slower than scalar"
    assert slow / fast >= 5.0, (
        f"sequential fast path only {slow / fast:.1f}x"
    )


def test_bench_throughput_spmd(benchmark, measured, paper_table):
    src = stencil1d_source(N, STEPS)
    cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER))
    benchmark.pedantic(
        lambda: cp.run(vectorize=True), rounds=3, iterations=1
    )
    _report(benchmark, measured, paper_table)
    slow, fast = measured[("spmd", False)], measured[("spmd", True)]
    assert fast < slow, "vectorized SPMD run slower than scalar"
    assert slow / fast >= 2.0, f"SPMD fast path only {slow / fast:.1f}x"


def _report(benchmark, measured, paper_table):
    rows = []
    payload = {"n": N, "steps": STEPS, "nprocs": P, "elements": ELEMS}
    for setting in ("seq", "spmd"):
        slow = measured[(setting, False)]
        fast = measured[(setting, True)]
        rows.append(
            f"{setting:<12} {_eps(slow):>14,.0f} {_eps(fast):>14,.0f} "
            f"{slow / fast:>9.1f}x"
        )
        payload[setting] = {
            "scalar_elems_per_s": _eps(slow),
            "vectorized_elems_per_s": _eps(fast),
            "speedup": slow / fast,
        }
    benchmark.extra_info.update(payload)
    emit_bench("interp", payload)
    paper_table(
        f"Interpreter throughput: relax({N}) x {STEPS} steps "
        f"(elements/second, scalar vs vectorized)",
        f"{'setting':<12} {'scalar':>14} {'vectorized':>14} {'speedup':>10}",
        rows,
    )
