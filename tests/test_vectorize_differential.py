"""Differential tests: vectorized vs scalar execution, bit for bit.

The fast path's contract is not "numerically close" — every array
element, every virtual clock, and every statistic must be *identical*
whether a loop nest executed as numpy slice assignments or as one
closure call per element.  These tests enforce the contract on the full
application suite (all modes the apps compile under) and on randomly
generated affine loop programs, including programs the vectorizer must
reject or bail out of at run time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.adi import adi_source
from repro.apps.cg import cg_source
from repro.apps.dgefa import (
    dgefa_dgesl_source,
    dgefa_pivot_source,
    dgefa_source,
    make_dgefa_init,
)
from repro.apps.paper_figures import fig1_source, fig4_source, fig15_source
from repro.apps.stencil import stencil1d_source, stencil2d_source
from repro.apps.wave import wave_source
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.interp import run_spmd
from repro.interp.vectorize import enabled
from repro.lang import parse
from repro.obs import Tracer

#: the stats that must match exactly between the two execution paths
STAT_FIELDS = (
    "messages", "bytes", "collectives", "collective_bytes",
    "remaps", "remap_bytes", "guards",
)


def assert_bit_identical(cp, init_fn=None, timeout_s=30.0):
    """Run *cp* on both paths and require identical arrays and stats."""
    kw = {"init_fn": init_fn} if init_fn else {}
    r_vec = cp.run(vectorize=True, timeout_s=timeout_s, **kw)
    r_sca = cp.run(vectorize=False, timeout_s=timeout_s, **kw)
    for f in STAT_FIELDS:
        assert getattr(r_vec.stats, f) == getattr(r_sca.stats, f), f
    assert r_vec.stats.proc_times == r_sca.stats.proc_times
    assert r_vec.stats.proc_work == r_sca.stats.proc_work
    for name in r_vec.frames[0].arrays:
        for rk, (fv, fs) in enumerate(zip(r_vec.frames, r_sca.frames)):
            assert np.array_equal(
                fv.arrays[name].data, fs.arrays[name].data, equal_nan=True
            ), f"array {name} differs on rank {rk}"


APP_CASES = [
    ("dgefa", dgefa_source(32), Mode.INTER, make_dgefa_init(32)),
    ("dgefa_pivot", dgefa_pivot_source(24), Mode.INTER, make_dgefa_init(24)),
    ("dgefa_dgesl", dgefa_dgesl_source(24), Mode.INTER, make_dgefa_init(24)),
    ("adi", adi_source(32, 2), Mode.INTER, None),
    ("cg", cg_source(32, 4), Mode.INTER, None),
    ("stencil1d", stencil1d_source(128, 4), Mode.INTER, None),
    ("stencil2d", stencil2d_source(24, 2), Mode.INTER, None),
    ("wave", wave_source(64, 4), Mode.INTER, None),
    ("fig1", fig1_source(64), Mode.INTER, None),
    ("fig4", fig4_source(64), Mode.INTER, None),
    ("fig15", fig15_source(64, 4), Mode.INTER, None),
    ("dgefa_intra", dgefa_source(24), Mode.INTRA, make_dgefa_init(24)),
    ("stencil_rtr", stencil1d_source(32, 2), Mode.RTR, None),
    ("dgefa_rtr", dgefa_source(12), Mode.RTR, make_dgefa_init(12)),
]


@pytest.mark.parametrize(
    "src,mode,init", [c[1:] for c in APP_CASES], ids=[c[0] for c in APP_CASES]
)
def test_apps_bit_identical(src, mode, init):
    cp = compile_program(src, Options(nprocs=4, mode=mode))
    assert_bit_identical(cp, init)


# -- randomly generated affine loop programs ------------------------------

N = 32          # array extent

_consts = st.sampled_from(["0.5", "1.5", "2.0", "3.0", "0.25"])
_loop_subs = st.sampled_from(["i", "i + 1", "i - 1", "i + 2", "i - 2"])
_any_subs = st.sampled_from(
    ["i", "i + 1", "i - 1", "i + 2", "i - 2", "5", "t"]
)


def _expr_strategy(ref):
    """An affine expression grammar over the given array-ref strategy."""
    leaf = st.one_of(_consts, st.just("i"), ref)

    def node(children):
        binop = st.tuples(
            children, st.sampled_from(["+", "-", "*"]), children
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        neg = children.map(lambda e: f"(-{e})")
        call = st.tuples(
            st.sampled_from(["min", "max"]), children, children
        ).map(lambda t: f"{t[0]}({t[1]}, {t[2]})")
        absc = children.map(lambda e: f"abs({e})")
        div = children.map(lambda e: f"({e} / 2.0)")
        return st.one_of(binop, neg, call, absc, div)

    return st.recursive(leaf, node, max_leaves=6)


def _program(stmts, nprocs, steps):
    body = "\n".join(stmts)
    return f"""
program h
real a({N}), b({N}), c({N})
parameter (n$proc = {nprocs})
align b(i) with a(i)
align c(i) with a(i)
distribute a(block)
do t = 1, {steps}
  do i = 3, {N - 2}
{body}
  enddo
enddo
end
"""


#: Distributed (SPMD) programs stay inside the subset the comm planner
#: compiles correctly (the shape of every real app in the suite):
#: writes target ``a``/``b``, each at ONE loop-carrying subscript per
#: program, and reads of a written array use that same subscript (the
#: stencil/copyback pattern); the never-written ``c`` is read freely,
#: including at loop-invariant subscripts.  Outside that subset — a
#: loop writing one array at two different offsets, reading it at a
#: different offset than it writes, or accessing it loop-invariantly —
#: the planner deadlocks (identically on both execution paths; verified
#: pre-existing on the seed).  The sequential generator below covers
#: those shapes, where no comm planning is involved.


@st.composite
def affine_programs(draw):
    nprocs = draw(st.sampled_from([2, 4]))
    steps = draw(st.integers(1, 2))
    target_sub = {"a": draw(_loop_subs), "b": draw(_loop_subs)}
    ref = st.one_of(
        st.sampled_from(("a", "b")).map(lambda n: (n, target_sub[n])),
        st.tuples(st.just("c"), _any_subs),
    ).map(lambda p: f"{p[0]}({p[1]})")
    exprs = draw(
        st.lists(
            st.tuples(st.sampled_from(("a", "b")), _expr_strategy(ref)),
            min_size=1, max_size=4,
        )
    )
    stmts = [f"    {arr}({target_sub[arr]}) = {e}" for arr, e in exprs]
    return _program(stmts, nprocs, steps), nprocs


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(affine_programs())
def test_random_affine_programs_bit_identical(case):
    src, nprocs = case
    cp = compile_program(src, Options(nprocs=nprocs, mode=Mode.INTER))
    assert_bit_identical(cp, timeout_s=5.0)


#: Sequential programs: the full grammar — any array read or written at
#: any subscript, including the loop-invariant shapes that force the
#: vectorizer's runtime fallback (invariant read inside the written
#: range, unequal write offsets, invariant write targets).
_seq_ref = st.tuples(st.sampled_from(("a", "b", "c")), _any_subs).map(
    lambda p: f"{p[0]}({p[1]})"
)
_seq_stmt = st.tuples(
    st.sampled_from(("a", "b", "c")), _any_subs, _expr_strategy(_seq_ref)
).map(lambda t: f"    {t[0]}({t[1]}) = {t[2]}")


@st.composite
def sequential_programs(draw):
    steps = draw(st.integers(1, 2))
    stmts = draw(st.lists(_seq_stmt, min_size=1, max_size=4))
    return _program(stmts, 1, steps)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sequential_programs())
def test_random_sequential_programs_bit_identical(src):
    prog = parse(src)
    f_vec = run_spmd(prog, 1, codegen=False, vectorize=True).frames[0]
    f_sca = run_spmd(prog, 1, codegen=False, vectorize=False).frames[0]
    for name in f_sca.arrays:
        assert np.array_equal(
            f_vec.arrays[name].data, f_sca.arrays[name].data, equal_nan=True
        ), f"array {name} differs"
    # the same grammar through the emitter: the generated node program
    # (P=1) against the scalar interpreter, and its block decisions —
    # accept, reject, per-block fallback — against the vectorized
    # interpreter's, event for event
    cp = compile_program(src, Options(nprocs=1))
    r_gen = cp.run(codegen=True, vectorize=True, timeout_s=5.0,
                   trace=Tracer(sample=False))
    r_sca = cp.run(codegen=False, vectorize=False, timeout_s=5.0)
    r_vec = cp.run(codegen=False, vectorize=True, timeout_s=5.0,
                   trace=Tracer(sample=False))
    assert r_gen.stats.proc_times == r_sca.stats.proc_times
    for name, arr in r_sca.frames[0].arrays.items():
        assert np.array_equal(
            r_gen.frames[0].arrays[name].data, arr.data, equal_nan=True
        ), f"generated: array {name} differs"
    assert r_gen.trace.events("interp.vec") \
        == r_vec.trace.events("interp.vec")


def test_loop_bounds_evaluated_once_when_block_falls_back():
    """A block that falls back to the scalar loop (here: trip count
    below ``MIN_BLOCK``) runs it over the bounds already evaluated — a
    user function in a loop bound is called, and charged, once on every
    engine."""
    cp = compile_program("""
program h
real a(32)
integer k
k = 3
do i = 1, nf(k)
  a(i) = a(i) + 1.0
enddo
end
integer function nf(m)
integer m
nf = m
end
""", Options(nprocs=1))
    times = {
        (cg, vec): cp.run(codegen=cg, vectorize=vec).stats.proc_times
        for cg in (False, True) for vec in (False, True)
    }
    assert len({repr(t) for t in times.values()}) == 1, times


# -- the switch itself ----------------------------------------------------

class TestSwitch:
    def test_env_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
        assert enabled() is True
        for off in ("0", "false", "NO", "off"):
            monkeypatch.setenv("REPRO_VECTORIZE", off)
            assert enabled() is False
        monkeypatch.setenv("REPRO_VECTORIZE", "1")
        assert enabled() is True

    def test_explicit_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        assert enabled(True) is True
        monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
        assert enabled(False) is False

    def test_env_flag_forces_scalar_run(self, monkeypatch):
        """REPRO_VECTORIZE=0 changes the executed path, not the result."""
        src = stencil1d_source(64, 2)
        cp = compile_program(src, Options(nprocs=2, mode=Mode.INTER))
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        r_off = cp.run()
        monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
        r_on = cp.run()
        assert np.array_equal(r_on.gathered("x"), r_off.gathered("x"))
        assert r_on.stats.proc_times == r_off.stats.proc_times
