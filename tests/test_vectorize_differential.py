"""Differential tests: generated numpy blocks vs scalar execution, bit
for bit.

The fast path's contract is not "numerically close" — every array
element, every virtual clock, and every statistic must be *identical*
whether a loop nest executed as numpy slice assignments or as one
statement per element.  The scalar interpreter is the oracle: the
generated node program, emitted with and without blocks, must match it
on the full application suite (all modes the apps compile under) and on
randomly generated affine loop programs, including programs whose loops
:class:`~repro.codegen.vectorize.LoopPlan` must reject or fall back from
at run time, and 2-deep nests that may or may not run as outer-loop
blocks.
"""

from __future__ import annotations

import re

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
from repro.codegen import get_generated
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.interp import run_spmd
from repro.interp.vectorize import enabled
from repro.lang import ast as A
from repro.lang import parse
from repro.obs import Tracer

#: the stats that must match exactly between the two execution paths
STAT_FIELDS = (
    "messages", "bytes", "collectives", "collective_bytes",
    "remaps", "remap_bytes", "guards",
)


def assert_bit_identical(cp, init_fn=None, timeout_s=30.0, traced=False):
    """Run *cp* on the scalar interpreter and as generated code in both
    vectorize positions; require identical arrays, scalars, prints and
    stats.  With *traced*, the generated runs are traced and the blocked
    run's ``interp.vec`` events are returned (the scalar-loop run must
    have none)."""
    kw = {"init_fn": init_fn} if init_fn else {}
    r_sca = cp.run(codegen=False, timeout_s=timeout_s, **kw)
    blocks = None
    for vec in (False, True):
        if traced:
            kw["trace"] = Tracer(sample=False)
        r_gen = cp.run(codegen=True, vectorize=vec, timeout_s=timeout_s,
                       **kw)
        for f in STAT_FIELDS:
            assert getattr(r_gen.stats, f) == getattr(r_sca.stats, f), \
                (vec, f)
        assert r_gen.stats.proc_times == r_sca.stats.proc_times, vec
        assert r_gen.stats.proc_work == r_sca.stats.proc_work, vec
        assert sorted(r_gen.prints) == sorted(r_sca.prints), vec
        for rk, (fg, fs) in enumerate(zip(r_gen.frames, r_sca.frames)):
            assert fg.scalars == fs.scalars, f"vec={vec}: rank {rk}"
        for name in r_sca.frames[0].arrays:
            for rk, (fg, fs) in enumerate(zip(r_gen.frames, r_sca.frames)):
                assert np.array_equal(
                    fg.arrays[name].data, fs.arrays[name].data,
                    equal_nan=True,
                ), f"vec={vec}: array {name} differs on rank {rk}"
        if traced:
            blocks = r_gen.trace.events("interp.vec")
            assert vec or not blocks
    return blocks


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


#: statement kinds no app runs, each under a guard that holds for some
#: ranks only, so the generated text keeps it as a run-time ``if``
GUARDED_KINDS = [
    ("do_while", A.DoWhile, """program p
real x(16)
distribute x(block)
do i = 1, 16
  x(i) = i
enddo
k = 0
if (myproc() .lt. 2) then
  do while (k .lt. 3)
    k = k + 1
  enddo
endif
print *, k
end
"""),
    ("return", A.Return, """program p
real x(16)
distribute x(block)
k = 1
call bump(k)
print *, k
end
subroutine bump(k)
if (myproc() .gt. 0) then
  return
endif
k = k + 10
end
"""),
    ("stop", A.Stop, """program p
real x(16)
distribute x(block)
k = 1
if (myproc() .eq. 3) then
  stop
endif
k = 2
print *, k
end
"""),
    # a DIMENSION declaration, written only where the guard passes
    ("dimension", A.Do, """program p
real x(16)
dimension w(8)
distribute x(block)
do i = 1, 8
  w(i) = 0.0
enddo
if (myproc() .ne. 1) then
  do i = 1, 8
    w(i) = i * 0.5
  enddo
endif
print *, w(3)
end
"""),
    # two arrays shifted alike: the compiler packs both strips into one
    # message per neighbour pair, sent under ``my$p < 3``
    ("pack", A.SendPack, """program p
real u(64), v(64), w(64)
align v(i) with u(i)
align w(i) with u(i)
distribute u(block)
do i = 1, 64
  u(i) = i * 1.0
  v(i) = 65.0 - i
enddo
do i = 1, 63
  w(i) = u(i + 1) + v(i + 1)
enddo
end
"""),
]


@pytest.mark.parametrize("mode", [Mode.INTER, Mode.INTRA],
                         ids=["inter", "intra"])
@pytest.mark.parametrize("kind,src", [c[1:] for c in GUARDED_KINDS],
                         ids=[c[0] for c in GUARDED_KINDS])
def test_guarded_statement_kinds_bit_identical(kind, src, mode):
    cp = compile_program(src, Options(nprocs=4, mode=mode))
    assert any(isinstance(s, kind) for u in cp.program.units
               for s in A.walk_stmts(u.body))
    gen = get_generated(cp.program, 4, True)[0]
    assert re.search(r"^ +if \((RANK|S\['my\$p'\]) [!<=>]", gen.dump(),
                     re.M)
    assert_bit_identical(cp)


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
#: the planner deadlocks (identically on every execution path; verified
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
#: blocks' runtime fallback (invariant read inside the written range,
#: unequal write offsets, invariant write targets).
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
    # the uncompiled source (the sequential reference's shape) and the
    # compiled P=1 node program, each generated with and without blocks
    # against the scalar interpreter
    prog = parse(src)
    f_sca = run_spmd(prog, 1, codegen=False).frames[0]
    cp = compile_program(src, Options(nprocs=1))
    r_sca = cp.run(codegen=False, timeout_s=5.0)
    for vec in (False, True):
        f_gen = run_spmd(prog, 1, codegen=True, vectorize=vec).frames[0]
        for name in f_sca.arrays:
            assert np.array_equal(
                f_gen.arrays[name].data, f_sca.arrays[name].data,
                equal_nan=True,
            ), f"vec={vec}: array {name} differs"
        r_gen = cp.run(codegen=True, vectorize=vec, timeout_s=5.0,
                       trace=Tracer(sample=False))
        assert r_gen.stats.proc_times == r_sca.stats.proc_times, vec
        for name, arr in r_sca.frames[0].arrays.items():
            assert np.array_equal(
                r_gen.frames[0].arrays[name].data, arr.data, equal_nan=True
            ), f"generated vec={vec}: array {name} differs"
        # a block ran only where the emitter was allowed to emit one
        if not vec:
            assert not r_gen.trace.events("interp.vec")


# -- generated 2-deep nests (outer-loop blocks) ---------------------------

M = 16          # extent of each axis of the nest programs' arrays

#: outer-axis subscripts: aligned, shifted (outer-carried when written),
#: a symbolic shift (decided at run time), an inner-variable offset
#: (static reject), invariant rows inside / outside the written range
#: and a row that moves with the inner variable (static reject)
_outer_subs = st.sampled_from(
    ["i", "i", "i - 1", "i + 1", "i - k", "i + (j - 8)", "6", "2", "j"]
)
_other_subs = st.sampled_from(["j", "j - 1", "j + 1", "5", "k"])
#: the outer loop: long, reversed, too short for a block, strided
_outer_ranges = st.sampled_from(["4, 12", "12, 4, -1", "4, 6", "4, 12, 2"])
#: the inner loop: forward, reversed, strided, empty, and bounded by
#: the outer variable (static reject)
_inner_ranges = st.sampled_from(
    ["5, 12", "5, 12", "12, 5, -1", "5, 12, 2", "9, 8", "5, i"]
)


@st.composite
def nest_programs(draw):
    swap = draw(st.booleans())  # the outer variable on axis 1 (colsweep)

    def spell(arr, outer, other):
        return f"{arr}({other}, {outer})" if swap else \
            f"{arr}({outer}, {other})"

    ref = st.tuples(st.sampled_from(("a", "b", "c")), _outer_subs,
                    _other_subs).map(lambda t: spell(*t))
    stmts = draw(st.lists(
        st.tuples(st.sampled_from(("a", "b")), _outer_subs, _other_subs,
                  _expr_strategy(st.one_of(ref, st.just("j")))),
        min_size=1, max_size=3,
    ))
    body = "\n".join(f"      {spell(arr, o, x)} = {e}"
                     for arr, o, x, e in stmts)
    return f"""
program h
real a({M},{M}), b({M},{M}), c({M},{M})
integer k
k = 1
do t = 1, {draw(st.integers(1, 2))}
  do i = {draw(_outer_ranges)}
    do j = {draw(_inner_ranges)}
{body}
    enddo
  enddo
enddo
end
"""


def _nest_blocks(src):
    """The nest program at P=1, checked by :func:`assert_bit_identical`;
    returns the blocked run's blocks."""
    cp = compile_program(src, Options(nprocs=1))
    return assert_bit_identical(cp, timeout_s=5.0, traced=True)


@given(nest_programs())
@settings(deadline=None,
          derandomize=settings.get_current_profile_name() != "sweep",
          suppress_health_check=[HealthCheck.too_slow])
def test_random_nests_bit_identical(src):
    _nest_blocks(src)


def _nest(stmt, outer="4, 12", inner="5, 12"):
    return f"""
program h
real a({M},{M}), b({M},{M})
integer k
k = 1
do i = {outer}
  do j = {inner}
    {stmt}
  enddo
enddo
end
"""


@pytest.mark.parametrize("src,loops", [
    # ADI's two sweeps: the inner loop carries, the outer does not
    (_nest("a(i, j) = a(i, j) + 0.5 * a(i, j - 1)"), {"i"}),
    (_nest("a(j, i) = a(j, i) + 0.5 * a(j - 1, i)"), {"i"}),
    (_nest("a(i, j) = a(i, j) + 0.5 * a(i, j - 1)", "12, 4, -1",
           "12, 5, -1"), {"i"}),
    # an invariant read outside the written rows
    (_nest("a(i, j) = a(i, j - 1) + a(2, j)"), {"i"}),
    # an inner loop that blocks keeps its own blocks
    (_nest("a(i, j) = a(i - 1, j) + 1.0"), {"j"}),
    # both loops carry: no block is emitted
    (_nest("a(i, j) = a(i - 1, j - 1) + 1.0"), set()),
    # ... or the outer one carries by a shift known only at run time
    (_nest("a(i, j) = a(i - k, j - 1) + 1.0"), set()),
    # an invariant read inside the written rows: fall back
    (_nest("a(i, j) = a(i, j - 1) + a(6, j)"), set()),
    # ... or at a row that moves with the inner variable
    (_nest("a(i, j) = a(i, j - 1) + a(j, 5)"), set()),
    # inner bounds that move with the outer variable
    (_nest("a(i, j) = a(i, j - 1) + 1.0", inner="5, i"), set()),
    # an outer-axis offset that moves with the inner variable
    (_nest("a(i + (j - 8), j) = a(i + (j - 8), j - 1) + 1.0"), set()),
    # too few outer iterations for a block
    (_nest("a(i, j) = a(i, j) + 0.5 * a(i, j - 1)", "4, 6"), set()),
])
def test_nest_shapes(src, loops):
    """Which loop of each nest ran as blocks (the ``var`` of its
    ``interp.vec`` events), bit-identically to the scalar nest."""
    assert {e["var"] for e in _nest_blocks(src)} == loops


def test_adi_sweeps_run_as_outer_blocks():
    """Both ADI sweeps run as outer-loop blocks in the SPMD program; the
    other apps' blocks are the innermost-loop ones they always were."""
    def blocks(src, init=None):
        kw = {"init_fn": init} if init else {}
        cp = compile_program(src, Options(nprocs=4))
        res = cp.run(codegen=True, trace=Tracer(sample=False), **kw)
        return res.trace.events("interp.vec")

    adi = {e["unit"] for e in blocks(adi_source(64, 4))}
    assert adi == {"rowsweep", "colsweep"}
    assert len(blocks(dgefa_source(32), make_dgefa_init(32))) == 518
    assert len(blocks(wave_source(256, 8))) == 68
    assert len(blocks(stencil2d_source(64, 4))) == 1984


def test_block_computes_each_offset_once():
    """A block computes each distinct non-loop-axis offset once per inner
    iteration: ADI's sweeps read ``a(:, j)`` twice and ``a(:, j - 1)``
    once, so each sweep's inner loop makes two ``_offset`` calls, not
    three, and still runs bit-identical to the scalar interpreter."""
    cp = compile_program(adi_source(32, 2), Options(nprocs=4))
    gen, _, _ = get_generated(cp.program, 4, True)
    sweeps = [text for text in gen.dump().split("\ndef ")
              if text.startswith(("_u_rowsweep(", "_u_colsweep("))]
    assert len(sweeps) == 2 * len(gen.modules)
    for text in sweeps:
        body = [line.strip() for line in text.splitlines()
                if "_offset(" in line and "ax_slice" not in line]
        assert len(body) == 2 and len(set(body)) == 2, body
        assert all(line.startswith("_t") for line in body), body
    assert_bit_identical(cp)


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
        for cg, vec in ((False, None), (True, False), (True, True))
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
        """REPRO_VECTORIZE=0 changes the emitted loops, not the result."""
        src = stencil1d_source(64, 2)
        cp = compile_program(src, Options(nprocs=2, mode=Mode.INTER))
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        r_off = cp.run(codegen=True, trace=True)
        monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
        r_on = cp.run(codegen=True, trace=True)
        assert not r_off.trace.events("interp.vec")
        assert r_on.trace.events("interp.vec")
        assert np.array_equal(r_on.gathered("x"), r_off.gathered("x"))
        assert r_on.stats.proc_times == r_off.stats.proc_times
