"""Property-based end-to-end tests: randomly generated Fortran D
programs are compiled in every mode and executed; the distributed
results must equal sequential execution bit-for-bit.

This fuzzes the whole pipeline — parser, reaching decompositions,
partitioning, dependence analysis, communication generation, run-time
resolution fallback, the machine, and the interpreter — against the
one oracle that matters (sequential semantics).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DynOpt, Mode, Options, compile_program
from repro.interp import run_sequential
from repro.lang import parse
from repro.machine import FREE
from tests.test_vectorize_differential import assert_bit_identical

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_all_modes(src, arr, P, modes=(Mode.INTER, Mode.INTRA, Mode.RTR)):
    seq = run_sequential(parse(src)).arrays[arr].data
    for mode in modes:
        cp = compile_program(src, Options(nprocs=P, mode=mode))
        res = cp.run(cost=FREE, timeout_s=60)
        got = res.gathered(arr)
        assert np.allclose(got, seq), (
            f"{mode} mismatch\nsource:\n{src}\n"
            f"first diffs at {np.argwhere(~np.isclose(got, seq))[:5]}"
        )


@st.composite
def shift_program(draw):
    """dst(i) = f(src(i+delta)) through a procedure, random layout."""
    n = draw(st.integers(min_value=12, max_value=60))
    P = draw(st.integers(min_value=2, max_value=4))
    dist = draw(st.sampled_from(["block", "cyclic"]))
    # shifts that communicate first; the local ones (0, and a multiple
    # of P under cyclic) stay reachable
    shifts = [1, -1, 2, -2, 3, -3, 4, -4]
    local = [0] + [d for d in shifts if dist == "cyclic" and d % P == 0]
    delta = draw(st.sampled_from(
        [d for d in shifts if d not in local] + local))
    same_array = draw(st.booleans())
    via_call = draw(st.booleans())
    lo = max(1, 1 - delta)
    hi = min(n, n - delta)
    if lo >= hi:
        lo, hi = 1, n
        delta = 0
    loop = f"do i = {lo}, {hi}\n{{body}}\nenddo"
    if same_array:
        body = f"x(i) = f(x(i + {delta}))" if delta >= 0 else \
            f"x(i) = f(x(i - {-delta}))"
        decls = f"real x({n})"
        align = ""
        args, formals, fdecls = "x", "x", f"real x({n})"
    else:
        body = f"y(i) = f(x(i + {delta}))" if delta >= 0 else \
            f"y(i) = f(x(i - {-delta}))"
        decls = f"real x({n}), y({n})"
        align = "align y(i) with x(i)\n"
        args, formals, fdecls = "x, y", "x, y", f"real x({n}), y({n})"
    kernel = loop.format(body=body)
    if via_call:
        src = (
            f"program p\n{decls}\n{align}distribute x({dist})\n"
            f"call work({args})\nend\n"
            f"subroutine work({formals})\n{fdecls}\n{kernel}\nend\n"
        )
    else:
        src = (
            f"program p\n{decls}\n{align}distribute x({dist})\n"
            f"{kernel}\nend\n"
        )
    arr = "x" if same_array else "y"
    return src, arr, P


@given(shift_program())
@settings(**SETTINGS)
def test_random_shift_programs_all_modes(case):
    src, arr, P = case
    run_all_modes(src, arr, P)


@st.composite
def two_phase_program(draw):
    """Random redistribution between two full-rewrite phases."""
    n = draw(st.integers(min_value=8, max_value=40))
    P = draw(st.integers(min_value=2, max_value=4))
    d1 = draw(st.sampled_from(["block", "cyclic"]))
    # mostly a real redistribution; keeping the layout stays reachable
    other = "cyclic" if d1 == "block" else "block"
    d2 = draw(st.sampled_from([other, other, other, d1]))
    scale1 = draw(st.integers(min_value=1, max_value=5))
    steps = draw(st.integers(min_value=1, max_value=3))
    src = (
        f"program p\nreal x({n})\nparameter (t = {steps})\n"
        f"distribute x({d1})\n"
        f"do k = 1, t\n"
        f"call ph1(x)\ncall ph2(x)\n"
        f"enddo\nend\n"
        f"subroutine ph1(x)\nreal x({n})\n"
        f"do i = 1, {n}\nx(i) = x(i) + {scale1}.0\nenddo\nend\n"
        f"subroutine ph2(x)\nreal x({n})\ndistribute x({d2})\n"
        f"do i = 1, {n}\nx(i) = x(i) * 0.5\nenddo\nend\n"
    )
    return src, P


@given(two_phase_program(),
       st.sampled_from([DynOpt.NONE, DynOpt.LIVE, DynOpt.KILLS]))
@settings(**SETTINGS)
def test_random_redistribution_programs(case, dynopt):
    src, P = case
    seq = run_sequential(parse(src)).arrays["x"].data
    cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER,
                                      dynopt=dynopt))
    res = cp.run(cost=FREE, timeout_s=60)
    assert np.allclose(res.gathered("x"), seq), src


@st.composite
def twod_program(draw):
    """2-D row- or column-distributed kernel through a call chain."""
    n = draw(st.integers(min_value=8, max_value=24))
    P = draw(st.integers(min_value=2, max_value=4))
    rowwise = draw(st.booleans())
    delta = draw(st.integers(min_value=1, max_value=3))
    dist = "block, :" if rowwise else ":, block"
    if rowwise:
        kernel = (
            f"do j = 1, {n}\ndo i = 1, {n - delta}\n"
            f"b(i, j) = f(a(i + {delta}, j))\nenddo\nenddo"
        )
    else:
        kernel = (
            f"do j = 1, {n - delta}\ndo i = 1, {n}\n"
            f"b(i, j) = f(a(i, j + {delta}))\nenddo\nenddo"
        )
    src = (
        f"program p\nreal a({n},{n}), b({n},{n})\n"
        f"align b(i, j) with a(i, j)\n"
        f"distribute a({dist})\n"
        f"call work(a, b)\nend\n"
        f"subroutine work(a, b)\nreal a({n},{n}), b({n},{n})\n"
        f"{kernel}\nend\n"
    )
    return src, P


@given(twod_program())
@settings(**SETTINGS)
def test_random_2d_programs(case):
    src, P = case
    run_all_modes(src, "b", P, modes=(Mode.INTER, Mode.INTRA))


@given(
    n=st.integers(min_value=10, max_value=50),
    P=st.integers(min_value=2, max_value=6),
    dist=st.sampled_from(["block", "cyclic", "block_cyclic(3)"]),
)
@settings(**SETTINGS)
def test_random_local_updates_never_communicate(n, P, dist):
    """A purely local update (identity subscripts) must produce zero
    messages under INTER for any distribution kind."""
    src = (
        f"program p\nreal x({n})\ndistribute x({dist})\n"
        f"do i = 1, {n}\nx(i) = x(i) * 2.0 + 1.0\nenddo\nend\n"
    )
    seq = run_sequential(parse(src)).arrays["x"].data
    cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER))
    res = cp.run(cost=FREE, timeout_s=60)
    assert np.allclose(res.gathered("x"), seq)
    assert res.stats.messages == 0
    assert res.stats.collectives == 0


@st.composite
def common_program(draw):
    """Random pipeline over a COMMON global: init phase, k work phases
    with random shifts, all communicating through the global."""
    n = draw(st.integers(min_value=16, max_value=48))
    P = draw(st.integers(min_value=2, max_value=4))
    dist = draw(st.sampled_from(["block", "cyclic"]))
    nphases = draw(st.integers(min_value=1, max_value=3))
    deltas = draw(st.lists(
        st.integers(min_value=0, max_value=3),
        min_size=nphases, max_size=nphases,
    ))
    units = [
        f"program p\nreal g({n})\ncommon /c/ g\ndistribute g({dist})\n"
        f"call init\n"
        + "".join(f"call ph{k}\n" for k in range(nphases))
        + "end\n",
        f"subroutine init\nreal g({n})\ncommon /c/ g\n"
        f"do i = 1, {n}\ng(i) = i * 1.0\nenddo\nend\n",
    ]
    for k, d in enumerate(deltas):
        hi = n - d
        units.append(
            f"subroutine ph{k}\nreal g({n})\ncommon /c/ g\n"
            f"do i = 1, {hi}\ng(i) = f(g(i + {d}))\nenddo\nend\n"
        )
    return "\n".join(units), P


@given(common_program())
@settings(**SETTINGS)
def test_random_common_pipelines(case):
    src, P = case
    run_all_modes(src, "g", P, modes=(Mode.INTER, Mode.RTR))


@st.composite
def reduction_program(draw):
    n = draw(st.integers(min_value=8, max_value=64))
    P = draw(st.integers(min_value=2, max_value=4))
    dist = draw(st.sampled_from(["block", "cyclic"]))
    op = draw(st.sampled_from(["sum", "min", "max"]))
    init = draw(st.floats(min_value=-4, max_value=4,
                          allow_nan=False, allow_infinity=False))
    stmt = {
        "sum": "s = s + x(i) * 0.5",
        "min": "s = min(s, x(i))",
        "max": "s = max(x(i), s)",
    }[op]
    src = (
        f"program p\nreal x({n})\ndistribute x({dist})\n"
        f"do i = 1, {n}\nx(i) = f(i * 1.0)\nenddo\n"
        f"s = {init!r}\n"
        f"do i = 1, {n}\n{stmt}\nenddo\nend\n"
    )
    return src, P


@given(reduction_program())
@settings(**SETTINGS)
def test_random_reductions(case):
    src, P = case
    seq = run_sequential(parse(src))
    cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER))
    res = cp.run(cost=FREE, timeout_s=60)
    import pytest as _pytest

    for fr in res.frames:
        assert fr.scalars["s"] == _pytest.approx(seq.scalars["s"])


@st.composite
def condition_program(draw):
    """Branches whose conditions read distributed elements."""
    n = draw(st.integers(min_value=8, max_value=32))
    P = draw(st.integers(min_value=2, max_value=4))
    dist = draw(st.sampled_from(["block", "cyclic"]))
    c = draw(st.integers(min_value=1, max_value=8))
    c = min(c, n)
    thresh = draw(st.integers(min_value=0, max_value=2 * n))
    src = (
        f"program p\nreal x({n})\ndistribute x({dist})\n"
        f"do i = 1, {n}\nx(i) = i * 2.0\nenddo\n"
        f"hit = 0.0\n"
        f"if (x({c}) > {thresh}.0) then\n"
        f"hit = 1.0\n"
        f"x({min(c + 1, n)}) = x({c}) + 100.0\n"
        f"endif\nend\n"
    )
    return src, P


@given(condition_program())
@settings(**SETTINGS)
def test_random_condition_reads(case):
    src, P = case
    seq = run_sequential(parse(src))
    for mode in (Mode.INTER, Mode.RTR):
        cp = compile_program(src, Options(nprocs=P, mode=mode))
        res = cp.run(cost=FREE, timeout_s=60)
        assert np.allclose(res.gathered("x"), seq.arrays["x"].data), src
        for fr in res.frames:
            assert fr.scalars["hit"] == seq.scalars["hit"], src


#: examples of the engine differential: derandomised in tier-1; fresh
#: seeds under the "sweep" profile (tests/conftest.py), at a count that
#: keeps its share of the CI "Seed sweep" step near 20 s
SWEEP = settings.get_current_profile_name() == "sweep"
ENGINE_EXAMPLES = 1000 if SWEEP else 60


#: examples of the scheduler differential, the same way; its sweep count
#: keeps its share of the CI "Seed sweep" step near 20 s as well
SCHEDULER_EXAMPLES = 1000 if SWEEP else 20

#: ``(source, P)`` of a generated communicating program (local updates
#: stay reachable)
GENERATED = st.one_of(
    shift_program().map(lambda case: (case[0], case[2])),
    two_phase_program(), reduction_program(), condition_program(),
)


@given(GENERATED)
@settings(max_examples=ENGINE_EXAMPLES, deadline=None, derandomize=not SWEEP,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_engines_agree(case):
    """The interpreter and generated code agree on generated
    communicating programs: arrays, scalars, prints, stats and per-rank
    clocks.  RTR puts receives and broadcasts under IF inside DO inside
    callees, where both engines place their yields."""
    src, P = case
    for mode in (Mode.INTER, Mode.RTR):
        cp = compile_program(src, Options(nprocs=P, mode=mode))
        assert_bit_identical(cp)


@given(GENERATED)
@settings(max_examples=SCHEDULER_EXAMPLES, deadline=None,
          derandomize=not SWEEP, suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_schedulers_agree(case):
    """The event loop and the thread oracle agree on generated programs
    run as generated code: arrays, scalars, prints and the statistics a
    backend could perturb (messages, bytes, collectives, per-rank clocks
    and work), bit for bit."""
    src, P = case
    for mode in (Mode.INTER, Mode.RTR):
        cp = compile_program(src, Options(nprocs=P, mode=mode))
        ev, th = (cp.run(codegen=True, scheduler=name, timeout_s=60)
                  for name in ("event", "threads"))
        for f in ("messages", "bytes", "collectives", "proc_times",
                  "proc_work"):
            assert getattr(th.stats, f) == getattr(ev.stats, f), \
                (mode, f, src)
        # ranks append their prints as they finish, in backend order
        assert sorted(th.prints) == sorted(ev.prints), (mode, src)
        for rk, (ft, fe) in enumerate(zip(th.frames, ev.frames)):
            assert ft.scalars == fe.scalars, (mode, rk, src)
            for name, arr in fe.arrays.items():
                assert np.array_equal(ft.arrays[name].data, arr.data,
                                      equal_nan=True), (mode, rk, name, src)
