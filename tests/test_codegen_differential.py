"""Differential suite for generated node programs (repro.codegen).

The generated path must be an *invisible* perf optimization: per-rank
arrays, virtual clocks, delivery statistics, and printed output are
bit-identical to the scalar closure-tree interpreter on every scheduler
backend, under fault injection, with and without vectorization — and
every cache malfunction (poisoned entry, unreadable file, stale
generator version) silently regenerates instead of failing or, worse,
executing the wrong module.
"""

from __future__ import annotations

import os
import re
from collections import Counter

import numpy as np
import pytest

import repro.codegen as codegen
import repro.codegen.emit as emit_mod
import repro.interp.interpreter as interp_mod
import repro.runtime.node as node_mod
from repro.apps import FIG1, FIG4, FIG15, dgefa_pivot_source
from repro.apps.adi import adi_source
from repro.apps.cg import cg_source
from repro.apps.dgefa import dgefa_source, make_dgefa_init
from repro.apps.stencil import stencil1d_source, stencil2d_source
from repro.apps.wave import wave_source
from repro.codegen import (
    CodegenError,
    GEN_COUNTS,
    get_generated,
    reset_memory,
    unit_keys,
)
from repro.codegen.cache import (
    GEN_VERSION,
    cas,
    entry_header,
    entry_path,
    entry_stem,
)
from repro.core.driver import CompileError, compile_program
from repro.core.options import Mode, Options
from repro.lang import ast as A
from repro.lang import parse
from repro.machine import SCHEDULERS, FaultPlan
from repro.obs import Tracer
from repro.runtime.node import run_spmd

STAT_FIELDS = (
    "messages", "bytes", "collectives", "collective_bytes",
    "remaps", "remap_bytes", "guards",
)

CASES = [
    ("stencil1d", stencil1d_source(128, 4), None),
    ("stencil2d", stencil2d_source(24, 2), None),
    ("adi", adi_source(32, 2), None),
    ("cg", cg_source(32, 4), None),
    ("dgefa", dgefa_source(16), make_dgefa_init(16)),
    ("wave", wave_source(64, 4), None),
]
SEEDS = [1, 3]


@pytest.fixture
def codegen_tmp(monkeypatch, tmp_path):
    """Isolate the disk cache and the in-process memo per test."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    reset_memory()
    yield tmp_path
    reset_memory()


def _chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, delay_prob=0.5, delay_max_us=80.0,
                     drop_prob=0.1, retry_timeout_us=50.0)


def _run(cp, init, scheduler, **kw):
    extra = {"init_fn": init} if init is not None else {}
    return cp.run(timeout_s=30.0, scheduler=scheduler, **extra, **kw)


def _tracer() -> Tracer:
    return Tracer(sample=False)


def _engine_events(res) -> list[list[dict]]:
    """Each rank's ordered stream of the comm-schedule cache probes,
    the engine event both engines emit (the machine's ``net.*`` /
    ``sched.*`` events are engine-blind; ``interp.vec`` blocks run only
    in generated code)."""
    return [
        [ev for ev in evs if ev["kind"] == "interp.cache"]
        for evs in res.trace.rank_events
    ]


def _origins(res) -> list[Counter]:
    """Each rank's multiset of ``(kind, origin)`` over its message and
    collective events: the provenance both engines attach."""
    return [
        Counter((ev["kind"], ev["origin"]) for ev in evs
                if ev["kind"].startswith("net.") or ev["kind"] == "coll")
        for evs in res.trace.rank_events
    ]


def _assert_identical(a, b, label, traced=False):
    """Clocks, stats, arrays and prints; with *traced* (both runs carry
    a tracer) also the cache-probe streams, dict for dict, and each
    rank's message and collective provenance."""
    if traced:
        assert _engine_events(a) == _engine_events(b), label
        assert _origins(a) == _origins(b), label
    assert a.stats.proc_times == b.stats.proc_times, label
    for f in STAT_FIELDS:
        assert getattr(a.stats, f) == getattr(b.stats, f), (label, f)
    for name in a.frames[0].arrays:
        for rk, (fa, fb) in enumerate(zip(a.frames, b.frames)):
            assert np.array_equal(
                fa.arrays[name].data, fb.arrays[name].data,
                equal_nan=True,
            ), f"{label}: array {name} differs on rank {rk}"
    assert sorted(a.prints) == sorted(b.prints), label


# ---------------------------------------------------------------------------
# bit-identity: generated vs interpreter, all backends, under faults
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "src,init", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_apps_bit_identical_generated_vs_interpreter(src, init, seed):
    cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
    plan = _chaos_plan(seed)
    traced = seed == SEEDS[0]

    def run(sched, codegen):
        trace = {"trace": _tracer()} if traced else {}
        return _run(cp, init, sched, faults=plan, codegen=codegen, **trace)

    ref = run("event", False)
    for sched in SCHEDULERS:
        _assert_identical(ref, run(sched, True),
                          f"codegen {sched} seed={seed}", traced)


@pytest.mark.parametrize("vectorize", [False, True],
                         ids=["scalar", "vectorized"])
def test_vectorize_axis_bit_identical(vectorize):
    """Generated code matches the scalar interpreter in both switch
    positions: a block charges exactly what its scalar loop would."""
    cp = compile_program(stencil1d_source(128, 4),
                         Options(nprocs=4, mode=Mode.INTER))
    ref = _run(cp, None, "event", codegen=False, trace=_tracer())
    assert not ref.trace.events("interp.vec")  # the oracle is scalar
    for sched in SCHEDULERS:
        gen = _run(cp, None, sched, vectorize=vectorize, codegen=True,
                   trace=_tracer())
        # not vacuous: blocks ran exactly when the switch is on
        assert bool(gen.trace.events("interp.vec")) == vectorize
        _assert_identical(ref, gen, f"vec={vectorize} {sched}", traced=True)


@pytest.mark.parametrize("mode", [Mode.INTER, Mode.RTR],
                         ids=["inter", "rtr"])
def test_modes_bit_identical(mode):
    """RTR's owner-guard + element-message style stresses the emitter's
    guard and comm lowering hardest."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=mode))
    ref = _run(cp, None, "event", codegen=False, trace=_tracer())
    for sched in ("event", "threads"):
        gen = _run(cp, None, sched, codegen=True, trace=_tracer())
        _assert_identical(ref, gen, f"{mode.value} {sched}", traced=True)


def test_engine_rules_have_one_home():
    """Every rule the engines must agree on has exactly one definition:
    the scalar helpers, the call convention and the section write in
    the node runtime (``repro/runtime/node.py``), block legality and
    block sections in ``repro/codegen/vectorize.py`` (only the
    generated engine runs blocks).  The rest of ``repro/codegen`` only
    lowers or re-exports them: no second legality analysis, call
    convention or scalar helper, no comment promising to mirror one,
    and no import of the interpreter the engine is checked against."""
    src_root = os.path.dirname(os.path.dirname(codegen.__file__))
    homes = {
        "scalar_type": "runtime/node.py",
        "fdiv": "runtime/node.py",
        "enter_call": "runtime/node.py",
        "leave_call": "runtime/node.py",
        "write_entry": "runtime/node.py",
        "classify_ref": "codegen/vectorize.py",
        "_axis_offset": "codegen/vectorize.py",
        "_check_expr": "codegen/vectorize.py",
        "_invariant": "codegen/vectorize.py",
        "ax_slice": "codegen/vectorize.py",
        "trace_block": "codegen/vectorize.py",
        "owner_of": "core/codegen.py",
    }
    # retired helper names: no second definition may reappear in codegen
    gone = ("_classify_ref", "_finalize")
    found: dict[str, list[str]] = {name: [] for name in homes}
    for root, _, files in os.walk(src_root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, src_root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert "_call_procedure" not in text, path
            for d in re.findall(r"^\s*def (\w+)", text, re.M):
                if d in found:
                    found[d].append(rel)
            if os.path.dirname(path) == os.path.dirname(codegen.__file__):
                defs = re.findall(r"^\s*def (\w+)", text, re.M)
                assert not set(defs) & set(gone), path
                assert not re.search(r"[Mm]irror of", text), path
                assert not re.search(r"^\s*(?:from|import)\s+(?:repro\.|\.\.)"
                                     r"interp\b", text, re.M), path
    assert found == {name: [home] for name, home in homes.items()}
    # one intrinsic table: the emitter only spells its entries
    from repro.codegen.vectorize import VEC_INTRINSICS

    assert emit_mod._VEC_CALL_SRC.keys() == VEC_INTRINSICS.keys()


def test_no_demotions_on_paper_apps():
    """Every procedure of every paper app lowers (a procedure that does
    not raises ``CodegenError``) and is loaded."""
    for name, src, _ in CASES:
        cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
        gen, _, _ = get_generated(cp.program, 4, True)
        assert set(gen.module.units) == {u.name for u in cp.program.units}
        assert all(gen.module.units.values()), name


# ---------------------------------------------------------------------------
# caching: memory, disk, poisoning
# ---------------------------------------------------------------------------


def test_warm_run_skips_generation(codegen_tmp, monkeypatch):
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    # compile_program itself resolves; start from a clean slate
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(codegen_tmp / "fresh"))
    reset_memory()
    gen, hits, misses = get_generated(cp.program, 4, True)
    assert (hits, misses) == (0, 1)
    assert GEN_COUNTS["generated"] == 1
    emitted, texts = GEN_COUNTS["units_emitted"], GEN_COUNTS["texts_compiled"]
    # in-process unit memo: nothing emitted or compiled again, and every
    # procedure is the function object the first resolution loaded
    gen2, hits2, misses2 = get_generated(cp.program, 4, True)
    assert (hits2, misses2) == (1, 0)
    assert GEN_COUNTS["generated"] == 1  # unchanged
    assert GEN_COUNTS["units_emitted"] == emitted
    assert GEN_COUNTS["texts_compiled"] == texts
    units, units2 = gen.module.units, gen2.module.units
    assert units2.keys() == units.keys()
    assert all(units2[u] is fn for u, fn in units.items())
    # disk (fresh process simulated by dropping the memo)
    reset_memory()
    _, hits3, misses3 = get_generated(cp.program, 4, True)
    assert (hits3, misses3) == (1, 0)
    assert GEN_COUNTS["generated"] == 0
    assert GEN_COUNTS["disk"] == 1


def test_run_surfaces_codegen_counters(codegen_tmp):
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    res = _run(cp, None, "event", codegen=True)
    s = res.stats
    assert s.codegen_cache_hits + s.codegen_cache_misses == 1
    d = s.as_dict()
    for key in ("codegen_cache_hits", "codegen_cache_misses"):
        assert key in d
    # a run's stats are a function of the run alone
    assert not any(k.startswith("compile_cache") for k in d)
    assert "codegen=" in s.sched_summary()
    # second run: the module comes from cache
    res2 = _run(cp, None, "event", codegen=True)
    assert res2.stats.codegen_cache_hits == 1
    assert res2.stats.codegen_cache_misses == 0
    # the interpreter-only path records nothing
    res3 = _run(cp, None, "event", codegen=False)
    assert res3.stats.codegen_cache_hits == 0
    assert res3.stats.codegen_cache_misses == 0


def _unit_entry_for(program, unit=None, nprocs=4, vectorize=True):
    """Path of the disk entry of procedure *unit* (default: the main
    program) of *program*."""
    key = unit_keys(program, nprocs, vectorize)[unit or program.main.name]
    return entry_path(entry_stem(key, nprocs, vectorize))


def test_poisoned_disk_entry_regenerated(codegen_tmp):
    """A tampered entry (bad header) must be ignored and rewritten."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    gen, _, _ = get_generated(cp.program, 4, True)
    path = _unit_entry_for(cp.program)
    src = open(path).read()
    with open(path, "w") as f:
        f.write("# tampered\n" + src.split("\n", 1)[1])
    reset_memory()
    gen2, hits, misses = get_generated(cp.program, 4, True)
    assert misses >= 1  # the poisoned procedure was regenerated
    assert open(path).read() == src  # and the entry was healed
    ref = _run(cp, None, "event", codegen=False)
    _assert_identical(ref, _run(cp, None, "event", codegen=True),
                      "post-poison")


def test_corrupt_body_regenerated(codegen_tmp):
    """A valid header with an unloadable body (truncation) is a miss."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    get_generated(cp.program, 4, True)
    path = _unit_entry_for(cp.program)
    src = open(path).read()
    with open(path, "w") as f:
        f.write(src[: len(src) // 2] + "\ndef broken(:\n")
    reset_memory()
    _, hits, misses = get_generated(cp.program, 4, True)
    assert misses >= 1
    assert open(path).read() == src


def test_unreadable_entry_regenerated(codegen_tmp):
    """An entry that cannot be opened (here: it is a directory) is
    treated as a miss; generation proceeds and the run still works."""
    import os

    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    reset_memory()  # compile_program may have filled the memo
    path = _unit_entry_for(cp.program)
    if os.path.isfile(path):  # the compile may have written it
        os.unlink(path)
    os.makedirs(path, exist_ok=True)  # open() -> IsADirectoryError
    gen, hits, misses = get_generated(cp.program, 4, True)
    assert misses >= 1  # the unreadable procedure regenerated
    ref = _run(cp, None, "event", codegen=False)
    _assert_identical(ref, _run(cp, None, "event", codegen=True),
                      "unreadable-entry")


def test_one_function_per_unit(codegen_tmp):
    """Each procedure is emitted once — a generator when it may block,
    a plain function otherwise — and there is one UNITS table."""
    import inspect

    for name, src, _ in CASES:
        cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
        gen, _, _ = get_generated(cp.program, 4, True)
        units = {u.name for u in cp.program.units}
        mod = gen.module
        assert "UNITS_Y" not in mod.source, name
        assert "DEMOTED" not in mod.source, name
        assert mod.source.count("\ndef _u_") == len(units), name
        assert set(mod.units) == units
        for unit, fn in mod.units.items():
            assert inspect.isgeneratorfunction(fn) \
                == (unit in mod.blocking), (name, unit)


def test_version_1_disk_entry_ignored_and_regenerated(codegen_tmp):
    """An entry written by the two-variant generator (version 1: every
    blocking unit twice, UNITS_Y / DEMOTED_Y tables) fails the header
    check, so it is never executed; the slot is regenerated."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    reset_memory()
    assert GEN_VERSION != "1"
    path = _unit_entry_for(cp.program)
    stem = path.rsplit("/", 1)[1][:-len(".py")]
    old = entry_header(stem).replace(f" {GEN_VERSION} ", " 1 ", 1) + (
        "\nBLOCKING = frozenset()\nUNITS = {}\nUNITS_Y = {}\n"
        "DEMOTED = {'*': 'stale'}\nDEMOTED_Y = {'*': 'stale'}\n"
    )
    import os

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(old)
    gen, hits, misses = get_generated(cp.program, 4, True)
    assert misses >= 1
    healed = open(path).read()
    assert healed.startswith(entry_header(stem) + "\n")
    assert "UNITS_Y" not in healed
    ref = _run(cp, None, "event", codegen=False)
    _assert_identical(ref, _run(cp, None, "event", codegen=True),
                      "post-v1-entry")


def test_vectorize_keys_are_distinct(codegen_tmp):
    """vec on/off generate under different keys — a stale-entry mixup
    between the two would silently skew charges."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    on = unit_keys(cp.program, 4, True)
    off = unit_keys(cp.program, 4, False)
    assert on.keys() == off.keys()
    assert all(on[u] != off[u] for u in on)
    a, _, _ = get_generated(cp.program, 4, True)
    b, _, _ = get_generated(cp.program, 4, False)
    assert a.vectorize and not b.vectorize


# ---------------------------------------------------------------------------
# the procedure is the emitted unit: exact counts, key, dump
# ---------------------------------------------------------------------------


def _pipeline_source(consts, n=64):
    """main + one relaxation stage per constant (the shape of the
    benchmark's ``pipeline`` programs): editing one constant leaves
    every other procedure untouched."""
    parts = ["program p", f"real x({n}), y({n})",
             "align y(i) with x(i)", "distribute x(block)"]
    parts += [f"call stage{j}(x, y)" for j in range(len(consts))]
    parts.append("end")
    for j, c in enumerate(consts):
        s = 1 + j % 3
        parts += [f"subroutine stage{j}(x, y)", f"real x({n}), y({n})",
                  f"do i = {1 + s}, {n - s}",
                  f"  y(i) = f(x(i - {s})) + f(x(i + {s})) + {c}",
                  "enddo",
                  f"do i = 1, {n}", "  x(i) = y(i) * 0.5", "enddo",
                  "end"]
    return "\n".join(parts) + "\n"


PIPE_CONSTS = [str(0.25 * (j + 1)) for j in range(8)]


def _pipeline(mode, consts=PIPE_CONSTS, nprocs=8):
    return compile_program(_pipeline_source(consts),
                           Options(nprocs=nprocs, mode=mode)).program


@pytest.fixture
def fresh_counts(codegen_tmp, monkeypatch):
    """Compile without codegen, so every count below is the work
    of the ``get_generated`` calls the test makes."""
    monkeypatch.setenv("REPRO_CODEGEN", "0")
    return codegen_tmp


_RANK_GUARD = re.compile(r"^\s*if \((RANK|S\['my\$p'\]) [<>=!]=? \d+\):",
                         re.M)


def _rank_guarded(gen):
    """Procedures whose one text keeps a comparison of the rank with a
    constant as a run-time ``if`` (it holds for some ranks only)."""
    return {u for u, text in gen.module._texts.items()
            if _RANK_GUARD.search(text)}


def _unit_counts():
    return tuple(GEN_COUNTS[k] for k in
                 ("units_emitted", "texts_compiled", "units_reused"))


@pytest.mark.parametrize("mode,guarded", [
    # ownership tests only: no rank-versus-constant guard
    (Mode.RTR, set()),
    # every stage guards its own messages
    (Mode.INTRA, {f"stage{j}" for j in range(8)}),
    # the messages were hoisted into main: only main guards
    (Mode.INTER, {"p"}),
], ids=["rtr", "intra", "inter"])
def test_units_emitted_and_shared_exactly(fresh_counts, mode, guarded):
    """One text per procedure, which every rank shares: a guard that
    holds for some ranks only stays a run-time ``if`` in it."""
    prog = _pipeline(mode)
    gen, hits, misses = get_generated(prog, 8, True)
    assert (hits, misses) == (0, 1)
    assert gen.modules == {"all": (0, 7, gen.module)}
    assert _unit_counts() == (9, 9, 0)
    assert _rank_guarded(gen) == guarded
    assert [GEN_COUNTS[k] for k in ("generated", "disk")] == [1, 0]
    # memo-warm, then disk-warm: the module counters keep their meaning
    assert get_generated(prog, 8, True)[1:] == (1, 0)
    assert [GEN_COUNTS[k] for k in ("generated", "disk")] == [1, 1]
    assert _unit_counts() == (9, 9, 9)
    reset_memory()
    gen2, hits, misses = get_generated(prog, 8, True)
    assert (hits, misses) == (1, 0) and _rank_guarded(gen2) == guarded
    assert [GEN_COUNTS[k] for k in ("generated", "disk")] == [0, 1]
    assert _unit_counts() == (0, 9, 9)


def test_one_text_compiled_per_emitted_procedure(fresh_counts):
    """Every stage of an INTRA pipeline guards its messages by rank; at
    P=4 the edge ranks decide those guards differently from the
    interior ones, and still each procedure is compiled once."""
    get_generated(_pipeline(Mode.INTRA, nprocs=4), 4, True)
    assert GEN_COUNTS["units_emitted"] == 9
    assert GEN_COUNTS["texts_compiled"] == GEN_COUNTS["units_emitted"]


def test_one_procedure_edit_emits_one_procedure(fresh_counts):
    get_generated(_pipeline(Mode.INTER), 8, True)
    before = _unit_counts()
    consts = list(PIPE_CONSTS)
    consts[3] = "9.5"
    edited = _pipeline(Mode.INTER, consts)
    _, hits, misses = get_generated(edited, 8, True)
    assert (hits, misses) == (0, 1)
    assert tuple(b - a for a, b in zip(before, _unit_counts())) == (1, 1, 8)
    # a second edit in a fresh process on the same directory: the
    # eight untouched procedures come from disk
    reset_memory()
    consts[5] = "7.5"
    _, hits, misses = get_generated(_pipeline(Mode.INTER, consts), 8, True)
    assert (hits, misses) == (0, 1)
    assert _unit_counts() == (1, 1 + 8, 8)


def _entry_body(program, unit, nprocs=4, vectorize=True):
    """The stored variants of *unit* without the header line (which
    names the key)."""
    with open(_unit_entry_for(program, unit, nprocs, vectorize)) as fh:
        return fh.read().split("\n", 1)[1]


def test_unit_key_is_pure(fresh_counts):
    """The same compiled stage in two programs (a neighbour's constant
    differs, message tags do not) has one key and one text."""
    consts = list(PIPE_CONSTS)
    consts[3] = "9.5"
    a, b = _pipeline(Mode.INTRA), _pipeline(Mode.INTRA, consts)
    ka, kb = unit_keys(a, 8, True), unit_keys(b, 8, True)
    assert {u for u in ka if ka[u] != kb[u]} == {"stage3"}
    get_generated(a, 8, True)
    body = _entry_body(a, "stage5", 8)
    reset_memory()
    os.unlink(_unit_entry_for(a, "stage5", 8))
    get_generated(b, 8, True)
    assert _entry_body(b, "stage5", 8) == body
    assert _entry_body(b, "stage3", 8) != _entry_body(a, "stage3", 8)


CALLER = ("program p\nreal x(8)\ncall g(x)\nend\n"
          "subroutine g(x)\nreal x(8)\ncall h(x)\nx(2) = k(x)\nend\n"
          "subroutine h(x)\nreal x(8)\nx(1) = 1.0\nend\n"
          "function k(x)\nreal x(8)\nk = 2.0\nend\n")


def test_unit_key_covers_what_the_callees_are(fresh_counts):
    """A caller whose own text is identical in two programs must not
    share a generated function when a callee starts to communicate
    (``rt.call`` would skip the callee's suspension points) or changes
    kind.  (From source, a subroutine referenced as a function never
    reaches the emitter: name resolution refuses it.)"""
    import dataclasses

    plain, comm, kind = parse(CALLER), parse(CALLER), parse(CALLER)
    comm.unit("h").body.append(A.GlobalReduce("s", "sum"))
    kind.units[3] = dataclasses.replace(kind.unit("k"), kind="subroutine")
    for prog in (comm, kind):
        assert repr(prog.unit("g")) == repr(plain.unit("g"))
    keys = [unit_keys(prog, 4, True)["g"] for prog in (plain, comm, kind)]
    assert len(set(keys)) == 3
    for prog in (plain, comm, kind):
        get_generated(prog, 4, True)
    assert "rt.call('h'" in _entry_body(plain, "g")
    assert "yield from rt.call_y('h'" in _entry_body(comm, "g")
    with pytest.raises(CompileError, match="g: subroutine 'k' used as a "
                                           "function"):
        parse(CALLER.replace("function k", "subroutine k"))


def test_unit_key_covers_vectorize_and_nprocs(fresh_counts):
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    main = cp.program.main.name
    keys, loops, guards = set(), {}, {}
    for nprocs, vec in ((4, True), (4, False), (1, True)):
        gen, _, _ = get_generated(cp.program, nprocs, vec)
        # at P=1 every rank-versus-constant guard is decided
        assert (main in _rank_guarded(gen)) == (nprocs > 1)
        keys.add(unit_keys(cp.program, nprocs, vec)[main])
        loops[nprocs, vec] = _entry_body(cp.program, "smooth", nprocs, vec)
        guards[nprocs, vec] = _entry_body(cp.program, main, nprocs, vec)
    assert len(keys) == 3
    # vectorize changes the loops, nprocs which guards fold
    assert loops[4, True] != loops[4, False]
    assert guards[4, True] != guards[1, True]


DUMP_APPS = CASES + [
    ("dgefa_pivot", dgefa_pivot_source(16), None),
    ("fig1", FIG1, None), ("fig4", FIG4, None), ("fig15", FIG15, None),
]


@pytest.mark.parametrize(
    "src", [c[1] for c in DUMP_APPS], ids=[c[0] for c in DUMP_APPS]
)
def test_dump_is_what_runs(codegen_tmp, src):
    """The assembled module is no longer the thing executed, so it must
    compile to the same code as the functions that are."""
    for mode in (Mode.RTR, Mode.INTRA, Mode.INTER):
        cp = compile_program(src, Options(nprocs=4, mode=mode))
        mod = get_generated(cp.program, 4, True)[0].module
        ns: dict = {}
        exec(compile(mod.source, "<dump>", "exec"), ns)
        assert set(ns["UNITS"]) == set(mod.units)
        assert ns["BLOCKING"] == mod.blocking
        for unit, fn in mod.units.items():
            dumped = ns["UNITS"][unit].__code__
            assert dumped.co_code == fn.__code__.co_code, (mode, unit)
            assert dumped.co_consts == fn.__code__.co_consts


def test_blocking_closure_computed_once_per_run(codegen_tmp, monkeypatch):
    """``run_spmd`` reuses the set generation was decided by: the whole
    program is walked once per run (per rank it would be 4 per run
    here), on either engine."""
    calls = []
    real = node_mod.find_blocking_units

    def counting(program, facts=None):
        calls.append(program)
        return real(program, facts)

    monkeypatch.setattr(node_mod, "find_blocking_units", counting)
    monkeypatch.setattr(codegen, "find_blocking_units", counting)
    monkeypatch.setenv("REPRO_CODEGEN", "1")  # the compile resolves
    cp = compile_program(stencil1d_source(80, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    for _ in range(3):
        _run(cp, None, "event", codegen=True)
    assert len(calls) == 1 + 3
    del calls[:]
    for _ in range(3):
        _run(cp, None, "event", codegen=False)
    assert len(calls) == 3


def test_interpreter_built_only_where_needed(codegen_tmp, monkeypatch):
    """A run picks its engine once: across the paper apps, in every
    mode and in the sequential reference, a generated run never
    constructs an ``Interpreter``; an interpreted run builds one per
    rank."""
    built = []

    class Spy(interp_mod.Interpreter):
        def __init__(self, node):
            built.append(node.ctx.rank)
            super().__init__(node)

    monkeypatch.setattr(interp_mod, "Interpreter", Spy)
    # the compile resolves, and the sequential reference runs generated
    monkeypatch.setenv("REPRO_CODEGEN", "1")
    for name, src, init in DUMP_APPS:
        for mode in (Mode.RTR, Mode.INTRA, Mode.INTER):
            cp = compile_program(src, Options(nprocs=4, mode=mode))
            _run(cp, init, "event", codegen=True)
        node_mod.run_sequential(parse(src), init or node_mod.default_init)
        assert built == [], name
    _run(cp, init, "event", codegen=False)
    assert sorted(built) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# a compile resolves the texts, a run loads them
# ---------------------------------------------------------------------------


def test_compile_resolves_and_the_run_loads(codegen_tmp, monkeypatch):
    """A cold compile emits every procedure and ``compile()``s none; the
    first run loads each procedure once, a second run loads nothing,
    and both runs match the interpreter bit for bit."""
    monkeypatch.setenv("REPRO_CODEGEN", "1")
    init = make_dgefa_init(16)
    cp = compile_program(dgefa_source(16),
                         Options(nprocs=4, mode=Mode.INTER))
    n = len(cp.program.units)
    assert (GEN_COUNTS["units_emitted"], GEN_COUNTS["texts_compiled"]) \
        == (n, 0)
    first = _run(cp, init, "event", codegen=True)
    assert (GEN_COUNTS["units_emitted"], GEN_COUNTS["texts_compiled"]) \
        == (n, n)
    assert first.stats.codegen_cache_hits == 1
    second = _run(cp, init, "event", codegen=True)
    assert GEN_COUNTS["texts_compiled"] == n
    ref = _run(cp, init, "event", codegen=False)
    _assert_identical(ref, first, "first run")
    _assert_identical(ref, second, "second run")


def test_codegen_dump_compiles_nothing(codegen_tmp, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CODEGEN", "1")
    f = codegen_tmp / "prog.fd"
    f.write_text(stencil1d_source(64, 2))
    assert main([str(f), "--no-text", "--codegen-dump", "-"]) == 0
    assert "def _u_" in capsys.readouterr().out
    assert GEN_COUNTS["units_emitted"] > 0
    assert GEN_COUNTS["texts_compiled"] == 0


def test_poisoned_body_resolved_at_compile_heals_at_load(codegen_tmp,
                                                         monkeypatch):
    """A header-valid entry whose body does not compile passes the
    compile's resolve; the run's load discards it, emits the procedure
    again and rewrites the entry."""
    monkeypatch.setenv("REPRO_CODEGEN", "1")
    src, opts = stencil1d_source(64, 2), Options(nprocs=4, mode=Mode.INTER)
    cp = compile_program(src, opts)
    path = _unit_entry_for(cp.program)
    good = open(path).read()
    with open(path, "w") as f:
        f.write(good.split("\n", 1)[0] + "\ndef broken(:\n#@ end\n")
    reset_memory()
    corrupt = cas().stats()["corrupt"]
    cp = compile_program(src, opts)
    assert GEN_COUNTS["units_emitted"] == GEN_COUNTS["texts_compiled"] == 0
    assert cas().stats()["corrupt"] == corrupt
    res = _run(cp, None, "event", codegen=True)
    assert (res.stats.codegen_cache_hits,
            res.stats.codegen_cache_misses) == (0, 1)
    assert GEN_COUNTS["units_emitted"] == 1
    assert cas().stats()["corrupt"] == corrupt + 1
    assert open(path).read() == good
    _assert_identical(_run(cp, None, "event", codegen=False), res,
                      "healed at load")


def _uncompilable_main(monkeypatch):
    """Make the emitter print a text for the main program that does not
    compile (an emitter bug)."""
    real = codegen.emit_unit

    def emit(unit, *args):
        text = real(unit, *args)
        return "def broken(:\n" if unit.kind == "program" else text

    monkeypatch.setattr(codegen, "emit_unit", emit)
    monkeypatch.setenv("REPRO_CODEGEN", "1")


def test_uncompilable_text_fails_the_run(codegen_tmp, monkeypatch):
    """An emitted text that does not compile is an internal error that
    names the procedure: the run fails, and no interpreter runs in its
    place (``--verify`` would pass on the oracle's answer)."""
    _uncompilable_main(monkeypatch)
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    emitted = GEN_COUNTS["units_emitted"]
    assert GEN_COUNTS["texts_compiled"] == 0
    main = cp.program.main.name
    with pytest.raises(CodegenError, match=rf"^{main}: internal: generated "
                                           r"text does not compile: "
                                           r"SyntaxError"):
        _run(cp, None, "event", codegen=True)
    # this process emitted the text: an emitter bug, not a poisoned
    # entry, so nothing is discarded or emitted again
    assert GEN_COUNTS["units_emitted"] == emitted
    assert cas().stats()["corrupt"] == 0


CLONE_AND_LOOKALIKE = """program p
real a(32), b(32)
distribute a(block)
distribute b(cyclic)
call h(a)
call h(b)
call h_1(a)
end
subroutine h(x)
real x(32)
do i = 1, 32
  x(i) = x(i) + 1.0
enddo
end
subroutine h_1(x)
real x(32)
do i = 1, 32
  x(i) = x(i) * 2.0
enddo
end
"""


def test_lookalike_procedure_names_stay_distinct(codegen_tmp):
    """The clone ``h$1`` and the user's ``h_1`` sanitise to one Python
    identifier; each must still get its own function."""
    cp = compile_program(CLONE_AND_LOOKALIKE, Options(nprocs=4))
    names = {u.name for u in cp.program.units}
    assert {"h$1", "h_1"} <= names
    gen, _, _ = get_generated(cp.program, 4, True)
    ns: dict = {}
    exec(compile(gen.module.source, "<dump>", "exec"), ns)
    assert set(ns["UNITS"]) == names
    assert len(set(ns["UNITS"].values())) == len(names)
    _assert_identical(_run(cp, None, "event", codegen=False),
                      _run(cp, None, "event", codegen=True),
                      "lookalike names")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_codegen_flags(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cache"))
    reset_memory()
    f = tmp_path / "prog.fd"
    f.write_text(stencil1d_source(64, 2))
    rc = main([str(f), "--run", "--no-text", "--report", "--codegen"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "codegen=" in out and "compile-cache=" not in out
    rc = main([str(f), "--run", "--no-text", "--no-codegen"])
    assert rc == 0
    dump = tmp_path / "gen.py"
    rc = main([str(f), "--no-text", "--codegen-dump", str(dump)])
    assert rc == 0
    text = dump.read_text()
    assert "every rank 0..3 of 4" in text and "UNITS" in text
    compile(text, str(dump), "exec")  # dump is well-formed python
    reset_memory()
