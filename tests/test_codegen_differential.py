"""Differential suite for generated node programs (repro.codegen).

The generated path must be an *invisible* perf optimization: per-rank
arrays, virtual clocks, delivery statistics, and printed output are
bit-identical to the closure-tree interpreter on every scheduler
backend, under fault injection, with and without vectorization — and
every cache malfunction (poisoned entry, unreadable file, stale
generator version) silently regenerates instead of failing or, worse,
executing the wrong module.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

import repro.codegen as codegen
import repro.codegen.emit as emit_mod
import repro.interp.interpreter as interp_mod
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
    rank_classes,
    reset_memory,
    unit_keys,
)
from repro.codegen.cache import (
    GEN_VERSION,
    entry_header,
    entry_path,
    entry_stem,
)
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.lang import ast as A
from repro.lang import parse
from repro.machine import SCHEDULERS, FaultPlan
from repro.obs import Tracer

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
    """Each rank's ordered stream of the events the *execution engine*
    emits (the machine's ``net.*``/``sched.*`` events are engine-blind):
    which loops ran as blocks, with which trip and operation counts at
    which virtual time, and every comm-schedule cache probe."""
    return [
        [ev for ev in evs if ev["kind"] in ("interp.vec", "interp.cache")]
        for evs in res.trace.rank_events
    ]


def _assert_identical(a, b, label, traced=False):
    """Clocks, stats, arrays and prints; with *traced* (both runs carry
    a tracer) also the engine event streams, dict for dict — batched
    charging makes a block decision invisible to the other four."""
    if traced:
        assert _engine_events(a) == _engine_events(b), label
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
    """The generated vectorizer must make block decisions identical to
    the interpreter's in both switch positions."""
    cp = compile_program(stencil1d_source(128, 4),
                         Options(nprocs=4, mode=Mode.INTER))
    ref = _run(cp, None, "event", vectorize=vectorize, codegen=False,
               trace=_tracer())
    # not vacuous: blocks ran exactly when the switch is on
    assert bool(ref.trace.events("interp.vec")) == vectorize
    for sched in SCHEDULERS:
        gen = _run(cp, None, sched, vectorize=vectorize, codegen=True,
                   trace=_tracer())
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
    """The rules both engines must agree on are defined under
    ``repro/interp`` and only *lowered* or re-exported by
    ``repro/codegen``: no second legality analysis, call convention or
    scalar helper, and no comment promising to mirror one."""
    src_root = os.path.dirname(os.path.dirname(codegen.__file__))
    moved = ("_classify_ref", "_axis_offset", "_check_expr", "_invariant",
             "_finalize", "scalar_type", "fdiv", "owner_of", "ax_slice")
    for root, _, files in os.walk(src_root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert "_call_procedure" not in text, path
            if os.path.dirname(path) == os.path.dirname(codegen.__file__):
                defs = re.findall(r"^\s*def (\w+)", text, re.M)
                assert not set(defs) & set(moved), path
                assert not re.search(r"[Mm]irror of", text), path
    # one intrinsic table: the emitter only spells its entries
    from repro.interp.vectorize import VEC_INTRINSICS

    assert emit_mod._VEC_CALL_SRC.keys() == VEC_INTRINSICS.keys()


def test_no_demotions_on_paper_apps():
    """Every procedure of every paper app must lower; a demotion here
    means the generator regressed."""
    for name, src, _ in CASES:
        cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
        gen, _, _ = get_generated(cp.program, 4, True)
        assert gen.demotions == [], (name, gen.demotions)


# ---------------------------------------------------------------------------
# caching: memory, disk, poisoning
# ---------------------------------------------------------------------------


def test_warm_run_skips_generation(codegen_tmp, monkeypatch):
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    # compile_program may itself prewarm; start from a clean slate
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(codegen_tmp / "fresh"))
    reset_memory()
    gen, hits, misses = get_generated(cp.program, 4, True)
    assert misses == len(gen.modules) and hits == 0
    assert GEN_COUNTS["generated"] == len(gen.modules)
    # in-process memo
    gen2, hits2, misses2 = get_generated(cp.program, 4, True)
    assert gen2 is gen and misses2 == 0 and hits2 == len(gen.modules)
    assert GEN_COUNTS["generated"] == len(gen.modules)  # unchanged
    # disk (fresh process simulated by dropping the memo)
    reset_memory()
    gen3, hits3, misses3 = get_generated(cp.program, 4, True)
    assert misses3 == 0 and hits3 == len(gen3.modules)
    assert GEN_COUNTS["generated"] == 0
    assert GEN_COUNTS["disk"] == len(gen3.modules)


def test_run_surfaces_codegen_counters(codegen_tmp):
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    res = _run(cp, None, "event", codegen=True)
    s = res.stats
    ncls = len(rank_classes(4))
    assert s.codegen_cache_hits + s.codegen_cache_misses == ncls
    assert s.codegen_demotions == 0
    d = s.as_dict()
    for key in ("codegen_cache_hits", "codegen_cache_misses",
                "codegen_demotions", "compile_cache_hits",
                "compile_cache_misses"):
        assert key in d
    assert "codegen=" in s.sched_summary()
    # second run: every module comes from cache
    res2 = _run(cp, None, "event", codegen=True)
    assert res2.stats.codegen_cache_hits == ncls
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
    reset_memory()  # compile_program may have prewarmed the memo
    path = _unit_entry_for(cp.program)
    if os.path.isfile(path):  # prewarm may have written the entry
        os.unlink(path)
    os.makedirs(path, exist_ok=True)  # open() -> IsADirectoryError
    gen, hits, misses = get_generated(cp.program, 4, True)
    assert misses >= 1  # the unreadable procedure regenerated
    ref = _run(cp, None, "event", codegen=False)
    _assert_identical(ref, _run(cp, None, "event", codegen=True),
                      "unreadable-entry")


def test_one_function_per_unit(codegen_tmp):
    """Each procedure is emitted once — a generator when it may block,
    a plain function otherwise — and there is one UNITS / one DEMOTED
    table."""
    import inspect

    for name, src, _ in CASES:
        cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
        gen, _, _ = get_generated(cp.program, 4, True)
        units = {u.name for u in cp.program.units}
        for cls, (_lo, _hi, mod) in gen.modules.items():
            assert "UNITS_Y" not in mod.source, (name, cls)
            assert "DEMOTED_Y" not in mod.source, (name, cls)
            assert mod.source.count("\ndef _u_") == len(units), (name, cls)
            assert set(mod.units) == units and not mod.demoted
            for unit, fn in mod.units.items():
                assert inspect.isgeneratorfunction(fn) \
                    == (unit in mod.blocking), (name, cls, unit)


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
    assert misses >= 1 and gen.demotions == []
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
    a, _, _ = get_generated(cp.program, 4, True)
    b, _, _ = get_generated(cp.program, 4, False)
    assert a.key != b.key
    assert a is not b


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
    """Compile with the memo and the prewarm off, so every count below
    is the work of the ``get_generated`` calls the test makes."""
    monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
    monkeypatch.setenv("REPRO_CODEGEN", "0")
    return codegen_tmp


def _shared(gen):
    """Procedures that are one function object in every rank class."""
    mods = [mod for _, _, mod in gen.modules.values()]
    return {u for u, fn in mods[0].units.items()
            if all(m.units.get(u) is fn for m in mods[1:])}


def _unit_counts():
    return tuple(GEN_COUNTS[k] for k in
                 ("units_emitted", "texts_compiled", "units_reused"))


@pytest.mark.parametrize("mode,texts,shared", [
    # no foldable my$p guard anywhere: one text per procedure
    (Mode.RTR, 9, {"p"} | {f"stage{j}" for j in range(8)}),
    # every stage guards its own messages: three texts each
    (Mode.INTRA, 1 + 3 * 8, {"p"}),
    # the messages were hoisted into main: only main specializes
    (Mode.INTER, 8 + 3, {f"stage{j}" for j in range(8)}),
], ids=["rtr", "intra", "inter"])
def test_units_emitted_and_shared_exactly(fresh_counts, mode, texts,
                                          shared):
    prog = _pipeline(mode)
    gen, hits, misses = get_generated(prog, 8, True)
    assert (hits, misses) == (0, 3) and gen.demotions == []
    assert _unit_counts() == (9, texts, 0)
    assert _shared(gen) == shared
    assert [GEN_COUNTS[k] for k in ("generated", "disk", "memory")] \
        == [3, 0, 0]
    # memo-warm, then disk-warm: the module counters keep their meaning
    assert get_generated(prog, 8, True)[1:] == (3, 0)
    assert GEN_COUNTS["memory"] == 3 and _unit_counts() == (9, texts, 0)
    reset_memory()
    gen2, hits, misses = get_generated(prog, 8, True)
    assert (hits, misses) == (3, 0) and _shared(gen2) == shared
    assert [GEN_COUNTS[k] for k in ("generated", "disk", "memory")] \
        == [0, 3, 0]
    assert _unit_counts() == (0, texts, 9)


def test_one_procedure_edit_emits_one_procedure(fresh_counts):
    get_generated(_pipeline(Mode.INTER), 8, True)
    before = _unit_counts()
    consts = list(PIPE_CONSTS)
    consts[3] = "9.5"
    edited = _pipeline(Mode.INTER, consts)
    _, hits, misses = get_generated(edited, 8, True)
    assert (hits, misses) == (0, 3)
    assert tuple(b - a for a, b in zip(before, _unit_counts())) == (1, 1, 8)
    # a second edit in a fresh process on the same directory: the
    # eight untouched procedures come from disk
    reset_memory()
    consts[5] = "7.5"
    _, hits, misses = get_generated(_pipeline(Mode.INTER, consts), 8, True)
    assert (hits, misses) == (0, 3)
    assert _unit_counts() == (1, 8 + 3, 8)


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
    kind."""
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
    assert "demoted 'k is not a function'" in _entry_body(kind, "g")


def test_unit_key_covers_vectorize_and_nprocs(fresh_counts):
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    main = cp.program.main.name
    keys, loops, guards = set(), {}, {}
    for nprocs, vec in ((4, True), (4, False), (8, True)):
        gen, _, _ = get_generated(cp.program, nprocs, vec)
        assert main not in _shared(gen)  # rank-sensitive
        keys.add(unit_keys(cp.program, nprocs, vec)[main])
        loops[nprocs, vec] = _entry_body(cp.program, "smooth", nprocs, vec)
        guards[nprocs, vec] = _entry_body(cp.program, main, nprocs, vec)
    assert len(keys) == 3
    # vectorize changes the loops, nprocs what the interior class folds
    assert loops[4, True] != loops[4, False]
    assert guards[4, True] != guards[8, True]


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
        gen, _, _ = get_generated(cp.program, 4, True)
        for cls, (_lo, _hi, mod) in gen.modules.items():
            ns: dict = {}
            exec(compile(mod.source, f"<dump:{cls}>", "exec"), ns)
            assert set(ns["UNITS"]) == set(mod.units)
            assert ns["DEMOTED"] == mod.demoted
            assert ns["BLOCKING"] == mod.blocking
            for unit, fn in mod.units.items():
                dumped = ns["UNITS"][unit].__code__
                assert dumped.co_code == fn.__code__.co_code, (cls, unit)
                assert dumped.co_consts == fn.__code__.co_consts


def test_blocking_closure_computed_once_per_generated_program(
        codegen_tmp, monkeypatch):
    """``run_spmd`` reuses the set generation was decided by instead of
    walking the whole program again on every run."""
    calls = []
    real = interp_mod.find_blocking_units

    def counting(program, facts=None):
        calls.append(program)
        return real(program, facts)

    monkeypatch.setattr(interp_mod, "find_blocking_units", counting)
    monkeypatch.setattr(codegen, "find_blocking_units", counting)
    monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
    cp = compile_program(stencil1d_source(80, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    for _ in range(3):
        _run(cp, None, "event", codegen=True)
    assert len(calls) == 1
    del calls[:]
    for _ in range(3):
        _run(cp, None, "event", codegen=False)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# demotion and --strict
# ---------------------------------------------------------------------------


def test_demotion_falls_back_and_traces(codegen_tmp, monkeypatch):
    """An emitter-unsupported construct demotes that procedure to the
    interpreter — bit-identical results, counted in RunStats, and a
    traced codegen-demotion decision."""
    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", (A.Do,))
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    tracer = Tracer()
    gen_res = _run(cp, None, "event", codegen=True, trace=tracer)
    assert gen_res.stats.codegen_demotions > 0
    names = [e["name"] for e in tracer.host_events
             if e["kind"] == "compile.decision"]
    assert "codegen-demotion" in names
    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", ())
    reset_memory()
    ref = _run(cp, None, "event", codegen=False)
    _assert_identical(ref, gen_res, "demoted-vs-interpreter")


def test_partial_demotion_mixes_paths(codegen_tmp, monkeypatch):
    """Demoting only some procedures leaves the rest generated; the
    mid-run handoff — generated main calling an interpreter-demoted
    callee — must stay bit-identical too, on both backend kinds."""
    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", (A.If,))
    init = make_dgefa_init(16)
    cp = compile_program(dgefa_source(16),
                         Options(nprocs=4, mode=Mode.INTER))
    gen, _, _ = get_generated(cp.program, 4, True)
    demoted = {proc for _, _, proc, _ in gen.demotions}
    all_procs = {u.name for u in cp.program.units}
    assert demoted and demoted < all_procs  # strictly partial
    assert cp.program.main.name not in demoted  # main stays generated
    gen_event = _run(cp, init, "event", codegen=True)
    gen_threads = _run(cp, init, "threads", codegen=True)
    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", ())
    reset_memory()
    ref = _run(cp, init, "event", codegen=False)
    _assert_identical(ref, gen_event, "partial-demotion event")
    _assert_identical(ref, gen_threads, "partial-demotion threads")


GUARDED_PRINT = ("program p\nreal x(64)\ndistribute x(block)\n"
                 "do i = 1, 64\n  x(i) = i\nenddo\n"
                 "if (myproc() .eq. 0) then\n  print *, x(1)\nendif\n"
                 "end\n")


def test_demotion_is_per_rank_class(codegen_tmp, monkeypatch):
    """A guard that folds away for ``mid`` / ``hi`` hides the statement
    that demotes ``lo``: only ``lo`` runs the procedure on the
    interpreter."""
    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", (A.Print,))
    monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
    cp = compile_program(GUARDED_PRINT, Options(nprocs=4))
    gen, _, _ = get_generated(cp.program, 4, True)
    assert gen.demotions == [
        ("lo", "node", "p", "statement Print disabled for testing")]
    assert {cls: sorted(mod.units)
            for cls, (_, _, mod) in gen.modules.items()} \
        == {"lo": [], "mid": ["p"], "hi": ["p"]}
    assert gen.modules["mid"][2].units["p"] \
        is gen.modules["hi"][2].units["p"]
    res = _run(cp, None, "event", codegen=True)
    assert res.prints == ["[0] 1"]
    _assert_identical(_run(cp, None, "event", codegen=False), res,
                      "per-class demotion")


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
    assert gen.demotions == []
    for cls, (_lo, _hi, mod) in gen.modules.items():
        ns: dict = {}
        exec(compile(mod.source, f"<dump:{cls}>", "exec"), ns)
        assert set(ns["UNITS"]) == names
        assert len(set(ns["UNITS"].values())) == len(names)
    _assert_identical(_run(cp, None, "event", codegen=False),
                      _run(cp, None, "event", codegen=True),
                      "lookalike names")


def test_strict_escalates_demotion(codegen_tmp, monkeypatch):
    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", (A.Do,))
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    with pytest.raises(CodegenError, match="demoted under --strict"):
        get_generated(cp.program, 4, True, strict=True)
    # non-strict proceeds on the same (memoized) generation
    gen, _, _ = get_generated(cp.program, 4, True)
    assert gen.demotions


def test_strict_compile_fails_on_demotion(codegen_tmp, monkeypatch):
    """Options.strict turns a codegen demotion into a compile error
    (the driver prewarm path)."""
    from repro.core.driver import CompileError

    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", (A.Do,))
    monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
    # the prewarm returns early when the environment default is off
    monkeypatch.setenv("REPRO_CODEGEN", "1")
    with pytest.raises(CompileError, match="demoted under --strict"):
        compile_program(stencil1d_source(96, 3),
                        Options(nprocs=4, mode=Mode.INTER, strict=True))


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
    assert "codegen=" in out and "compile-cache=" in out
    rc = main([str(f), "--run", "--no-text", "--no-codegen"])
    assert rc == 0
    dump = tmp_path / "gen.py"
    rc = main([str(f), "--no-text", "--codegen-dump", str(dump)])
    assert rc == 0
    text = dump.read_text()
    assert "rank class" in text and "UNITS" in text
    compile(text, str(dump), "exec")  # dump is well-formed python
    reset_memory()
