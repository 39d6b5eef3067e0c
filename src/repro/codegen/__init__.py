"""JIT node-program code generation.

The compiler's whole premise (paper §5) is that each processor runs an
explicit SPMD *node program*; this package makes that literal.  Every
compiled procedure is printed as a real Python function — numpy slice
assignments for provably-affine loop nests, scalar loops otherwise, and
the compiler-placed message calls — once, for every rank: boundary
guards that some ranks pass and others do not stay run-time ``if``s,
as in the paper's one node program.  The **procedure is the unit** that
is emitted, ``compile()``d, memoised and stored on disk
(:mod:`repro.codegen.cache`): the program's module is assembled from
its procedures' functions, and an edit to one procedure regenerates
that procedure only.  A compile only *resolves* each procedure's text
(memo, disk, else emission); a run also *loads* it (``compile()``),
once per process, before the machine starts.  Execution stays
bit-identical to the interpreter: same virtual-clock charges in the
same order, same communication schedule, same RunStats.

Emission is total: the front end rejects ill-formed programs, so a
procedure the emitter cannot lower, or whose text does not compile, is
an internal :class:`CodegenError` naming it.  A run never falls back to
the interpreter; the interpreter runs only when codegen is off.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

from ..lang import ast as A
from ..runtime.node import find_blocking_units, unit_facts
from ..settings import Settings
from . import cache as _cache
from .emit import (
    PRELUDE,
    CodegenError,
    assemble_module,
    emit_unit,
    unit_ident,
)

__all__ = [
    "CodegenError", "GeneratedModule", "GeneratedProgram",
    "enabled", "get_generated", "reset_memory",
    "unit_keys", "GEN_COUNTS",
]


def enabled(override: Optional[bool] = None) -> bool:
    """Codegen on/off: explicit argument wins, else ``REPRO_CODEGEN``
    (default on)."""
    if override is not None:
        return override
    return Settings.from_env().codegen


#: generation-activity counters (benches assert warm runs do no work).
#: ``generated`` / ``disk`` count modules, one per :func:`get_generated`
#: call: *generated* when at least one procedure had to be emitted,
#: *disk* when every one came from the unit memo or the disk cache.
#: The ``units_*`` keys count procedures (emitted / served without
#: emission) and ``texts_compiled`` counts ``compile()`` calls: one per
#: procedure a run loads, at most once per process.
GEN_COUNTS = {"generated": 0, "disk": 0,
              "units_emitted": 0, "texts_compiled": 0, "units_reused": 0}


class _Unit:
    """One procedure's ``text`` plus its function once loaded (``fn``).
    ``fresh``: this process emitted the text, so one that does not
    compile is an emitter bug rather than a poisoned disk body."""

    __slots__ = ("text", "fn", "fresh")

    def __init__(self, text: str, fresh: bool) -> None:
        self.text, self.fresh = text, fresh
        self.fn: Optional[Callable] = None


#: the in-process unit memo, one entry per unit key, whichever program
#: the procedure is part of
_units: dict[str, _Unit] = {}


def reset_memory() -> None:
    """Drop the unit memo and zero :data:`GEN_COUNTS` (tests)."""
    _units.clear()
    for k in GEN_COUNTS:
        GEN_COUNTS[k] = 0


class GeneratedModule:
    """The node program every rank runs: per procedure, its generated
    function (``units``, filled once the program is loaded)."""

    __slots__ = ("units", "blocking", "_about", "_texts")

    def __init__(self, about: tuple, blocking: frozenset,
                 resolved: list[tuple[str, _Unit]], loaded: bool) -> None:
        self.blocking = blocking
        #: (nprocs, vectorize) and procedure -> text: what ``source``
        #: is assembled from
        self._about = about
        self._texts = {name: unit.text for name, unit in resolved}
        self.units: dict[str, Callable] = \
            {name: unit.fn for name, unit in resolved} if loaded else {}

    @property
    def source(self) -> str:
        """The procedures as one importable module, assembled on demand
        (``--codegen-dump``); never what the run executes."""
        return assemble_module(*self._about, self.blocking, self._texts)


@dataclass
class GeneratedProgram:
    """The generated node program for one (program, nprocs, options)."""

    nprocs: int
    vectorize: bool
    module: GeneratedModule
    #: procedures that may suspend (``find_blocking_units``)
    blocking: frozenset[str]

    # frozen-harness shims: ``benchmarks/e2e`` reads these two; ROADMAP
    # item 2 (g) deletes them with the harness change

    @property
    def modules(self) -> dict[str, tuple[int, int, GeneratedModule]]:
        """``{"all": (0, nprocs - 1, module)}``: the one module, keyed
        the way the benchmark harness reads it."""
        return {"all": (0, self.nprocs - 1, self.module)}

    @property
    def demotions(self) -> list:
        """Always empty: no procedure runs on the interpreter in a
        generated run."""
        return []

    def dump(self) -> str:
        """The generated source, assembled (``--codegen-dump``)."""
        return self.module.source


@functools.cache
def _prelude() -> dict:
    """The namespace every unit text runs over a copy of."""
    ns: dict = {}
    exec(compile(PRELUDE, "<repro-codegen:prelude>", "exec"), ns)
    return ns


def _load(unit: _Unit, ukey: str, ident: str) -> None:
    """``compile()`` the unit's text by itself into ``unit.fn``."""
    ns = dict(_prelude())
    exec(compile(unit.text, f"<repro-codegen:{ukey}>", "exec"), ns)
    GEN_COUNTS["texts_compiled"] += 1
    unit.fn = ns[ident]


def _emission_inputs(program: A.Program, nprocs: int,
                     vectorize: bool) -> tuple[frozenset, list[tuple]]:
    """The blocking set and, per procedure, what its text is a function
    of with the key hashing exactly that: ``(unit, facts, may block,
    callee rows, unit key)``.  The one statement walk per procedure
    happens here."""
    facts = {u.name: unit_facts(u) for u in program.units}
    blocking = frozenset(find_blocking_units(program, facts))
    kinds = {u.name: u.kind for u in program.units}
    rows = []
    for u in program.units:
        f = facts[u.name]
        blocks = u.name in blocking
        callees = tuple(sorted(
            (name, kinds[name], name in blocking)
            for name in f.calls | f.func_refs.keys() if name in kinds
        ))
        ukey = _cache.unit_key(repr(u), nprocs, vectorize, blocks, callees)
        rows.append((u, f, blocks, callees, ukey))
    return blocking, rows


def unit_keys(program: A.Program, nprocs: int,
              vectorize: bool) -> dict[str, str]:
    """Procedure name -> its unit key (its disk entry is
    ``cache.entry_stem(key, nprocs, vectorize)``)."""
    _, rows = _emission_inputs(program, nprocs, vectorize)
    return {u.name: ukey for u, _, _, _, ukey in rows}


def _generate(program: A.Program, nprocs: int, vectorize: bool,
              load: bool) -> tuple[GeneratedProgram, bool]:
    """Resolve every procedure's text — unit memo, then disk, then emit
    (storing back) — and, if *load*, ``compile()`` each text not loaded
    yet.  Also returns whether anything was emitted."""
    blocking, rows = _emission_inputs(program, nprocs, vectorize)
    store = _cache.cas()
    resolved = []
    emitted = False

    def emit(u, facts, blocks, callees, stem) -> _Unit:
        nonlocal emitted
        text = emit_unit(u, facts, callees, blocks, vectorize, nprocs)
        store.store(stem, _cache.encode_entry(store, stem, text))
        GEN_COUNTS["units_emitted"] += 1
        emitted = True
        return _Unit(text, fresh=True)

    for u, facts, blocks, callees, ukey in rows:
        stem = _cache.entry_stem(ukey, nprocs, vectorize)
        unit = _units.get(ukey)
        if unit is None:
            payload = store.load(stem)
            if payload is not None:
                try:
                    unit = _Unit(_cache.decode_entry(payload), fresh=False)
                except Exception:
                    store.discard(stem)  # header-valid, entry cut short
        if unit is not None:
            GEN_COUNTS["units_reused"] += 1
        else:
            unit = emit(u, facts, blocks, callees, stem)
        # at most two passes: a body read from disk, then a fresh one
        while load and unit.fn is None:
            try:
                _load(unit, ukey, unit_ident(u.name, blocks))
            except Exception as ex:
                if unit.fresh:  # an emitter bug
                    raise CodegenError(
                        f"{u.name}: internal: generated text does not "
                        f"compile: {type(ex).__name__}: {ex}") from ex
                # header-valid, body poisoned: emit it again
                store.discard(stem)
                unit = emit(u, facts, blocks, callees, stem)
        _units[ukey] = unit
        resolved.append((u.name, unit))

    mod = GeneratedModule((nprocs, vectorize), blocking, resolved, load)
    return GeneratedProgram(nprocs, vectorize, mod, blocking), emitted


def get_generated(
    program: A.Program,
    nprocs: int,
    vectorize: bool,
    load: bool = True,
) -> tuple[GeneratedProgram, int, int]:
    """Return the generated node program plus (cache hits, misses),
    counted in modules: ``(0, 1)`` when any procedure had to be emitted,
    else ``(1, 0)``.

    Resolution, per procedure: the unit memo, then disk, then emit.
    *load* ``compile()``s every text not loaded yet, as a run needs;
    without it the program only has its texts (a compile or
    ``--codegen-dump``).  A procedure that cannot be generated raises
    :class:`CodegenError`."""
    gen, emitted = _generate(program, nprocs, vectorize, load)
    GEN_COUNTS["generated" if emitted else "disk"] += 1
    return gen, int(not emitted), int(emitted)
