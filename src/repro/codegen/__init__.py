"""JIT node-program code generation.

The compiler's whole premise (paper §5) is that each processor runs an
explicit SPMD *node program*; this package makes that literal.  Every
compiled procedure is printed as a real Python function — numpy slice
assignments for provably-affine loop nests, scalar loops otherwise, and
the compiler-placed message calls — once per **rank class** whose
boundary guards fold differently (edge ranks specialize theirs,
interior ranks share one text) and once for all classes when no guard
can be decided.  The **procedure is the unit** that is emitted,
``compile()``d, memoised and stored on disk
(:mod:`repro.codegen.cache`): a rank class's module is assembled from
its procedures' functions, and an edit to one procedure regenerates
that procedure only.  Execution stays bit-identical to the
interpreter: same virtual-clock charges in the same order, same
communication schedule, same RunStats.

Any procedure the emitter cannot lower **demotes** to the interpreter's
closures for that procedure only; demotions are reported per
(rank class, variant, procedure, cause) — *variant* is ``"event"`` for
a procedure that may block (a generator), ``"node"`` otherwise — so
the driver can trace them and ``--strict`` can turn them into hard
errors.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..interp.interpreter import find_blocking_units, unit_facts
from ..lang import ast as A
from . import cache as _cache
from .cache import Variant
from .emit import PRELUDE, assemble_module, emit_unit, unit_ident
from .runtime import NodeRt

__all__ = [
    "CodegenError", "GeneratedModule", "GeneratedProgram", "NodeRt",
    "enabled", "get_generated", "rank_classes", "reset_memory",
    "unit_keys", "GEN_COUNTS",
]


class CodegenError(Exception):
    """Raised under ``--strict`` when any procedure demoted."""


def enabled(override: Optional[bool] = None) -> bool:
    """Codegen on/off: explicit argument wins, else ``REPRO_CODEGEN``
    (default on)."""
    if override is not None:
        return override
    return os.environ.get("REPRO_CODEGEN", "1").lower() \
        not in ("0", "false", "no", "off")


def rank_classes(nprocs: int) -> list[tuple[str, int, int]]:
    """Partition ranks into classes sharing one generated module.

    Boundary ranks get their own class so guards like
    ``if (my$p .gt. 0)`` fold away statically; every interior rank
    shares the ``mid`` module."""
    if nprocs <= 1:
        return [("solo", 0, 0)]
    if nprocs == 2:
        return [("lo", 0, 0), ("hi", 1, 1)]
    return [("lo", 0, 0), ("mid", 1, nprocs - 2),
            ("hi", nprocs - 1, nprocs - 1)]


#: generation-activity counters (benches assert warm runs do no work).
#: ``generated`` / ``disk`` / ``memory`` count rank-class modules: a
#: program's modules are *generated* when at least one of its procedures
#: had to be emitted, *disk* when every one came from the disk cache or
#: the unit memo, *memory* when the program memo had them.  The
#: ``units_*`` keys count procedures (emitted / served without
#: emission) and ``texts_compiled`` counts ``compile()`` calls.
GEN_COUNTS = {"generated": 0, "disk": 0, "memory": 0,
              "units_emitted": 0, "texts_compiled": 0, "units_reused": 0}

#: in-process memos: one GeneratedProgram per program key, and below it
#: one loaded procedure per unit key — rank class -> ``(function,
#: text)``, or ``(None, cause)`` where it demoted — so the same
#: procedure in another program is not loaded twice
_memory: dict[str, "GeneratedProgram"] = {}
_units: dict[str, dict[str, tuple[Optional[Callable], str]]] = {}


def reset_memory() -> None:
    """Drop the in-process memos and zero :data:`GEN_COUNTS` (tests)."""
    _memory.clear()
    _units.clear()
    for k in GEN_COUNTS:
        GEN_COUNTS[k] = 0


class GeneratedModule:
    """One rank class's node program: per procedure, the function ranks
    of the class run (``units``) or why they run it on the interpreter
    (``demoted``).  A procedure no guard specializes is the same
    function object in every class's module."""

    __slots__ = ("cls", "units", "blocking", "demoted", "_about", "_texts")

    def __init__(self, cls: str, about: tuple, blocking: frozenset,
                 resolved: list[tuple[str, dict]]) -> None:
        self.cls = cls
        self.blocking = blocking
        self.units: dict[str, Callable] = {}
        self.demoted: dict[str, str] = {}
        #: (rlo, rhi, nprocs, vectorize) and procedure -> text: what
        #: ``source`` is assembled from
        self._about = about
        self._texts: dict[str, str] = {}
        for name, by_class in resolved:
            fn, text = by_class[cls]
            if fn is None:
                self.demoted[name] = text
            else:
                self.units[name] = fn
                self._texts[name] = text

    @property
    def source(self) -> str:
        """The class's procedures as one importable module, assembled
        on demand (``--codegen-dump``); never what the run executes."""
        return assemble_module(self.cls, *self._about, self.blocking,
                               self._texts, self.demoted)


@dataclass
class GeneratedProgram:
    """All rank-class modules for one (program, nprocs, options)."""

    nprocs: int
    key: str
    vectorize: bool
    #: class name -> (rlo, rhi, module)
    modules: dict[str, tuple[int, int, GeneratedModule]]
    #: procedures that may suspend (``find_blocking_units``)
    blocking: frozenset[str]
    #: (rank class, variant, procedure, cause)
    demotions: list[tuple[str, str, str, str]] = field(default_factory=list)

    def module_for(self, rank: int):
        for rlo, rhi, mod in self.modules.values():
            if rlo <= rank <= rhi:
                return mod
        raise ValueError(f"rank {rank} outside 0..{self.nprocs - 1}")

    def dump(self) -> str:
        """All generated sources, concatenated (``--codegen-dump``)."""
        parts = []
        for cls, (rlo, rhi, mod) in self.modules.items():
            parts.append(f"# {'=' * 66}\n# rank class {cls!r} "
                         f"(ranks {rlo}..{rhi})\n# {'=' * 66}\n")
            parts.append(mod.source)
        return "\n".join(parts)


@functools.cache
def _prelude() -> dict:
    """The namespace every unit text runs over a copy of."""
    ns: dict = {}
    exec(compile(PRELUDE, "<repro-codegen:prelude>", "exec"), ns)
    return ns


def _load_variants(ukey: str, ident: str, variants: list[Variant],
                   classes: list[str]) -> dict[str, tuple]:
    """``compile()`` each variant text by itself and take its function;
    raises unless every rank class ends up with exactly one outcome."""
    by_class: dict[str, tuple] = {}
    for names, text, cause in variants:
        if text is None:
            outcome = (None, cause)
        else:
            ns = dict(_prelude())
            exec(compile(text, f"<repro-codegen:{ukey}>", "exec"), ns)
            GEN_COUNTS["texts_compiled"] += 1
            outcome = (ns[ident], text)
        by_class.update(dict.fromkeys(names, outcome))
    if sorted(n for v in variants for n in v.classes) != sorted(classes):
        raise ValueError("variants do not cover the rank classes")
    return by_class


def _emission_inputs(program: A.Program, reprs: list[str], nprocs: int,
                     vectorize: bool) -> tuple[frozenset, list[tuple]]:
    """The blocking set and, per procedure, what its text is a function
    of with the key hashing exactly that: ``(unit, facts, may block,
    callee rows, unit key)``.  The one statement walk per procedure
    happens here."""
    facts = {u.name: unit_facts(u) for u in program.units}
    blocking = frozenset(find_blocking_units(program, facts))
    kinds = {u.name: u.kind for u in program.units}
    rows = []
    for u, text in zip(program.units, reprs):
        f = facts[u.name]
        blocks = u.name in blocking
        callees = tuple(sorted(
            (name, kinds[name], name in blocking)
            for name in f.calls | f.expr_calls.keys() if name in kinds
        ))
        ukey = _cache.unit_key(text, nprocs, vectorize, blocks, callees)
        rows.append((u, f, blocks, callees, ukey))
    return blocking, rows


def unit_keys(program: A.Program, nprocs: int,
              vectorize: bool) -> dict[str, str]:
    """Procedure name -> its unit key (its disk entry is
    ``cache.entry_stem(key, nprocs, vectorize)``)."""
    reprs = [repr(u) for u in program.units]
    _, rows = _emission_inputs(program, reprs, nprocs, vectorize)
    return {u.name: ukey for u, _, _, _, ukey in rows}


def _generate(program: A.Program, reprs: list[str], key: str,
              nprocs: int, vectorize: bool) -> tuple[GeneratedProgram, bool]:
    """Resolve every procedure — unit memo, then disk, then emit
    (storing back) — and assemble the rank-class modules from the
    loaded functions.  Also returns whether anything was emitted."""
    blocking, rows = _emission_inputs(program, reprs, nprocs, vectorize)
    classes = rank_classes(nprocs)
    names = [cls for cls, _, _ in classes]
    store = _cache.cas()
    resolved = []
    emitted = False
    for u, facts, blocks, callees, ukey in rows:
        ident = unit_ident(u.name, blocks)
        stem = _cache.entry_stem(ukey, nprocs, vectorize)
        by_class = _units.get(ukey)
        if by_class is None:
            payload = store.load(stem)
            if payload is not None:
                try:
                    by_class = _load_variants(
                        ukey, ident, _cache.decode_entry(payload), names)
                except Exception:
                    store.discard(stem)  # header-valid, body poisoned
        if by_class is not None:
            GEN_COUNTS["units_reused"] += 1
        else:
            variants = emit_unit(u, facts, callees, blocks, vectorize,
                                 classes)
            try:
                by_class = _load_variants(ukey, ident, variants, names)
            except Exception as ex:  # an emitter bug demotes the unit
                variants = [Variant(tuple(names), None,
                                    f"internal: {type(ex).__name__}: {ex}")]
                by_class = _load_variants(ukey, ident, variants, names)
            store.store(stem, _cache.encode_entry(stem, variants))
            GEN_COUNTS["units_emitted"] += 1
            emitted = True
        _units[ukey] = by_class
        resolved.append((u.name, by_class))

    modules: dict[str, tuple[int, int, GeneratedModule]] = {}
    demotions: list[tuple[str, str, str, str]] = []
    for cls, rlo, rhi in classes:
        mod = GeneratedModule(cls, (rlo, rhi, nprocs, vectorize), blocking,
                              resolved)
        modules[cls] = (rlo, rhi, mod)
        for proc, cause in mod.demoted.items():
            variant = "event" if proc in blocking else "node"
            demotions.append((cls, variant, proc, cause))
    gen = GeneratedProgram(nprocs, key, vectorize, modules, blocking,
                           demotions)
    return gen, emitted


def get_generated(
    program: A.Program,
    nprocs: int,
    vectorize: bool,
    strict: bool = False,
) -> tuple[GeneratedProgram, int, int]:
    """Return the generated node program plus (cache hits, misses),
    counted in rank-class modules.

    Resolution: the program memo, else per procedure the unit memo,
    then disk, then emit; the modules are misses when any procedure had
    to be emitted.  ``strict`` escalates any demotion to
    :class:`CodegenError`."""
    # deterministic content-bearing form, computed once per procedure
    reprs = [repr(u) for u in program.units]
    key = _cache.program_key(reprs, nprocs, vectorize)
    gen = _memory.get(key)
    if gen is not None:
        hits, misses = len(gen.modules), 0
        GEN_COUNTS["memory"] += hits
    else:
        gen, emitted = _generate(program, reprs, key, nprocs, vectorize)
        _memory[key] = gen
        n = len(gen.modules)
        hits, misses = (0, n) if emitted else (n, 0)
        GEN_COUNTS["generated" if emitted else "disk"] += n
    if strict and gen.demotions:
        raise CodegenError(_strict_message(gen))
    return gen, hits, misses


def _strict_message(gen: GeneratedProgram) -> str:
    rows = ", ".join(
        f"{proc}[{cls}/{variant}]: {cause}"
        for cls, variant, proc, cause in gen.demotions
    )
    return f"codegen demoted under --strict: {rows}"
