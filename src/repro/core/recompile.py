"""Recompilation analysis (§4, §8).

In an interprocedural system an unedited module may still need
recompilation when changes elsewhere alter the interprocedural facts it
was compiled under.  Rather than recompiling the whole program after
each change, ParaScope "performs recompilation analysis to pinpoint
modules that may have been affected".

We implement that as fingerprinting: every procedure's compilation
records (a) a fingerprint of its own source and (b) a fingerprint of
every interprocedural input it consumed, its :class:`ProcInputs` —
reaching decompositions, propagated constants, and per call site the
parameter bindings, the callee's COMMON names and the callee's exports
(delayed partitions, pending communication, RSD summaries, decomposition
sets).  On a subsequent compilation, a procedure is recompiled only when
one of those fingerprints changed; everything else keeps its previous
node code (its stored :class:`ProcSummary` is reused).

This module holds what §8 defines — the fingerprints, the summary they
key and the store that keeps summaries — and nothing that imports the
driver: the pass that applies the test is
:func:`repro.core.driver.sweep`.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Optional, Union

from ..callgraph.acg import ACG, CallSite
from ..cas import PICKLE, Cas
from ..lang import ast as A
from ..lang import procedure_str
from ..lang.printer import expr_str
from .model import ProcExports
from .options import CompileReport, Options
from .reaching import ProcReaching, ReachingResult


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def source_fingerprint(proc: A.Procedure) -> str:
    """Stable fingerprint of one procedure's source (the "local summary
    collected after an editing session").  The printer spells a user
    function reference like an intrinsic call (``f(k)``), so the names
    resolved to user functions are part of it: adding or removing
    ``function f`` changes the callers' fingerprints."""
    text = procedure_str(proc)
    funcs = sorted({e.name for e in A.walk_all_exprs(proc.body)
                    if isinstance(e, A.FuncRef)})
    if funcs:
        text += "\n! functions " + " ".join(funcs)
    return _digest(text)


def unit_fingerprint(acg: ACG, name: str) -> str:
    """:func:`source_fingerprint` of procedure *name*, printed once per
    text: memoised on its local summary unless the front end rewrote
    the unit (a clone, a redirected caller, a ``--distribute``
    override)."""
    node = acg.node(name)
    if node.summary is None:
        # program.unit, not node.proc: the first of duplicate names
        return source_fingerprint(acg.program.unit(name))
    return node.summary.derive("fingerprint",
                               lambda: source_fingerprint(node.proc))


def exports_fingerprint(exp: ProcExports) -> str:
    """Stable fingerprint of everything a procedure exports to its
    callers — the interface summary whose change forces callers to
    recompile (also the summary-store key ingredient for the compile
    service)."""
    parts = [exp.name]
    if exp.constraint is not None:
        c = exp.constraint
        parts.append(f"c:{c.dimdist}:{c.var}:{c.off}")
    for p in exp.pending:
        parts.append(f"p:{p.describe()}")
    for arr in sorted(exp.writes):
        parts.append(f"w:{arr}:" + ",".join(map(str, exp.writes[arr])))
    for arr in sorted(exp.reads):
        parts.append(f"r:{arr}:" + ",".join(map(str, exp.reads[arr])))
    d = exp.decomp
    parts.append(f"d:{sorted(d.use)}:{sorted(d.kill)}:"
                 f"{sorted((k, str(v)) for k, v in d.before.items())}:"
                 f"{sorted((k, str(v)) for k, v in d.after.items())}:"
                 f"{sorted(d.full_kill)}")
    parts.append(str(sorted(exp.overlap_offsets.items())))
    return _digest("|".join(parts))


@dataclass(frozen=True)
class ProcInputs:
    """Every interprocedural fact one procedure's compile reads — what
    :func:`~repro.core.driver.compile_one` is handed beside the
    procedure's own tree, and what :func:`inputs_fingerprint` digests,
    field by field, so the §8 key covers whatever the compile can see.
    Its statement references (the solve's, each call site's statement
    and loop stack) point into that tree, so the two travel together."""

    #: the facts reaching its entry, and its local solve under them
    reaching: ProcReaching
    #: its constant environment (PARAMETERs and propagated formals)
    constants: dict
    #: ``(site, callee exports)`` per call site, in call order
    callees: tuple[tuple[CallSite, Optional[ProcExports]], ...]


def proc_inputs(name: str, acg: ACG, reaching: ReachingResult,
                exports: dict[str, ProcExports]) -> ProcInputs:
    """The :class:`ProcInputs` of procedure *name*, given the exports
    resolved so far (a callee not yet among them reads as None)."""
    return ProcInputs(
        reaching.per_proc[name], reaching.constants[name],
        tuple((site, exports.get(site.callee))
              for site in acg.calls_from(name)))


def _site_part(site: CallSite, exp: Optional[ProcExports]) -> str:
    """A call site as its caller's compile reads it: the bindings, the
    callee's COMMON names and exports (its statement and loop stack are
    the caller's source, which the store key holds)."""
    binding = ",".join(f"{f}={expr_str(a)}" for f, a in site.actual_of.items())
    arrays = ",".join(f"{f}={a}" for f, a in site.array_actuals.items())
    return (f"{site.callee}({binding})[{arrays}]"
            f"/{','.join(site.callee_commons)}:"
            + (exports_fingerprint(exp) if exp else "-"))


#: how :func:`inputs_fingerprint` spells each field of :class:`ProcInputs`
#: (a reaching solve is a function of its entry, the constants and the
#: source, which the store key holds)
_PARTS = {
    "reaching": lambda pr: [str(sorted(str(f) for f in pr.entry))],
    "constants": lambda env: [str(sorted(env.items()))],
    "callees": lambda callees: [_site_part(site, exp)
                                for site, exp in callees],
}


def inputs_fingerprint(inputs: ProcInputs, opts: Options) -> str:
    """Fingerprint of a procedure's :class:`ProcInputs` and the option
    values that shape code generation.  A procedure whose source *and*
    inputs fingerprints are unchanged compiles to identical node
    code."""
    parts = [part for f in fields(ProcInputs)
             for part in _PARTS[f.name](getattr(inputs, f.name))]
    parts.append(str(opts.nprocs))
    parts.append(opts.mode.value)
    parts.append(str(int(opts.dynopt)))
    return _digest("|".join(parts))


def opts_fingerprint(opts: Options) -> str:
    """Fingerprint of every compilation option (any of them can change
    generated code, so all of them key the store)."""
    return _digest(repr(astuple(opts)))


def store_opts_fingerprint(opts: Options) -> str:
    """The *summary-store* options fingerprint: every option except the
    distribution-plan overrides.  Overrides rewrite DISTRIBUTE
    statements before analysis, so their whole effect is already visible
    in the per-procedure source and interprocedural-inputs fingerprints
    — excluding them here lets sibling candidate plans of one tuning run
    share the summaries of every procedure the plan change does not
    actually touch."""
    return opts_fingerprint(replace(opts, distribute=()))


@dataclass
class ProcSummary:
    """One procedure's reusable compilation result."""

    name: str
    #: compiled body with local tags 1..tag_count
    proc: A.Procedure
    exports: object                 # ProcExports (picklable, name-keyed)
    tag_count: int
    #: the per-procedure slice of the compile report
    fragment: CompileReport


#: bump when ProcSummary's pickled shape changes; old entries then fail
#: the header check and regenerate
STORE_VERSION = "2"


class SummaryStore(Cas):
    """The summary store :func:`~repro.core.driver.sweep` takes: a
    :class:`ProcSummary` per §8 key — a digest of the store version,
    the options fingerprint (:func:`store_opts_fingerprint`), the
    procedure's source fingerprint and its interprocedural-inputs
    fingerprint — so a hit is valid by construction and nothing is
    invalidated.  The ``summary`` namespace of :mod:`repro.cas`: memory,
    plus a disk tier when given a *directory* (``fdc serve --store``;
    the disk discipline is DESIGN.md § 7 Stores)."""

    def __init__(self, directory: Optional[str] = None) -> None:
        super().__init__(
            "summary", STORE_VERSION, "proc-", ".pkl", PICKLE,
            kind=ProcSummary, directory=directory)

    @staticmethod
    def key(opts_fp: str, src_fp: str, in_fp: str) -> str:
        return hashlib.sha256(
            f"{STORE_VERSION}|{opts_fp}|{src_fp}|{in_fp}".encode()
        ).hexdigest()


@dataclass
class RecompilationManager:
    """Separate-compilation façade: :func:`repro.core.driver.sweep` plus
    a memory-only :class:`SummaryStore`.

    ``compile()`` is the whole-program compile, except that every
    procedure whose source *and* interprocedural inputs match a summary
    compiled earlier in the session reuses it; the result equals the
    cold :func:`~repro.core.driver.compile_program` by construction.
    ``last_recompiled`` lists what was actually rebuilt — the quantity
    §8's analysis minimizes.
    """

    opts: Options = field(default_factory=Options)
    last_recompiled: list[str] = field(default_factory=list)
    last_reused: list[str] = field(default_factory=list)
    summaries: SummaryStore = field(default_factory=SummaryStore,
                                    init=False, repr=False)

    def compile(self, source: Union[str, A.Program]):
        """Compile *source* to a
        :class:`~repro.core.driver.CompiledProgram`."""
        from .driver import assemble, sweep  # the driver imports this

        swept = sweep(source, self.opts, store=self.summaries)
        self.last_reused, self.last_recompiled = \
            swept.reused, swept.recompiled
        return assemble(swept, self.opts, shared=True)
