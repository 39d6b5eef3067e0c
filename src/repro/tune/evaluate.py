"""Single-plan evaluation: compile + simulate, returning plain metrics.

This is the one definition of "evaluate a plan" — the serial sweep, the
worker-pool ``evaluate`` op, and the base-plan profiling pass all call
:func:`evaluate_plan`, so parallel and serial searches are guaranteed to
score candidates identically.

Evaluation always pins the **event-driven** scheduler backend (fastest
and deterministic — the tuner's objective is simulated virtual time,
which is scheduler-invariant anyway) and runs the default engine:
generated node programs, or the interpreter under ``REPRO_CODEGEN=0``.
The engines are bit-identical, so a score does not depend on which one
ran; generated code is the faster even with each plan's procedures
emitted cold.
Compilation is the compiler's one :func:`~repro.core.driver.sweep` over
a summary store (:class:`~repro.service.compiler.ServiceCompiler`), so
sibling plans only recompile the procedures whose distribution actually
changed (the store's options fingerprint is plan-invariant; see
:func:`~repro.core.recompile.store_opts_fingerprint`).
"""

from __future__ import annotations

from typing import Optional

from ..core.options import Options
from ..machine import FAST_NETWORK, FREE, IPSC860, FaultPlan

#: cost models by CLI name (mirrors ``fdc --cost``)
COST_MODELS = {"ipsc860": IPSC860, "fast": FAST_NETWORK, "free": FREE}


def make_eval_compiler(store_dir: Optional[str] = None):
    """A fresh incremental compiler over a (possibly disk-backed)
    summary store — disk-backed stores share per-procedure summaries
    across worker processes."""
    from ..core.recompile import SummaryStore
    from ..service.compiler import ServiceCompiler

    return ServiceCompiler(store=SummaryStore(directory=store_dir))


def evaluate_plan(compiler, source: str, opts: Options,
                  scheduler: str = "event", cost: str = "ipsc860",
                  trace: bool = False, topology: str = "uniform",
                  faults: Optional[FaultPlan] = None) -> dict:
    """Compile *opts* (a plan already applied), run it on the simulated
    machine the arguments name (*faults* None: none; the environment is
    never consulted) and return a JSON-ready metrics dict.

    With ``trace=True`` the run is traced and the dict additionally
    carries ``objective`` (:func:`~repro.obs.objective_summary` — the
    pruning signal) and ``comm_sites`` (the compile report's
    (procedure, array, kind) communication sites) — the extra fields the
    search's base-plan pass needs and candidate probes skip.
    """
    cost_model = COST_MODELS[cost] if isinstance(cost, str) else cost
    cp, cstats = compiler.compile(source, opts)
    # an empty plan, not None: None would defer to REPRO_FAULTS
    res = cp.run(cost=cost_model, scheduler=scheduler,
                 trace=True if trace else False, topology=topology,
                 faults=faults or FaultPlan())
    sd = res.stats.as_dict()
    metrics = {
        "time_us": sd["time_us"],
        "messages": sd["messages"],
        "bytes": sd["bytes"],
        "collectives": sd["collectives"],
        "collective_bytes": sd["collective_bytes"],
        "remaps": sd["remaps"],
        "remap_bytes": sd["remap_bytes"],
        "load_imbalance": sd["load_imbalance"],
        "wall_s": sd["wall_s"],
        "compile": {
            "procs": cstats["procs"],
            "reused": cstats["reused"],
            "compiled": cstats["compiled"],
        },
    }
    if trace and res.trace is not None:
        from ..obs import objective_summary

        metrics["objective"] = objective_summary(res.trace, res.stats)
        metrics["comm_sites"] = sorted(
            {tuple(site) for site in cp.report.comm_sites}
        )
    return metrics
