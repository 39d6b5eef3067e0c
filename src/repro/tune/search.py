"""The auto-tuner: profile-guided, budget-bounded, parallel plan search.

``autotune`` closes the paper's feedback loop: compile the program as
written, run it traced on the event-backend simulator, and use the
critical path + communication hot spots to decide *which* layout knobs
are worth turning (see :mod:`.space`).  Candidates are then scored in
up to three budget-bounded stages — single-coordinate moves, block-
cyclic refinement where cyclic won, and a final composition — each
stage seeded by the measurements of the one before.

Evaluation cost is attacked three ways:

* **parallelism** — candidate batches fan out over the compile
  service's supervised :class:`~repro.service.pool.WorkerPool`
  (``workers`` processes, opt-in; any pool failure falls back to the
  serial sweep, which scores identically);
* **summary reuse** — every evaluation compiles through an incremental
  :class:`~repro.service.compiler.ServiceCompiler` whose store keys are
  plan-invariant, so sibling plans recompile only the procedures whose
  distribution actually changed;
* **memoization** — each (program ‖ options ‖ plan) evaluation is
  remembered in the crash-safe :class:`~repro.tune.memo.EvalMemo`, so
  re-runs and overlapping searches skip simulation entirely.

The search is deterministic for a given program, options, and budget:
plan order is fixed, and parallel and serial sweeps score candidates
with the same :func:`~repro.tune.evaluate.evaluate_plan`.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from ..core.options import Options
from ..machine import FaultPlan
from ..settings import Settings
from .evaluate import evaluate_plan, make_eval_compiler
from .memo import EvalMemo
from .plan import MEMO_VERSION, Plan, plan_key
from .space import build_space, combine_moves, initial_moves, \
    refine_moves


@dataclass
class EvalRecord:
    """One scored candidate."""

    plan: Plan
    metrics: dict
    cached: bool = False

    @property
    def ok(self) -> bool:
        return "time_us" in self.metrics

    @property
    def time_us(self) -> float:
        return self.metrics["time_us"]

    def as_dict(self) -> dict:
        return {
            "plan": self.plan.describe(),
            "nprocs": self.plan.nprocs,
            "flags": self.plan.cli_flags(),
            "label": self.plan.label,
            "cached": self.cached,
            "metrics": self.metrics,
        }


@dataclass
class TuneOutcome:
    """Everything a tuning run learned."""

    base: EvalRecord
    best: Plan
    best_metrics: dict
    records: list[EvalRecord] = field(default_factory=list)
    budget: int = 0
    workers: int = 0
    scheduler: str = "event"
    cost: str = "ipsc860"
    evaluated: int = 0
    memo_hits: int = 0
    wall_s: float = 0.0

    @property
    def predicted_speedup(self) -> float:
        t = self.best_metrics.get("time_us", 0.0)
        if t <= 0:
            return 1.0
        return self.base.time_us / t

    @property
    def plans_per_s(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return (self.evaluated + self.memo_hits) / self.wall_s

    def as_dict(self) -> dict:
        return {
            "version": MEMO_VERSION,
            "budget": self.budget,
            "workers": self.workers,
            "scheduler": self.scheduler,
            "cost": self.cost,
            "base": self.base.as_dict(),
            "best": {
                "plan": self.best.describe(),
                "nprocs": self.best.nprocs,
                "flags": self.best.cli_flags(),
                "metrics": self.best_metrics,
            },
            "predicted_speedup": self.predicted_speedup,
            "evaluated": self.evaluated,
            "memo_hits": self.memo_hits,
            "wall_s": self.wall_s,
            "plans_per_s": self.plans_per_s,
            "plans": [r.as_dict() for r in self.records],
        }


class _Evaluator:
    """Scores plan batches — across the worker pool when one is
    requested and usable, in-process otherwise; both paths call the
    same :func:`evaluate_plan`."""

    def __init__(self, source: str, opts: Options, machine: dict,
                 workers: int, compiler) -> None:
        self.source = source
        self.opts = opts
        self.machine = machine
        self.workers = workers
        self.compiler = compiler        # in-process fallback/serial
        self.pool = None
        self.store_dir = None
        if workers >= 2:
            from ..service.pool import WorkerPool

            self.store_dir = tempfile.mkdtemp(prefix="repro-tune-")
            self.pool = WorkerPool(size=workers, job_timeout_s=300.0)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    def __call__(self, plans: list[Plan]) -> list[dict]:
        if not plans:
            return []
        applied = [p.apply(self.opts) for p in plans]
        if self.pool is not None:
            from ..service.protocol import ServiceError

            try:
                return self.pool.evaluate_plans(
                    self.source, applied, store_dir=self.store_dir,
                    **self.machine,
                )
            except ServiceError:
                pass  # degrade to the identical serial sweep
        out = []
        for o in applied:
            try:
                out.append(evaluate_plan(
                    self.compiler, self.source, o, **self.machine,
                ))
            except Exception as e:
                out.append({"error": f"{type(e).__name__}: {e}"})
        return out


def autotune(source: str, opts: Optional[Options] = None,
             budget: int = 32, workers: Optional[int] = None,
             memo_dir: Optional[str] = None, scheduler: str = "event",
             cost: str = "ipsc860") -> TuneOutcome:
    """Search distribution plans for *source* under *opts*; returns the
    :class:`TuneOutcome` whose ``best`` plan (possibly the as-written
    one) minimizes simulated virtual time.

    *budget* caps actual simulator evaluations (memo hits are free);
    *workers* sets the evaluation pool size (None, 0 or 1: the
    in-process serial sweep, the default; searches of 4-5 evaluations on
    the paper apps ran faster serially on a 2-CPU host, while larger
    searches on more CPUs can favour the pool); *memo_dir* overrides
    ``REPRO_TUNE_CACHE``.  The
    topology and fault plan come from the environment, once per search.
    """
    if budget < 1:
        raise ValueError("autotune budget must be >= 1")
    opts = opts or Options()
    workers = max(0, workers or 0)
    memo = EvalMemo(memo_dir)
    t0 = time.perf_counter()
    # what shapes virtual time besides the plan, resolved once per search
    settings = Settings.from_env()
    machine = dict(scheduler=scheduler, cost=cost,
                   topology=settings.topology.lower(),
                   faults=FaultPlan.from_settings(settings))

    compiler = make_eval_compiler()
    # stage 0: the as-written plan, traced — the baseline objective and
    # the pruning signal (comm share, hot communication sites)
    base_plan = Plan(opts.nprocs, (), label="as-written")
    base_metrics = evaluate_plan(compiler, source, base_plan.apply(opts),
                                 trace=True, **machine)
    base = EvalRecord(base_plan, base_metrics)
    left = budget - 1

    space = build_space(source, base_metrics, opts)
    objective = base_metrics.get("objective", {})
    evaluator = _Evaluator(source, opts, machine, workers, compiler)
    records: list[EvalRecord] = []
    seen = {base_plan}
    evaluated = 1
    memo_hits = 0

    def run_stage(plans: list[Plan]) -> list[tuple[Plan, dict]]:
        nonlocal left, evaluated, memo_hits
        fresh: list[Plan] = []
        keys: dict[Plan, str] = {}
        stage: list[tuple[Plan, dict]] = []
        for p in plans:
            if p in seen:
                continue
            seen.add(p)
            keys[p] = plan_key(source, opts, p, **machine)
            hit = memo.load(keys[p])
            if hit is not None:
                memo_hits += 1
                records.append(EvalRecord(p, hit, cached=True))
                stage.append((p, hit))
            elif left > 0:
                fresh.append(p)
                left -= 1
        for p, metrics in zip(fresh, evaluator(fresh)):
            evaluated += 1
            if "error" not in metrics:
                memo.store(keys[p], metrics)
            records.append(EvalRecord(p, metrics))
            stage.append((p, metrics))
        return stage

    try:
        stage1 = run_stage(initial_moves(space, objective))
        stage2 = run_stage(
            refine_moves(space, base.time_us, stage1)
        )
        run_stage(
            combine_moves(space, base.time_us, stage1 + stage2)
        )
    finally:
        evaluator.close()

    best = base
    for rec in records:
        if rec.ok and rec.time_us < best.time_us:
            best = rec
    return TuneOutcome(
        base=base,
        best=best.plan,
        best_metrics=best.metrics,
        records=records,
        budget=budget,
        workers=workers,
        scheduler=scheduler,
        cost=cost,
        evaluated=evaluated,
        memo_hits=memo_hits,
        wall_s=time.perf_counter() - t0,
    )


def render_tune_report(outcome: TuneOutcome, max_plans: int = 12) -> str:
    """The ``fdc --autotune`` report."""
    o = outcome
    lines = [
        f"autotune: {o.evaluated} plan(s) simulated, "
        f"{o.memo_hits} memo hit(s) in {o.wall_s:.2f}s "
        f"({o.plans_per_s:.1f} plans/s, "
        + (f"{o.workers} workers)" if o.workers >= 2 else "serial)"),
        f"  as-written   {o.base.plan.describe():<32} "
        f"{o.base.time_us:>12.2f} us",
    ]
    if o.best == o.base.plan:
        lines.append("  best: the as-written plan — no candidate beat it")
    else:
        lines.append(
            f"  best         {o.best.describe():<32} "
            f"{o.best_metrics['time_us']:>12.2f} us  "
            f"(predicted speedup {o.predicted_speedup:.2f}x)"
        )
        lines.append("  apply with:  " + " ".join(o.best.cli_flags()))
    ranked = sorted((r for r in o.records if r.ok),
                    key=lambda r: (r.time_us, r.plan.describe()))
    if ranked:
        lines.append("  candidates:")
        for r in ranked[:max_plans]:
            mark = " (memo)" if r.cached else ""
            lines.append(
                f"    {r.time_us:>12.2f} us  {r.plan.describe()}{mark}"
            )
        if len(ranked) > max_plans:
            lines.append(f"    ... {len(ranked) - max_plans} more")
    failed = [r for r in o.records if not r.ok]
    for r in failed:
        lines.append(
            f"    infeasible: {r.plan.describe()} "
            f"({r.metrics.get('error', '?')})"
        )
    return "\n".join(lines)
