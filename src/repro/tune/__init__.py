"""Profile-guided distribution auto-tuner (``fdc --autotune``).

The paper's compiler *chooses* communication for a given data layout;
this package closes the remaining loop and chooses the layout itself.
A traced baseline run yields the critical path and communication hot
spots (:func:`repro.obs.objective_summary`); those prune a search over
per-decomposition plans — BLOCK / CYCLIC / BLOCK_CYCLIC(k) per hot
DISTRIBUTE target plus a processor-count sweep — whose candidates are
scored on the event-backend simulator, in parallel across the compile
service's worker pool, with content-addressed per-procedure summary
reuse and a crash-safe evaluation memo keyed
``sha256(program ‖ options ‖ plan)``.

Layers::

    plan.py      Plan (+ apply/describe/cli_flags) and plan_key
    evaluate.py  the single shared compile+simulate probe
    memo.py      crash-safe evaluation memo (EvalMemo)
    space.py     search-space construction and pruning
    search.py    the staged search (autotune) + report rendering

See ``docs/autotune.md``.
"""

from .evaluate import COST_MODELS, evaluate_plan, make_eval_compiler
from .memo import EvalMemo
from .plan import MEMO_VERSION, Plan, plan_key
from .search import EvalRecord, TuneOutcome, autotune, \
    render_tune_report
from .space import TuneSpace, build_space, initial_moves

__all__ = [
    "COST_MODELS",
    "EvalMemo",
    "EvalRecord",
    "MEMO_VERSION",
    "Plan",
    "TuneOutcome",
    "TuneSpace",
    "autotune",
    "build_space",
    "evaluate_plan",
    "initial_moves",
    "make_eval_compiler",
    "plan_key",
    "render_tune_report",
]
