"""Crash-safe plan-evaluation memo.

Maps :func:`~repro.tune.plan.plan_key` digests to their metrics dicts so
repeated tuning runs (and sibling searches over the same program) never
re-simulate a plan.  Storage is a :class:`repro.cas.Cas` namespace
(``tune-eval``, JSON payloads); the disk discipline is documented once,
in DESIGN.md § 7 Stores.

The directory is the explicit ``directory`` argument, else
``REPRO_TUNE_CACHE`` (DESIGN.md § 8 Settings: empty is no disk tier).
"""

from __future__ import annotations

from typing import Optional

from ..cas import JSON, Cas
from ..settings import Settings
from .plan import MEMO_VERSION


class EvalMemo(Cas):
    """Two-tier (memory + optional disk) evaluation memo."""

    def __init__(self, directory: Optional[str] = None,
                 use_default_dir: bool = True) -> None:
        if directory is None and use_default_dir:
            directory = Settings.from_env().tune_cache
        super().__init__(
            "tune-eval", MEMO_VERSION, "eval-", ".json", JSON,
            kind=dict, directory=directory)
