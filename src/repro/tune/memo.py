"""Crash-safe plan-evaluation memo.

Maps :func:`~repro.tune.plan.plan_key` digests to their metrics dicts so
repeated tuning runs (and sibling searches over the same program) never
re-simulate a plan.  Storage is a :class:`repro.cas.Cas` namespace
(``tune-eval``, JSON payloads); the disk discipline is documented once,
in DESIGN.md § 7 Stores.

The directory comes from (first match wins): the explicit ``directory``
argument, ``REPRO_TUNE_CACHE``, or ``~/.cache/repro-tune``; an empty
``REPRO_TUNE_CACHE`` disables the disk tier.
"""

from __future__ import annotations

import os
from typing import Optional

from ..cas import JSON, Cas
from .plan import MEMO_VERSION


def default_memo_dir() -> Optional[str]:
    if "REPRO_TUNE_CACHE" in os.environ:
        return os.environ["REPRO_TUNE_CACHE"] or None
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-tune")


class EvalMemo(Cas):
    """Two-tier (memory + optional disk) evaluation memo."""

    def __init__(self, directory: Optional[str] = None,
                 use_default_dir: bool = True) -> None:
        if directory is None and use_default_dir:
            directory = default_memo_dir()
        super().__init__(
            "tune-eval", MEMO_VERSION, "eval-", ".json", JSON,
            kind=dict, directory=directory)
