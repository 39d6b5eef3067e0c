"""Scheduler-backend selection.

Two backends drive the simulated ranks: ``event`` — the deterministic
single-threaded event loop in :mod:`repro.machine.event`, the default
and the only production scheduler — and ``threads``, the free-running
thread-per-rank oracle in :mod:`repro.machine.network` that the
differential suites compare it against
(``tests/test_scheduler_differential.py``).  Select with
``Machine(scheduler=...)``, ``REPRO_SCHEDULER`` in the environment, or
``fdc --scheduler``.
"""

from __future__ import annotations

import os
from typing import Optional

SCHEDULERS = ("event", "threads")


def resolve_scheduler(name: Optional[str]) -> str:
    """Explicit value, else ``REPRO_SCHEDULER``, else ``"event"``."""
    if name is None:
        name = os.environ.get("REPRO_SCHEDULER", "").strip().lower() or "event"
    if name == "coop":
        # legacy spelling of the retired cooperative backend, still
        # passed by the frozen benchmarks/e2e/layers.py --trace probes
        name = "event"
    if name not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {name!r} (choose from {SCHEDULERS})"
        )
    return name
