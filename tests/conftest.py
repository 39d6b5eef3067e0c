"""Shared test configuration.

Deadlocks are detected instantly by the simulator's wait-for graph, so
the wall-clock timeout is only a safety net for detector regressions.
Keep it short in the suite: a bug should cost seconds, not the old
60-second silence.  Tests that need a specific value still win — an
explicit ``timeout_s=`` beats the environment, and ``setdefault`` never
overrides a value the invoker exported.
"""

import os

from repro.machine import SCHEDULERS

os.environ.setdefault("REPRO_SIM_TIMEOUT", "20")

#: every spelling ``scheduler=`` / ``REPRO_SCHEDULER`` accepts: the two
#: backends plus ``"coop"``, a legacy alias that resolves to ``"event"``
#: (the frozen ``benchmarks/e2e`` probes pass it).  Backend-parametrised
#: matrices run the alias as a case of its own, so it goes through the
#: same deadlock / trace / metrics checks as the name it stands for.
SCHEDULER_SPELLINGS = SCHEDULERS + ("coop",)
