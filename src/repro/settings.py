"""The one reader of the environment (DESIGN.md § 8 Settings tables it).

Every ``REPRO_*`` variable is one field of the frozen :class:`Settings`;
:meth:`Settings.from_env` is the only code in ``src/repro`` that reads
``os.environ``.  Readers resolve *explicit argument > settings >
default* and call ``from_env()`` per entry-point call, never at import.
Structured values (fault spec and seed, topology, trace sample spec)
stay stripped strings for their owners to parse, so a malformed one
fails the run that uses it and nothing else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

OFF = ("0", "false", "no", "off")
ON = ("1", "true", "yes", "on")
#: flight-recorder ring size (events per rank) unless REPRO_FLIGHTREC sets one
DEFAULT_CAPACITY = 256


def switch(text: Optional[str], default: bool) -> bool:
    """Strip, ignore case: an off word is off, empty is *default*."""
    v = (text or "").strip().lower()
    return default if not v else v not in OFF


def number(text: Optional[str], convert: Callable[[str], Any],
           default: Any = None) -> Any:
    """*convert* of the stripped text; empty or garbage is *default*."""
    try:
        return convert((text or "").strip())
    except ValueError:
        return default


def _directory(text: Optional[str], leaf: Optional[str]) -> Optional[str]:
    """Unset is ``~/.cache/<leaf>`` (None without one); empty is None."""
    if text is None:
        return leaf and os.path.join(os.path.expanduser("~"), ".cache", leaf)
    return text.strip() or None


def _trace(text: Optional[str]) -> Union[bool, str]:
    """A switch, or the path the Chrome trace is written to."""
    v = (text or "").strip()
    if not switch(v, False):
        return False
    return True if v.lower() in ON else v


def _capacity(text: Optional[str]) -> int:
    """A switch whose "on" may be a ring size (floored at 0)."""
    v = (text or "").strip().lower()
    if v in OFF:
        return 0
    return max(0, number("" if v in ON else v, int, DEFAULT_CAPACITY))


@dataclass(frozen=True)
class Settings:
    """Every ``REPRO_*`` variable, parsed; see :meth:`from_env`."""

    codegen: bool
    vectorize: bool
    codegen_cache: Optional[str]
    scheduler: str
    topology: str
    sim_timeout_s: float
    faults: str
    fault_seed: str
    metrics: bool
    trace: Union[bool, str]
    trace_sample: str
    flightrec: int
    postmortem_dir: Optional[str]
    server: str
    tune_cache: Optional[str]

    @classmethod
    def from_env(cls) -> "Settings":
        env = os.environ.get

        def text(name: str) -> str:
            return (env(name) or "").strip()

        return cls(
            codegen=switch(env("REPRO_CODEGEN"), True),
            vectorize=switch(env("REPRO_VECTORIZE"), True),
            codegen_cache=_directory(env("REPRO_CODEGEN_CACHE"),
                                     "repro-codegen"),
            scheduler=text("REPRO_SCHEDULER").lower() or "event",
            topology=text("REPRO_TOPOLOGY") or "uniform",
            sim_timeout_s=number(env("REPRO_SIM_TIMEOUT"), float, 60.0),
            faults=text("REPRO_FAULTS"),
            fault_seed=text("REPRO_FAULT_SEED"),
            metrics=switch(env("REPRO_METRICS"), False),
            trace=_trace(env("REPRO_TRACE")),
            trace_sample=text("REPRO_TRACE_SAMPLE"),
            flightrec=_capacity(env("REPRO_FLIGHTREC")),
            postmortem_dir=_directory(env("REPRO_POSTMORTEM_DIR"), None),
            server=text("REPRO_SERVER"),
            tune_cache=_directory(env("REPRO_TUNE_CACHE"), "repro-tune"),
        )
