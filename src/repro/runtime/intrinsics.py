"""Intrinsic functions available to Fortran D programs and node code.

``f``/``g`` are the generic element functions the paper's examples apply
(``X(i) = F(X(i+5))``); they are fixed affine maps so sequential and
parallel executions are bit-comparable.

``myproc`` and ``owner`` are the node-program intrinsics of §3.1:
``myproc()`` is the local processor number; ``owner(X(i))`` — used by
run-time resolution code — returns the rank owning element ``i`` under
``X``'s *current* distribution.
"""

from __future__ import annotations

import math
from typing import Callable


def f_func(x: float) -> float:
    """The paper's generic F."""
    return 0.5 * x + 2.0


def g_func(x: float) -> float:
    """A second generic element function."""
    return 0.25 * x + 1.0


def _sign(a, b):
    return abs(a) if b >= 0 else -abs(a)


def _intdiv(a, b):
    """Fortran integer division truncates toward zero."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


#: Pure intrinsics: name -> python callable.  ``myproc`` and ``owner``
#: are handled specially by the interpreter (they need node context).
PURE_INTRINSICS: dict[str, Callable] = {
    "f": f_func,
    "g": g_func,
    "min": min,
    "max": max,
    "abs": abs,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "mod": lambda a, b: a - _intdiv(a, b) * b if isinstance(a, int) and isinstance(b, int) else math.fmod(a, b),
    "int": lambda x: int(x),
    "nint": lambda x: int(round(x)),
    "float": lambda x: float(x),
    "dble": lambda x: float(x),
    "sign": _sign,
    # positive modulus, used by compiler-generated cyclic partitioning
    "pmod": lambda a, p: ((int(a) % int(p)) + int(p)) % int(p),
}

CONTEXT_INTRINSICS = frozenset({"myproc", "owner"})

#: every intrinsic name: what name resolution (``lang/parser``) makes a
#: ``CallExpr`` when no user function of that name exists
INTRINSICS = frozenset(PURE_INTRINSICS) | CONTEXT_INTRINSICS
