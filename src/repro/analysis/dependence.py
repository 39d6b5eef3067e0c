"""Data dependence analysis for communication placement.

Message vectorization (§3 step 5, §5.4) places communication for a
nonlocal read at the *deepest loop carrying a true dependence* whose sink
is that read; absent loop-carried true dependences, messages are hoisted
(vectorized) out of the loop nest entirely.

The analyzer works on per-dimension *access descriptors* built either
from statement subscripts (``c``, ``i``, ``i ± c``) or from RSD
summaries at call sites (``k+1 : n`` style symbolic ranges).  Dependence
between two references is decided by intersecting, per common loop, the
interval of iteration distances ``d = r_iter - w_iter`` that allow the
two descriptors to touch the same element, then walking the common nest
outermost-first with the usual lexicographic-positivity argument.

The three result shapes:

* ``None`` — provably no true dependence;
* carried levels — the set of common-nest depths (1-based) at which a
  true dependence may be carried;
* loop-independent — a same-iteration dependence may exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from ..callgraph.acg import LoopInfo
from ..lang import ast as A
from .rsd import Range, SymDim
from .symbolics import affine_of, eval_int

NEG_INF = -math.inf
POS_INF = math.inf


@dataclass(frozen=True)
class DimAccess:
    """Access descriptor of one array dimension of one reference.

    kind:
      * ``const``    — numeric constant (``value``);
      * ``var``      — loop-affine point ``var + off``;
      * ``sym``      — symbolic point (non-loop variable + offset);
      * ``range``    — numeric range [lo, hi];
      * ``symrange`` — ``var + off : <loose upper bound>``;
      * ``unknown``  — anything else (conservative).
    """

    kind: str
    var: Optional[str] = None
    off: int = 0
    value: int = 0
    lo: int = 0
    hi: int = 0

    @staticmethod
    def const(v: int) -> "DimAccess":
        return DimAccess("const", value=v)

    @staticmethod
    def point(var: str, off: int = 0) -> "DimAccess":
        return DimAccess("var", var=var, off=off)

    @staticmethod
    def sym(var: str, off: int = 0) -> "DimAccess":
        return DimAccess("sym", var=var, off=off)

    @staticmethod
    def num_range(lo: int, hi: int) -> "DimAccess":
        return DimAccess("range", lo=lo, hi=hi)

    @staticmethod
    def sym_range(var: str, off: int) -> "DimAccess":
        return DimAccess("symrange", var=var, off=off)

    @staticmethod
    def unknown() -> "DimAccess":
        return DimAccess("unknown")


def classify_subscript(
    e: A.Expr,
    loop_vars: set[str],
    env: Mapping[str, int] | None = None,
) -> DimAccess:
    """Classify a statement subscript expression."""
    aff = affine_of(e, env)
    if aff is None:
        return DimAccess.unknown()
    if aff.is_const:
        return DimAccess.const(aff.offset)
    if aff.var in loop_vars:
        return DimAccess.point(aff.var, aff.offset)
    return DimAccess.sym(aff.var, aff.offset)


def classify_rsd_dim(
    dim: Union[Range, SymDim],
    loop_vars: set[str],
    env: Mapping[str, int] | None = None,
) -> DimAccess:
    """Classify one dimension of an RSD summary."""
    if isinstance(dim, Range):
        if dim.lo == dim.hi:
            return DimAccess.const(dim.lo)
        return DimAccess.num_range(dim.lo, dim.hi)
    # SymDim
    if dim.is_point:
        return classify_subscript(dim.lo, loop_vars, env)
    lo_aff = affine_of(dim.lo, env)
    lo_num = eval_int(dim.lo, env)
    hi_num = eval_int(dim.hi, env) if dim.hi is not None else None
    if lo_num is not None and hi_num is not None:
        return DimAccess.num_range(lo_num, hi_num)
    if lo_aff is not None and lo_aff.var in loop_vars:
        return DimAccess.sym_range(lo_aff.var, lo_aff.offset)
    return DimAccess.unknown()


@dataclass
class DepResult:
    """Outcome of a true-dependence test."""

    carried_levels: set[int] = field(default_factory=set)
    loop_independent: bool = False

    @property
    def exists(self) -> bool:
        return bool(self.carried_levels) or self.loop_independent

    def deepest(self) -> int:
        return max(self.carried_levels) if self.carried_levels else 0


@dataclass
class _Interval:
    """Iteration-distance interval [lo, hi] for one common loop."""

    lo: float = NEG_INF
    hi: float = POS_INF

    def restrict(self, lo: float = NEG_INF, hi: float = POS_INF) -> bool:
        """Intersect; return False when empty."""
        self.lo = max(self.lo, lo)
        self.hi = min(self.hi, hi)
        return self.lo <= self.hi

    def allows_positive(self) -> bool:
        return self.hi > 0

    def allows_zero(self) -> bool:
        return self.lo <= 0 <= self.hi


def _loop_relation(
    inner: LoopInfo, outer_var: str, env: Mapping[str, int] | None
) -> Optional[int]:
    """If ``inner``'s lower bound is ``outer_var + c``, return ``c``
    (proving inner >= outer + c throughout the nest); else None."""
    aff = affine_of(inner.lo, env)
    if aff is not None and aff.var == outer_var:
        return aff.offset
    return None


def true_dependence(
    wdims: Sequence[DimAccess],
    rdims: Sequence[DimAccess],
    common: Sequence[LoopInfo],
    env: Mapping[str, int] | None = None,
    w_before_r: bool = True,
) -> Optional[DepResult]:
    """Test for a true (flow) dependence write -> read.

    ``common`` is the shared loop nest (outermost first); both references
    must have one DimAccess per array dimension.  Returns None when no
    true dependence can exist.
    """
    if len(wdims) != len(rdims):
        raise ValueError("dimension count mismatch")
    by_var = {l.var: i for i, l in enumerate(common)}
    intervals = [_Interval() for _ in common]

    for w, r in zip(wdims, rdims):
        ok = _dim_constraint(w, r, common, by_var, intervals, env)
        if not ok:
            return None

    # lexicographic walk, outermost first
    result = DepResult()
    prefix_can_be_zero = True
    for depth, iv in enumerate(intervals, start=1):
        if not prefix_can_be_zero:
            break
        if iv.allows_positive():
            result.carried_levels.add(depth)
        if not iv.allows_zero():
            prefix_can_be_zero = False
    if prefix_can_be_zero:
        # all-zero distance vector possible: loop-independent dependence
        # (realizable when the write precedes the read in execution order)
        result.loop_independent = w_before_r
    if not result.exists:
        return None
    return result


def _dim_constraint(
    w: DimAccess,
    r: DimAccess,
    common: Sequence[LoopInfo],
    by_var: dict[str, int],
    intervals: list[_Interval],
    env: Mapping[str, int] | None,
) -> bool:
    """Apply the constraint of one dimension pair to the per-loop distance
    intervals.  Returns False when the dimension proves independence."""

    def loop_idx(var: Optional[str]) -> Optional[int]:
        return by_var.get(var) if var is not None else None

    wk, rk = w.kind, r.kind

    # --- both constant ---------------------------------------------------
    if wk == "const" and rk == "const":
        return w.value == r.value
    # --- numeric ranges (no loop coupling) -------------------------------
    if wk in ("const", "range") and rk in ("const", "range"):
        wlo, whi = (w.value, w.value) if wk == "const" else (w.lo, w.hi)
        rlo, rhi = (r.value, r.value) if rk == "const" else (r.lo, r.hi)
        return not (whi < rlo or rhi < wlo)
    # --- symbolic points -------------------------------------------------
    if wk == "sym" and rk == "sym":
        if w.var == r.var:
            return w.off == r.off
        return True  # unknown symbols: may be equal
    # --- unknown ---------------------------------------------------------
    if wk == "unknown" or rk == "unknown":
        return True  # no constraint, dependence allowed everywhere

    wi, ri = loop_idx(w.var), loop_idx(r.var)

    # --- same loop variable on both sides --------------------------------
    if wk == "var" and rk == "var" and w.var == r.var and wi is not None:
        # element equality: iw + w.off == ir + r.off -> d = w.off - r.off
        d = w.off - r.off
        return intervals[wi].restrict(d, d)
    if wk == "symrange" and rk == "var" and w.var == r.var and wi is not None:
        # write [iw + w.off : H], read point ir + r.off:
        # need ir + r.off >= iw + w.off  ->  d >= w.off - r.off
        return intervals[wi].restrict(lo=w.off - r.off)
    if wk == "var" and rk == "symrange" and w.var == r.var and wi is not None:
        # write point iw + w.off, read [ir + r.off : H]:
        # need iw + w.off >= ir + r.off  ->  d <= w.off - r.off
        return intervals[wi].restrict(hi=w.off - r.off)
    if wk == "symrange" and rk == "symrange" and w.var == r.var:
        return True  # ranges starting near each iteration: overlap freely

    # --- different loop variables -----------------------------------------
    if wk in ("var", "symrange") and rk in ("var", "symrange") \
            and wi is not None and ri is not None and wi != ri:
        inner_i, outer_i = max(wi, ri), min(wi, ri)
        inner, outer = common[inner_i], common[outer_i]
        c = _loop_relation(inner, outer.var, env)
        if c is not None:
            # provable inner >= outer + c
            if wi == inner_i:
                # write uses inner var j, read uses outer var k:
                # j_w + w.off == k_r + r.off with j_w >= k_w + c
                # -> d_outer = k_r - k_w >= c + w.off - r.off
                return intervals[outer_i].restrict(lo=c + w.off - r.off)
            # write uses outer var k, read uses inner var j:
            # k_w + w.off == j_r + r.off with j_r >= k_r + c
            # -> d_outer = k_r - k_w <= w.off - r.off - c
            return intervals[outer_i].restrict(hi=w.off - r.off - c)
        return True  # unrelated loops: free
    # --- loop var against constants / symbols / ranges ---------------------
    if wk in ("var", "symrange") and wi is not None:
        if rk == "const":
            # write touches element ir-invariantly reachable? check bounds
            lo_b = eval_int(common[wi].lo, env)
            hi_b = eval_int(common[wi].hi, env)
            if wk == "var" and lo_b is not None and hi_b is not None:
                if not (lo_b + w.off <= r.value <= hi_b + w.off):
                    return False
        return True
    if rk in ("var", "symrange") and ri is not None:
        if wk == "const":
            lo_b = eval_int(common[ri].lo, env)
            hi_b = eval_int(common[ri].hi, env)
            if rk == "var" and lo_b is not None and hi_b is not None:
                if not (lo_b + r.off <= w.value <= hi_b + r.off):
                    return False
        return True
    # points in non-common loops or symbols vs ranges: allow
    return True
