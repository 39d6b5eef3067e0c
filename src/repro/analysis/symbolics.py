"""Symbolic and constant analysis.

Small but load-bearing: constant folding/evaluation under a PARAMETER
environment, substitution of formals by actuals (the `Translate` machinery
of §5.1 needs it), and recognition of the affine subscript forms the
partitioner and dependence analyzer understand (``c``, ``i``, ``i ± c``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..lang import ast as A

Number = Union[int, float]


def eval_const(e: A.Expr, env: Mapping[str, Number] | None = None) -> Optional[Number]:
    """Evaluate *e* to a number when possible, else None.

    *env* supplies PARAMETER constants and any propagated interprocedural
    constants.
    """
    env = env or {}
    if isinstance(e, A.Num):
        return e.value
    if isinstance(e, A.Var):
        return env.get(e.name)
    if isinstance(e, A.UnOp) and e.op == "-":
        v = eval_const(e.operand, env)
        return None if v is None else -v
    if isinstance(e, A.BinOp):
        a = eval_const(e.left, env)
        b = eval_const(e.right, env)
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                return None
            if isinstance(a, int) and isinstance(b, int):
                return int(a / b) if (a < 0) != (b < 0) else a // b
            return a / b
        if e.op == "**":
            return a ** b
        return None
    if isinstance(e, A.CallExpr):  # an intrinsic; a FuncRef never folds
        args = [eval_const(a, env) for a in e.args]
        if any(v is None for v in args):
            return None
        if e.name == "min":
            return min(args)  # type: ignore[arg-type]
        if e.name == "max":
            return max(args)  # type: ignore[arg-type]
        if e.name == "mod":
            return args[0] % args[1]  # type: ignore[operator]
        if e.name == "abs":
            return abs(args[0])  # type: ignore[arg-type]
        return None
    return None


def eval_int(e: A.Expr, env: Mapping[str, Number] | None = None) -> Optional[int]:
    """eval_const restricted to integers."""
    v = eval_const(e, env)
    if isinstance(v, int):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return None


def substitute(e: A.Expr, bindings: Mapping[str, A.Expr]) -> A.Expr:
    """Replace variable occurrences per *bindings* (used to translate
    expressions in callee terms into caller terms)."""
    if isinstance(e, A.Var):
        return bindings.get(e.name, e)
    if isinstance(e, A.BinOp):
        return A.BinOp(e.op, substitute(e.left, bindings),
                       substitute(e.right, bindings))
    if isinstance(e, A.UnOp):
        return A.UnOp(e.op, substitute(e.operand, bindings))
    if isinstance(e, (A.CallExpr, A.FuncRef)):
        return type(e)(e.name, tuple(substitute(a, bindings) for a in e.args))
    if isinstance(e, A.ArrayRef):
        return A.ArrayRef(e.name, tuple(substitute(s, bindings) for s in e.subs))
    if isinstance(e, A.Triplet):
        return A.Triplet(
            substitute(e.lo, bindings) if e.lo is not None else None,
            substitute(e.hi, bindings) if e.hi is not None else None,
            substitute(e.step, bindings) if e.step is not None else None,
        )
    return e


def fold(e: A.Expr, env: Mapping[str, Number] | None = None) -> A.Expr:
    """Constant-fold *e* (recursively), leaving symbolic parts intact."""
    v = eval_const(e, env)
    if v is not None:
        return A.Num(v)
    if isinstance(e, A.BinOp):
        l, r = fold(e.left, env), fold(e.right, env)
        if e.op == "+":
            return A.add(l, r)
        if e.op == "-":
            return A.sub(l, r)
        if e.op == "*":
            return A.mul(l, r)
        return A.BinOp(e.op, l, r)
    if isinstance(e, A.UnOp):
        return A.UnOp(e.op, fold(e.operand, env))
    if isinstance(e, (A.CallExpr, A.FuncRef)):
        return type(e)(e.name, tuple(fold(a, env) for a in e.args))
    return e


@dataclass(frozen=True)
class Affine:
    """Affine subscript ``var + offset`` (coefficient 1) or a pure
    constant (``var is None``)."""

    var: Optional[str]
    offset: int

    @property
    def is_const(self) -> bool:
        return self.var is None


def affine_of(
    e: A.Expr, env: Mapping[str, Number] | None = None
) -> Optional[Affine]:
    """Recognize the subscript forms the compiler partitions on:
    ``c``, ``i``, ``i + c``, ``i - c``, ``c + i``.  Returns None for
    anything else (those references fall back to run-time resolution).
    """
    env = env or {}
    c = eval_int(e, env)
    if c is not None:
        return Affine(None, c)
    if isinstance(e, A.Var):
        return Affine(e.name, 0)
    if isinstance(e, A.BinOp) and e.op in ("+", "-"):
        lc = eval_int(e.left, env)
        rc = eval_int(e.right, env)
        if isinstance(e.left, A.Var) and rc is not None:
            return Affine(e.left.name, rc if e.op == "+" else -rc)
        if e.op == "+" and lc is not None and isinstance(e.right, A.Var):
            return Affine(e.right.name, lc)
    return None


def free_vars(e: A.Expr) -> set[str]:
    """Names of all variables occurring in *e*."""
    out: set[str] = set()
    for sub in A.walk_exprs(e):
        if isinstance(sub, A.Var):
            out.add(sub.name)
        elif isinstance(sub, A.ArrayRef):
            out.add(sub.name)
    return out


def is_invariant(e: A.Expr, loop_vars: set[str]) -> bool:
    """True when *e* mentions none of *loop_vars* (loop-invariant with
    respect to them)."""
    return not (free_vars(e) & loop_vars)
