"""Pretty-printer: AST back to Fortran D / SPMD node-program text.

The output style follows the paper's figures: lowercase keywords,
two-space indentation inside loops and branches, and explicit ``send`` /
``recv`` pseudo-statements for the generated communication.
"""

from __future__ import annotations

from typing import Iterable

from . import ast as A

_INDENT = "  "


def expr_str(e: A.Expr) -> str:
    """Render an expression."""
    if isinstance(e, A.Num):
        return str(e.value)
    if isinstance(e, A.Logical):
        return ".true." if e.value else ".false."
    if isinstance(e, A.Str):
        return f"'{e.value}'"
    if isinstance(e, A.Var):
        return e.name
    if isinstance(e, A.ArrayRef):
        return f"{e.name}({', '.join(expr_str(s) for s in e.subs)})"
    if isinstance(e, (A.CallExpr, A.FuncRef)):
        return f"{e.name}({', '.join(expr_str(a) for a in e.args)})"
    if isinstance(e, A.Triplet):
        lo = expr_str(e.lo) if e.lo is not None else ""
        hi = expr_str(e.hi) if e.hi is not None else ""
        s = f"{lo}:{hi}"
        if e.step is not None:
            s += f":{expr_str(e.step)}"
        return s
    if isinstance(e, A.BinOp):
        return f"{_paren(e.left, e)} {e.op} {_paren(e.right, e, right=True)}"
    if isinstance(e, A.UnOp):
        return f"{e.op}{_paren(e.operand, e)}"
    raise TypeError(f"expr_str: unhandled {type(e).__name__}")


_PREC = {
    ".or.": 1, ".and.": 2,
    "==": 3, "/=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4, "*": 5, "/": 5, "**": 6,
}


def _prec_of(e: A.Expr) -> int:
    if isinstance(e, A.BinOp):
        return _PREC[e.op]
    if isinstance(e, A.UnOp):
        return 7
    return 99


def _paren(child: A.Expr, parent: A.BinOp | A.UnOp, right: bool = False) -> str:
    s = expr_str(child)
    if isinstance(parent, A.UnOp):
        need = _prec_of(child) < 7
    else:
        pp = _PREC[parent.op]
        cp = _prec_of(child)
        if cp < pp:
            need = True
        elif cp == pp:
            # exact AST round-trip: the parser is left-associative for
            # everything except **, so a same-precedence child on the
            # non-associating side needs parentheses
            need = (not right) if parent.op == "**" else right
        else:
            need = False
    return f"({s})" if need else s


def _section_str(array: str, subs: list[A.Expr]) -> str:
    return f"{array}({', '.join(expr_str(s) for s in subs)})"


def stmt_lines(s: A.Stmt, depth: int = 0) -> list[str]:
    """Render a statement (recursively) as indented lines."""
    pad = _INDENT * depth
    tag = ""
    label = getattr(s, "label", None)
    if label:
        tag = f"{label}: "

    if isinstance(s, A.Assign):
        return [f"{pad}{tag}{expr_str(s.target)} = {expr_str(s.expr)}"]
    if isinstance(s, A.If):
        lines = [f"{pad}if ({expr_str(s.cond)}) then"]
        for st in s.then_body:
            lines += stmt_lines(st, depth + 1)
        if s.else_body:
            lines.append(f"{pad}else")
            for st in s.else_body:
                lines += stmt_lines(st, depth + 1)
        lines.append(f"{pad}endif")
        return lines
    if isinstance(s, A.Do):
        hdr = f"{pad}do {s.var} = {expr_str(s.lo)}, {expr_str(s.hi)}"
        if s.step != A.ONE:
            hdr += f", {expr_str(s.step)}"
        lines = [hdr]
        for st in s.body:
            lines += stmt_lines(st, depth + 1)
        lines.append(f"{pad}enddo")
        return lines
    if isinstance(s, A.DoWhile):
        lines = [f"{pad}do while ({expr_str(s.cond)})"]
        for st in s.body:
            lines += stmt_lines(st, depth + 1)
        lines.append(f"{pad}enddo")
        return lines
    if isinstance(s, A.Call):
        args = ", ".join(expr_str(a) for a in s.args)
        return [f"{pad}{tag}call {s.name}({args})"]
    if isinstance(s, A.Return):
        return [f"{pad}return"]
    if isinstance(s, A.Stop):
        return [f"{pad}stop"]
    if isinstance(s, A.Continue):
        return [f"{pad}continue"]
    if isinstance(s, A.Print):
        return [f"{pad}print *, {', '.join(expr_str(i) for i in s.items)}"]
    if isinstance(s, A.Decomposition):
        ext = ", ".join(expr_str(e) for e in s.extents)
        return [f"{pad}decomposition {s.name}({ext})"]
    if isinstance(s, A.Align):
        src = ", ".join(s.source_subs)
        dst = ", ".join(s.target_subs)
        return [f"{pad}align {s.array}({src}) with {s.decomp}({dst})"]
    if isinstance(s, A.Distribute):
        specs = ", ".join(str(sp) for sp in s.specs)
        return [f"{pad}distribute {s.name}({specs})"]
    if isinstance(s, A.SetMyProc):
        return [f"{pad}{s.var} = myproc()"]
    if isinstance(s, A.Send):
        c = f"  ! {s.comment}" if s.comment else ""
        return [f"{pad}send {_section_str(s.array, s.subs)} to {expr_str(s.dest)}{c}"]
    if isinstance(s, A.Recv):
        c = f"  ! {s.comment}" if s.comment else ""
        return [f"{pad}recv {_section_str(s.array, s.subs)} from {expr_str(s.src)}{c}"]
    if isinstance(s, A.SendPack):
        c = f"  ! {s.comment}" if s.comment else ""
        secs = " + ".join(_section_str(a, subs) for a, subs in s.parts)
        return [f"{pad}send {secs} to {expr_str(s.dest)}{c}"]
    if isinstance(s, A.RecvPack):
        c = f"  ! {s.comment}" if s.comment else ""
        secs = " + ".join(_section_str(a, subs) for a, subs in s.parts)
        return [f"{pad}recv {secs} from {expr_str(s.src)}{c}"]
    if isinstance(s, A.Bcast):
        c = f"  ! {s.comment}" if s.comment else ""
        return [f"{pad}broadcast {_section_str(s.array, s.subs)} from {expr_str(s.root)}{c}"]
    if isinstance(s, A.GlobalReduce):
        aux = f", {s.aux}" if s.aux else ""
        return [f"{pad}global_{s.op}({s.var}{aux})"]
    if isinstance(s, A.Remap):
        specs = ", ".join(str(sp) for sp in s.to_specs)
        c = f"  ! {s.comment}" if s.comment else ""
        return [f"{pad}remap {s.array} to ({specs}){c}"]
    if isinstance(s, A.MarkDist):
        specs = ", ".join(str(sp) for sp in s.to_specs)
        return [f"{pad}mark {s.array} as ({specs})"]
    raise TypeError(f"stmt_lines: unhandled {type(s).__name__}")


def procedure_str(p: A.Procedure) -> str:
    """Render a full program unit."""
    lines: list[str] = []
    if p.kind == "program":
        lines.append(f"program {p.name}")
    elif p.kind == "subroutine":
        args = ", ".join(p.formals)
        lines.append(f"subroutine {p.name}({args})")
    else:
        args = ", ".join(p.formals)
        lines.append(f"{p.result_type} function {p.name}({args})")
    for d in p.decls:
        if d.dims:
            dims = ", ".join(
                expr_str(hi) if lo == A.ONE else f"{expr_str(lo)}:{expr_str(hi)}"
                for lo, hi in d.dims
            )
            lines.append(f"{_INDENT}{d.type} {d.name}({dims})")
        else:
            lines.append(f"{_INDENT}{d.type} {d.name}")
    if p.commons:
        lines.append(f"{_INDENT}common /blk/ {', '.join(p.commons)}")
    for q in p.params:
        lines.append(f"{_INDENT}parameter ({q.name} = {expr_str(q.value)})")
    for s in p.body:
        lines += stmt_lines(s, 1)
    lines.append("end")
    return "\n".join(lines)


def join_units(texts: Iterable[str]) -> str:
    """Render a whole program from its units' texts, in unit order."""
    return "\n\n".join(texts) + "\n"


def program_str(prog: A.Program) -> str:
    """Render a whole program."""
    return join_units(procedure_str(u) for u in prog.units)
