"""Abstract syntax tree for the Fortran D dialect plus SPMD extensions.

Two layers of nodes live here:

* **Source nodes** — everything the parser can produce from user code,
  including the Fortran D data-placement statements.
* **SPMD nodes** — message passing, remapping, and processor-identity
  nodes emitted by the compiler (never by the parser).  Keeping both in
  one tree lets the interpreter execute compiler output directly and the
  pretty-printer show node programs in the style of the paper's figures.

All nodes are plain dataclasses with structural equality, which the test
suite leans on heavily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for expressions (frozen: expressions are values)."""


@dataclass(frozen=True)
class Num(Expr):
    """Integer or real literal."""

    value: Union[int, float]


@dataclass(frozen=True)
class Logical(Expr):
    """``.true.`` / ``.false.`` literal."""

    value: bool


@dataclass(frozen=True)
class Str(Expr):
    """Character literal (used only by PRINT)."""

    value: str


@dataclass(frozen=True)
class Var(Expr):
    """Scalar variable reference (or array name used as a whole)."""

    name: str


@dataclass(frozen=True)
class ArrayRef(Expr):
    """Array element (or section) reference ``name(sub, ...)``."""

    name: str
    subs: tuple[Expr, ...]


@dataclass(frozen=True)
class Triplet(Expr):
    """Fortran 90 section triplet ``lo:hi[:step]`` inside a subscript.

    ``lo``/``hi`` of ``None`` mean "whole extent in that dimension".
    """

    lo: Optional[Expr]
    hi: Optional[Expr]
    step: Optional[Expr] = None


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation; ``op`` is the canonical operator spelling."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnOp(Expr):
    """Unary operation (``-`` or ``.not.``)."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class CallExpr(Expr):
    """Function or intrinsic call in expression position."""

    name: str
    args: tuple[Expr, ...]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statements (mutable: the compiler rewrites trees)."""


@dataclass
class Assign(Stmt):
    target: Union[Var, ArrayRef]
    expr: Expr
    label: Optional[str] = None  # e.g. the paper's S1, S2 statement tags


@dataclass
class If(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class Do(Stmt):
    var: str
    lo: Expr
    hi: Expr
    step: Expr
    body: list[Stmt]


@dataclass
class DoWhile(Stmt):
    cond: Expr
    body: list[Stmt]


@dataclass
class Call(Stmt):
    name: str
    args: list[Expr]
    label: Optional[str] = None


@dataclass
class Return(Stmt):
    pass


@dataclass
class Stop(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Print(Stmt):
    items: list[Expr]


# ---- Fortran D data placement statements ---------------------------------


@dataclass(frozen=True)
class DistSpec:
    """One dimension of a DISTRIBUTE: ``block``, ``cyclic``,
    ``block_cyclic`` (with ``param`` = block size), or ``:`` (kind
    ``none``, dimension not distributed)."""

    kind: str  # "block" | "cyclic" | "block_cyclic" | "none"
    param: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == "none":
            return ":"
        if self.kind == "block_cyclic":
            return f"block_cyclic({self.param})"
        return self.kind


@dataclass
class Decomposition(Stmt):
    """``DECOMPOSITION D(n1, n2, ...)`` — declares an index domain."""

    name: str
    extents: list[Expr]


@dataclass
class Align(Stmt):
    """``ALIGN X(i, j) WITH D(j, i)`` — maps array elements onto a
    decomposition.  ``source_subs``/``target_subs`` are placeholder index
    names (strings); a permutation/identity mapping is supported."""

    array: str
    source_subs: list[str]
    decomp: str
    target_subs: list[str]


@dataclass
class Distribute(Stmt):
    """``DISTRIBUTE D(BLOCK, :)`` — maps a decomposition (or an array with
    its implicit decomposition) onto the machine."""

    name: str
    specs: list[DistSpec]


# ---- SPMD nodes (generated by the compiler only) --------------------------


@dataclass
class SetMyProc(Stmt):
    """``my$p = myproc()`` — bind the node's processor number."""

    var: str = "my$p"


@dataclass
class Send(Stmt):
    """Send the array section described by ``subs`` (index exprs and/or
    Triplets, in *global* index space) to processor ``dest``."""

    array: str
    subs: list[Expr]
    dest: Expr
    tag: int = 0
    comment: str = ""


@dataclass
class Recv(Stmt):
    """Receive into the array section described by ``subs`` from
    processor ``src``."""

    array: str
    subs: list[Expr]
    src: Expr
    tag: int = 0
    comment: str = ""


@dataclass
class SendPack(Stmt):
    """Aggregated message (§5.4 "aggregate RSDs for messages to the same
    processor"): several array sections travel in one message."""

    parts: list[tuple[str, list[Expr]]]  # (array, subs) pairs
    dest: Expr
    tag: int = 0
    comment: str = ""


@dataclass
class RecvPack(Stmt):
    """Receiving side of an aggregated message; parts unpack in order."""

    parts: list[tuple[str, list[Expr]]]
    src: Expr
    tag: int = 0
    comment: str = ""


@dataclass
class Bcast(Stmt):
    """Broadcast a section from processor ``root`` to all processors.
    Every node executes this statement (collective)."""

    array: str
    subs: list[Expr]
    root: Expr
    tag: int = 0
    comment: str = ""


@dataclass
class GlobalReduce(Stmt):
    """Collective reduction of scalar variable ``var`` with ``op`` in
    {"sum", "max", "min", "maxloc"}; for maxloc, ``aux`` names the index
    variable carried along."""

    var: str
    op: str
    aux: Optional[str] = None
    tag: int = 0


@dataclass
class Remap(Stmt):
    """Physically redistribute ``array`` to distribution ``to_specs``
    (list of DistSpec).  Executed collectively; moves data between
    processors through the network."""

    array: str
    to_specs: list[DistSpec]
    comment: str = ""


@dataclass
class MarkDist(Stmt):
    """Remap-in-place: change the recorded distribution of ``array``
    without moving data (valid only when the array is dead — §6.3)."""

    array: str
    to_specs: list[DistSpec]


# --------------------------------------------------------------------------
# Program units
# --------------------------------------------------------------------------


@dataclass
class Decl:
    """A variable declaration.

    ``dims`` is a list of ``(lo, hi)`` expression pairs (``lo`` defaults
    to ``Num(1)``); empty for scalars.
    """

    type: str  # "real" | "integer" | "logical"
    name: str
    dims: list[tuple[Expr, Expr]] = field(default_factory=list)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class Param:
    """A PARAMETER constant."""

    name: str
    value: Expr


@dataclass
class Procedure:
    """A program unit: main program, subroutine, or function."""

    kind: str  # "program" | "subroutine" | "function"
    name: str
    formals: list[str]
    decls: list[Decl]
    params: list[Param]
    body: list[Stmt]
    result_type: Optional[str] = None  # for functions
    #: names placed in COMMON blocks (global arrays shared by name)
    commons: list[str] = field(default_factory=list)

    def decl(self, name: str) -> Optional[Decl]:
        for d in self.decls:
            if d.name == name:
                return d
        return None

    def param_value(self, name: str) -> Optional[Expr]:
        for p in self.params:
            if p.name == name:
                return p.value
        return None


@dataclass
class Program:
    """A whole program: all units, keyed by (lowercased) name."""

    units: list[Procedure]
    #: name -> position in ``units`` of the first unit so named.  Each
    #: hit is checked against ``units`` and a miss rebuilds it, so an
    #: in-place edit of ``units`` never serves a stale unit.
    _at: dict[str, int] = field(default_factory=dict, init=False,
                                repr=False, compare=False)

    def unit(self, name: str) -> Procedure:
        name = name.lower()
        units = self.units
        i = self._at.get(name)
        if i is None or i >= len(units) or units[i].name != name:
            self._at = at = {}
            for k, u in enumerate(units):
                at.setdefault(u.name, k)
            if name not in at:
                raise KeyError(name)
            i = at[name]
        return units[i]

    def add(self, unit: Procedure) -> None:
        """Append *unit*, keeping the name index in step."""
        self._at.setdefault(unit.name, len(self.units))
        self.units.append(unit)

    @property
    def main(self) -> Procedure:
        for u in self.units:
            if u.kind == "program":
                return u
        raise ValueError("program has no main unit")

    def names(self) -> list[str]:
        return [u.name for u in self.units]

    def common_decls(self) -> dict[str, Decl]:
        """Program-wide COMMON arrays: name -> declaration.  Every unit
        placing a name in COMMON must declare it with identical shape
        (classic storage-association tricks are not supported)."""
        out: dict[str, Decl] = {}
        for u in self.units:
            for name in u.commons:
                d = u.decl(name)
                if d is None or not d.is_array:
                    raise ValueError(
                        f"{u.name}: COMMON name {name!r} needs an array "
                        f"declaration"
                    )
                prev = out.get(name)
                if prev is not None and prev.dims != d.dims:
                    raise ValueError(
                        f"COMMON array {name!r} declared with different "
                        f"shapes in different units"
                    )
                out[name] = d
        return out


# --------------------------------------------------------------------------
# Generic traversal helpers
# --------------------------------------------------------------------------


def walk_exprs(e: Expr) -> Iterator[Expr]:
    """Yield *e* and every sub-expression, preorder."""
    yield e
    if isinstance(e, BinOp):
        yield from walk_exprs(e.left)
        yield from walk_exprs(e.right)
    elif isinstance(e, UnOp):
        yield from walk_exprs(e.operand)
    elif isinstance(e, CallExpr):
        for a in e.args:
            yield from walk_exprs(a)
    elif isinstance(e, ArrayRef):
        for s in e.subs:
            yield from walk_exprs(s)
    elif isinstance(e, Triplet):
        for s in (e.lo, e.hi, e.step):
            if s is not None:
                yield from walk_exprs(s)


def stmt_exprs(s: Stmt) -> Iterator[Expr]:
    """Yield the top-level expressions appearing directly in statement *s*
    (not descending into nested statements)."""
    if isinstance(s, Assign):
        yield s.target
        yield s.expr
    elif isinstance(s, If):
        yield s.cond
    elif isinstance(s, Do):
        yield s.lo
        yield s.hi
        yield s.step
    elif isinstance(s, DoWhile):
        yield s.cond
    elif isinstance(s, Call):
        yield from s.args
    elif isinstance(s, Print):
        yield from s.items
    elif isinstance(s, (Send, Recv, Bcast)):
        yield from s.subs
        if isinstance(s, Send):
            yield s.dest
        elif isinstance(s, Recv):
            yield s.src
        else:
            yield s.root
    elif isinstance(s, Decomposition):
        yield from s.extents


def child_blocks(s: Stmt) -> Iterator[list[Stmt]]:
    """Yield the statement lists nested inside *s*."""
    if isinstance(s, If):
        yield s.then_body
        yield s.else_body
    elif isinstance(s, (Do, DoWhile)):
        yield s.body


def ancestors(body: list[Stmt], target: Stmt) -> list[Stmt]:
    """The statements enclosing *target* (by identity) in *body*,
    outermost first: empty at top level and when *target* is absent."""

    def find(b: list[Stmt]) -> Optional[list[Stmt]]:
        for s in b:
            if s is target:
                return []
            for blk in child_blocks(s):
                sub = find(blk)
                if sub is not None:
                    return [s] + sub
        return None

    return find(body) or []


def walk_stmts(body: list[Stmt]) -> Iterator[Stmt]:
    """Yield every statement in *body*, preorder, descending into nests."""
    for s in body:
        yield s
        for blk in child_blocks(s):
            yield from walk_stmts(blk)


def walk_all_exprs(body: list[Stmt]) -> Iterator[Expr]:
    """Yield every expression (including subexpressions) in *body*."""
    for s in walk_stmts(body):
        for e in stmt_exprs(s):
            yield from walk_exprs(e)


def clone_stmt(s: Stmt) -> Stmt:
    """Deep-copy a statement tree (expressions shared: they're frozen)."""
    if isinstance(s, If):
        return If(s.cond, clone_body(s.then_body), clone_body(s.else_body))
    if isinstance(s, Do):
        return Do(s.var, s.lo, s.hi, s.step, clone_body(s.body))
    if isinstance(s, DoWhile):
        return DoWhile(s.cond, clone_body(s.body))
    if isinstance(s, Assign):
        return Assign(s.target, s.expr, s.label)
    if isinstance(s, Call):
        return Call(s.name, list(s.args), s.label)
    if isinstance(s, Print):
        return Print(list(s.items))
    if isinstance(s, Decomposition):
        return Decomposition(s.name, list(s.extents))
    if isinstance(s, Align):
        return Align(s.array, list(s.source_subs), s.decomp, list(s.target_subs))
    if isinstance(s, Distribute):
        return Distribute(s.name, list(s.specs))
    if isinstance(s, Send):
        return Send(s.array, list(s.subs), s.dest, s.tag, s.comment)
    if isinstance(s, SendPack):
        return SendPack([(a, list(x)) for a, x in s.parts], s.dest, s.tag,
                        s.comment)
    if isinstance(s, RecvPack):
        return RecvPack([(a, list(x)) for a, x in s.parts], s.src, s.tag,
                        s.comment)
    if isinstance(s, Recv):
        return Recv(s.array, list(s.subs), s.src, s.tag, s.comment)
    if isinstance(s, Bcast):
        return Bcast(s.array, list(s.subs), s.root, s.tag, s.comment)
    if isinstance(s, GlobalReduce):
        return GlobalReduce(s.var, s.op, s.aux, s.tag)
    if isinstance(s, Remap):
        return Remap(s.array, list(s.to_specs), s.comment)
    if isinstance(s, MarkDist):
        return MarkDist(s.array, list(s.to_specs))
    if isinstance(s, (Return, Stop, Continue, SetMyProc)):
        return replace_shallow(s)
    raise TypeError(f"clone_stmt: unhandled {type(s).__name__}")


def replace_shallow(s: Stmt) -> Stmt:
    return type(s)(**vars(s))


def clone_body(body: list[Stmt]) -> list[Stmt]:
    return [clone_stmt(s) for s in body]


def clone_procedure(p: Procedure, new_name: Optional[str] = None) -> Procedure:
    """Deep-copy a procedure, optionally renaming it (for cloning)."""
    return Procedure(
        kind=p.kind,
        name=new_name or p.name,
        formals=list(p.formals),
        decls=[Decl(d.type, d.name, list(d.dims)) for d in p.decls],
        params=[Param(q.name, q.value) for q in p.params],
        body=clone_body(p.body),
        result_type=p.result_type,
        commons=list(p.commons),
    )


# Convenience constructors -------------------------------------------------

ZERO = Num(0)
ONE = Num(1)


def var(name: str) -> Var:
    return Var(name.lower())


def add(a: Expr, b: Expr) -> Expr:
    """Build ``a + b`` with constant folding of integer literals."""
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(b, Num) and b.value == 0:
        return a
    if isinstance(a, Num) and a.value == 0:
        return b
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(b, Num) and b.value == 0:
        return a
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if isinstance(a, Num) and a.value == 1:
        return b
    if isinstance(b, Num) and b.value == 1:
        return a
    return BinOp("*", a, b)
