"""Recursive-descent parser for the Fortran D dialect.

Grammar (statement level, simplified)::

    program      := unit+
    unit         := ("program" NAME | "subroutine" NAME [formals]
                     | type "function" NAME formals) NL
                    spec* stmt* "end" NL
    spec         := type decl-list | "parameter" "(" ... ")"
                  | "decomposition" NAME "(" extents ")"
                  | "align" ... | "distribute" ...
    stmt         := assign | if | do | call | return | stop | print | ...

Specification statements (declarations, PARAMETER, Fortran D static
directives) may be interleaved with executable statements; Fortran D
ALIGN/DISTRIBUTE are *executable* so they stay in the body, while type
declarations and PARAMETER go to the unit header.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterator

from . import ast as A
from .lexer import eof_line, lex_lines, logical_lines
from .tokens import TokKind, Token


class CompileError(Exception):
    """Input outside the compilable subset with no safe fallback."""


class ParseError(Exception):
    def __init__(self, message: str, tok: Token) -> None:
        super().__init__(f"parse error at {tok.line}:{tok.col}: {message} (got {tok})")
        self.token = tok


_TYPE_WORDS = {"real", "integer", "logical", "double"}

#: Binary operator precedence, tighter binds higher.
_PREC = {
    ".or.": 1,
    ".and.": 2,
    "==": 3,
    "/=": 3,
    "<": 3,
    "<=": 3,
    ">": 3,
    ">=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
    "**": 6,
}


class Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.toks = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind is not TokKind.EOF:
            self.pos += 1
        return t

    def accept_op(self, op: str) -> bool:
        if self.peek().is_op(op):
            self.next()
            return True
        return False

    def accept_kw(self, word: str) -> bool:
        if self.peek().is_kw(word):
            self.next()
            return True
        return False

    def expect_op(self, op: str) -> Token:
        t = self.next()
        if not t.is_op(op):
            raise ParseError(f"expected {op!r}", t)
        return t

    def expect_kw(self, word: str) -> Token:
        t = self.next()
        if not t.is_kw(word):
            raise ParseError(f"expected keyword {word!r}", t)
        return t

    def expect_ident(self) -> str:
        t = self.next()
        if t.kind is not TokKind.IDENT:
            raise ParseError("expected identifier", t)
        return t.text

    def expect_nl(self) -> None:
        t = self.next()
        if t.kind not in (TokKind.NEWLINE, TokKind.EOF):
            raise ParseError("expected end of statement", t)

    def skip_newlines(self) -> None:
        while self.peek().kind is TokKind.NEWLINE:
            self.next()

    # -- program structure ---------------------------------------------

    def parse_program(self) -> A.Program:
        units: list[A.Procedure] = []
        self.skip_newlines()
        while self.peek().kind is not TokKind.EOF:
            units.append(self.parse_unit())
            self.skip_newlines()
        if not units:
            raise ParseError("empty program", self.peek())
        return A.Program(units)

    def parse_unit(self) -> A.Procedure:
        t = self.peek()
        result_type = None
        if t.is_kw("program"):
            self.next()
            kind = "program"
            name = self.expect_ident()
            formals: list[str] = []
        elif t.is_kw("subroutine"):
            self.next()
            kind = "subroutine"
            name = self.expect_ident()
            formals = self.parse_formals()
        elif t.kind is TokKind.KEYWORD and t.text in _TYPE_WORDS:
            # `<type> function name(args)`
            result_type = self.parse_type_word()
            self.expect_kw("function")
            kind = "function"
            name = self.expect_ident()
            formals = self.parse_formals()
        elif t.is_kw("function"):
            self.next()
            kind = "function"
            result_type = "real"
            name = self.expect_ident()
            formals = self.parse_formals()
        else:
            raise ParseError("expected PROGRAM/SUBROUTINE/FUNCTION", t)
        self.expect_nl()

        proc = A.Procedure(kind, name, formals, [], [], [], result_type)
        proc.body = self.parse_body(proc, end_words=("end",))
        self.expect_kw("end")
        if self.peek().kind is not TokKind.EOF:
            self.expect_nl()
        return proc

    def parse_formals(self) -> list[str]:
        if not self.accept_op("("):
            return []
        formals = []
        if not self.peek().is_op(")"):
            formals.append(self.expect_ident())
            while self.accept_op(","):
                formals.append(self.expect_ident())
        self.expect_op(")")
        return formals

    def parse_type_word(self) -> str:
        t = self.next()
        if t.text == "double":
            self.expect_kw("precision")
            return "real"
        if t.text not in _TYPE_WORDS:
            raise ParseError("expected type", t)
        return t.text

    # -- statement bodies -----------------------------------------------

    def parse_body(self, proc: A.Procedure, end_words: tuple[str, ...]) -> list[A.Stmt]:
        body: list[A.Stmt] = []
        while True:
            self.skip_newlines()
            t = self.peek()
            if t.kind is TokKind.EOF:
                raise ParseError(f"expected one of {end_words}", t)
            if t.kind is TokKind.KEYWORD and t.text in end_words:
                return body
            # `else` / `elseif` terminate a then-branch
            if t.kind is TokKind.KEYWORD and t.text in ("else", "elseif") and "endif" in end_words:
                return body
            stmt = self.parse_statement(proc)
            if stmt is not None:
                body.append(stmt)

    def parse_statement(self, proc: A.Procedure) -> A.Stmt | None:
        t = self.peek()
        # optional statement label of the form `S1:` (as in the paper's
        # figures) applied to the statement that follows
        if t.kind is TokKind.IDENT and self.peek(1).is_op(":"):
            label = t.text
            self.next()
            self.next()
            stmt = self.parse_statement(proc)
            if stmt is not None and hasattr(stmt, "label"):
                stmt.label = label
            return stmt
        if t.kind is TokKind.KEYWORD:
            word = t.text
            if word in _TYPE_WORDS:
                self.parse_declaration(proc)
                return None
            if word == "dimension":
                self.parse_dimension(proc)
                return None
            if word == "parameter":
                self.parse_parameter(proc)
                return None
            if word in ("external", "intrinsic"):
                # accepted and ignored
                while self.peek().kind not in (TokKind.NEWLINE, TokKind.EOF):
                    self.next()
                self.expect_nl()
                return None
            if word == "common":
                self.parse_common(proc)
                return None
            if word == "decomposition":
                return self.parse_decomposition()
            if word == "align":
                return self.parse_align()
            if word == "distribute":
                return self.parse_distribute()
            if word == "do":
                return self.parse_do(proc)
            if word == "if":
                return self.parse_if(proc)
            if word == "call":
                return self.parse_call()
            if word == "return":
                self.next()
                self.expect_nl()
                return A.Return()
            if word == "stop":
                self.next()
                self.expect_nl()
                return A.Stop()
            if word == "continue":
                self.next()
                self.expect_nl()
                return A.Continue()
            if word == "print":
                return self.parse_print()
            raise ParseError(f"unexpected keyword {word!r}", t)
        if t.kind is TokKind.IDENT:
            return self.parse_assign()
        if t.kind is TokKind.NEWLINE:
            self.next()
            return None
        raise ParseError("expected statement", t)

    # -- specification statements ----------------------------------------

    def parse_declaration(self, proc: A.Procedure) -> None:
        typ = self.parse_type_word()
        if self.peek().is_kw("function"):
            raise ParseError("FUNCTION not allowed here", self.peek())
        while True:
            name = self.expect_ident()
            dims: list[tuple[A.Expr, A.Expr]] = []
            if self.accept_op("("):
                dims.append(self.parse_dim_bound())
                while self.accept_op(","):
                    dims.append(self.parse_dim_bound())
                self.expect_op(")")
            proc.decls.append(A.Decl(typ, name, dims))
            if not self.accept_op(","):
                break
        self.expect_nl()

    def parse_dim_bound(self) -> tuple[A.Expr, A.Expr]:
        first = self.parse_expr()
        if self.accept_op(":"):
            hi = self.parse_expr()
            return (first, hi)
        return (A.ONE, first)

    def parse_dimension(self, proc: A.Procedure) -> None:
        self.expect_kw("dimension")
        while True:
            name = self.expect_ident()
            self.expect_op("(")
            dims = [self.parse_dim_bound()]
            while self.accept_op(","):
                dims.append(self.parse_dim_bound())
            self.expect_op(")")
            existing = proc.decl(name)
            if existing is not None:
                existing.dims = dims
            else:
                proc.decls.append(A.Decl("real", name, dims))
            if not self.accept_op(","):
                break
        self.expect_nl()

    def parse_common(self, proc: A.Procedure) -> None:
        """``common /blk/ a, b`` — the block name only groups; identity
        of a global is its variable name."""
        self.expect_kw("common")
        if self.accept_op("/"):
            self.expect_ident()  # block name (grouping only)
            self.expect_op("/")
        while True:
            name = self.expect_ident()
            if name not in proc.commons:
                proc.commons.append(name)
            if not self.accept_op(","):
                break
        self.expect_nl()

    def parse_parameter(self, proc: A.Procedure) -> None:
        self.expect_kw("parameter")
        self.expect_op("(")
        while True:
            name = self.expect_ident()
            self.expect_op("=")
            value = self.parse_expr()
            proc.params.append(A.Param(name, value))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        self.expect_nl()

    # -- Fortran D statements ----------------------------------------------

    def parse_decomposition(self) -> A.Decomposition:
        self.expect_kw("decomposition")
        name = self.expect_ident()
        self.expect_op("(")
        extents = [self.parse_expr()]
        while self.accept_op(","):
            extents.append(self.parse_expr())
        self.expect_op(")")
        self.expect_nl()
        return A.Decomposition(name, extents)

    def parse_align(self) -> A.Align:
        self.expect_kw("align")
        array = self.expect_ident()
        source_subs = self.parse_index_names()
        self.expect_kw("with")
        decomp = self.expect_ident()
        target_subs = self.parse_index_names()
        self.expect_nl()
        return A.Align(array, source_subs, decomp, target_subs)

    def parse_index_names(self) -> list[str]:
        names: list[str] = []
        if self.accept_op("("):
            names.append(self.expect_ident())
            while self.accept_op(","):
                names.append(self.expect_ident())
            self.expect_op(")")
        return names

    def parse_distribute(self) -> A.Distribute:
        self.expect_kw("distribute")
        name = self.expect_ident()
        self.expect_op("(")
        specs = [self.parse_dist_spec()]
        while self.accept_op(","):
            specs.append(self.parse_dist_spec())
        self.expect_op(")")
        self.expect_nl()
        return A.Distribute(name, specs)

    def parse_dist_spec(self) -> A.DistSpec:
        t = self.peek()
        if t.is_op(":"):
            self.next()
            return A.DistSpec("none")
        word = self.expect_ident()
        if word == "block":
            return A.DistSpec("block")
        if word == "cyclic":
            return A.DistSpec("cyclic")
        if word == "block_cyclic":
            self.expect_op("(")
            size_tok = self.next()
            if size_tok.kind is not TokKind.INT:
                raise ParseError("expected block size", size_tok)
            self.expect_op(")")
            return A.DistSpec("block_cyclic", int(size_tok.text))
        raise ParseError(f"unknown distribution {word!r}", t)

    # -- executable statements ----------------------------------------------

    def parse_do(self, proc: A.Procedure) -> A.Stmt:
        self.expect_kw("do")
        if self.peek().is_kw("while"):
            self.next()
            self.expect_op("(")
            cond = self.parse_expr()
            self.expect_op(")")
            self.expect_nl()
            body = self.parse_body(proc, end_words=("enddo",))
            self.expect_kw("enddo")
            self.expect_nl()
            return A.DoWhile(cond, body)
        var = self.expect_ident()
        self.expect_op("=")
        lo = self.parse_expr()
        self.expect_op(",")
        hi = self.parse_expr()
        step: A.Expr = A.ONE
        if self.accept_op(","):
            step = self.parse_expr()
        self.expect_nl()
        body = self.parse_body(proc, end_words=("enddo",))
        self.expect_kw("enddo")
        self.expect_nl()
        return A.Do(var, lo, hi, step, body)

    def parse_if(self, proc: A.Procedure) -> A.If:
        self.expect_kw("if")
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        if self.accept_kw("then"):
            self.expect_nl()
            then_body = self.parse_body(proc, end_words=("endif",))
            else_body: list[A.Stmt] = []
            if self.accept_kw("elseif"):
                # parse `elseif (cond) then ...` as a nested If in else branch
                self.pos -= 1
                self.toks[self.pos] = Token(TokKind.KEYWORD, "if",
                                            self.peek().line, self.peek().col)
                else_body = [self.parse_if(proc)]
                return A.If(cond, then_body, else_body)
            if self.accept_kw("else"):
                self.expect_nl()
                else_body = self.parse_body(proc, end_words=("endif",))
            self.expect_kw("endif")
            self.expect_nl()
            return A.If(cond, then_body, else_body)
        # single-statement logical IF
        stmt = self.parse_statement(proc)
        if stmt is None:
            raise ParseError("expected statement after logical IF", self.peek())
        return A.If(cond, [stmt], [])

    def parse_call(self) -> A.Call:
        self.expect_kw("call")
        name = self.expect_ident()
        args: list[A.Expr] = []
        if self.accept_op("("):
            if not self.peek().is_op(")"):
                args.append(self.parse_expr())
                while self.accept_op(","):
                    args.append(self.parse_expr())
            self.expect_op(")")
        self.expect_nl()
        return A.Call(name, args)

    def parse_print(self) -> A.Print:
        self.expect_kw("print")
        self.expect_op("*")
        items: list[A.Expr] = []
        while self.accept_op(","):
            items.append(self.parse_expr())
        self.expect_nl()
        return A.Print(items)

    def parse_assign(self) -> A.Assign:
        name = self.expect_ident()
        target: A.Var | A.ArrayRef
        if self.accept_op("("):
            subs = [self.parse_subscript()]
            while self.accept_op(","):
                subs.append(self.parse_subscript())
            self.expect_op(")")
            target = A.ArrayRef(name, tuple(subs))
        else:
            target = A.Var(name)
        self.expect_op("=")
        expr = self.parse_expr()
        self.expect_nl()
        return A.Assign(target, expr)

    # -- expressions ---------------------------------------------------------

    def parse_subscript(self) -> A.Expr:
        """A subscript: an expression or a triplet ``lo:hi[:step]``."""
        if self.peek().is_op(":"):
            self.next()
            return A.Triplet(None, None)
        lo = self.parse_expr()
        if self.accept_op(":"):
            hi = self.parse_expr()
            step = None
            if self.accept_op(":"):
                step = self.parse_expr()
            return A.Triplet(lo, hi, step)
        return lo

    def parse_expr(self, min_prec: int = 1) -> A.Expr:
        left = self.parse_unary()
        while True:
            t = self.peek()
            if t.kind is not TokKind.OP or t.text not in _PREC:
                return left
            prec = _PREC[t.text]
            if prec < min_prec:
                return left
            op = t.text
            self.next()
            # ** is right-associative
            right = self.parse_expr(prec if op == "**" else prec + 1)
            left = A.BinOp(op, left, right)

    def parse_unary(self) -> A.Expr:
        t = self.peek()
        if t.is_op("-"):
            self.next()
            return A.UnOp("-", self.parse_unary())
        if t.is_op("+"):
            self.next()
            return self.parse_unary()
        if t.is_op(".not."):
            self.next()
            return A.UnOp(".not.", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> A.Expr:
        t = self.next()
        if t.kind is TokKind.INT:
            return A.Num(int(t.text))
        if t.kind is TokKind.REAL:
            return A.Num(float(t.text))
        if t.kind is TokKind.STRING:
            return A.Str(t.text)
        if t.is_op(".true."):
            return A.Logical(True)
        if t.is_op(".false."):
            return A.Logical(False)
        if t.is_op("("):
            e = self.parse_expr()
            self.expect_op(")")
            return e
        if t.kind is TokKind.IDENT:
            if self.peek().is_op("("):
                self.next()
                args: list[A.Expr] = []
                if not self.peek().is_op(")"):
                    args.append(self.parse_subscript())
                    while self.accept_op(","):
                        args.append(self.parse_subscript())
                self.expect_op(")")
                # ArrayRef vs function call is resolved during semantic
                # analysis; the parser emits ArrayRef for both, and the
                # resolver rewrites non-array names to CallExpr.
                return A.ArrayRef(t.text, tuple(args))
            return A.Var(t.text)
        raise ParseError("expected expression", t)


#: unit-memo activity (tests and ``fdc serve`` stats assert on these):
#: program units lexed + parsed / served as clones of a memoised tree
PARSE_COUNTS = {"units_parsed": 0, "units_reused": 0}

#: local-summary activity, counted like :data:`PARSE_COUNTS`: summaries
#: built (a unit's calls resolved) / served from the unit memo
SUMMARY_COUNTS = {"summaries_built": 0, "summaries_reused": 0}

#: bound of the unit memo, in chunks (an LRU: the editing sessions and
#: cold-compile sets in the benchmarks touch ~100 distinct units)
_UNIT_MEMO_CAP = 1024

#: bound of what one summary memoises (:meth:`UnitSummary.derive`).
#: Replaying every derive through LRUs of each size, hits stop growing
#: at 2 (a fingerprint and one solve) on ``service_edit``,
#: ``compile_cold`` and a 12-plan stencil1d autotune, and at 3 when one
#: service compiles a program in RTR, INTRA and INTER.
_DERIVED_CAP = 3

#: comment-stripped chunk text -> its :class:`_Chunk`.  The trees never
#: leave this module: :func:`parse` hands out clones, so in-place
#: compilation cannot reach them.  A parse is a pure function of its
#: text, so there is nothing to invalidate or configure.
_unit_memo: OrderedDict[str, _Chunk] = OrderedDict()
_unit_memo_lock = threading.Lock()

_MISSING = object()


class UnitSummary:
    """One procedure's local summary (the paper's phase 1, "local
    summary collection after edits only"): its call-resolved tree, which
    never leaves the memo (:meth:`tree` hands out clones), plus what
    later phases compute from that tree alone, memoised per key by
    :meth:`derive` — the §8 source fingerprint and one reaching solve
    per (entry facts, constants, nprocs)."""

    def __init__(self, unit: A.Procedure) -> None:
        self.unit = unit
        self._derived: OrderedDict = OrderedDict()

    @property
    def name(self) -> str:
        return self.unit.name

    def tree(self) -> A.Procedure:
        return A.clone_procedure(self.unit)

    def derive(self, key, compute):
        """``compute()``, memoised under *key*.  *compute* must be a pure
        function of this unit's text and *key*; it may run on any tree
        cloned from :attr:`unit` and left as it came."""
        with _unit_memo_lock:
            value = self._derived.get(key, _MISSING)
            if value is not _MISSING:
                self._derived.move_to_end(key)
                return value
        value = compute()
        with _unit_memo_lock:
            self._derived[key] = value
            while len(self._derived) > _DERIVED_CAP:
                self._derived.popitem(last=False)
        return value


class _Chunk:
    """One unit-memo entry: the pristine units a chunk's text parses to,
    and their local summaries per set of procedures their name
    resolution consults — the procedures named by the chunk's
    :attr:`names` (its arrays and every ``name(...)`` it writes), with
    their kinds, and in practice the same set every time."""

    __slots__ = ("units", "names", "summaries")

    def __init__(self, units: list[A.Procedure]) -> None:
        self.units = units
        self.names = frozenset(
            [d.name for u in units for d in u.decls if d.is_array]
            + [e.name for u in units for e in A.walk_all_exprs(u.body)
               if isinstance(e, A.ArrayRef)])
        self.summaries: dict[frozenset, list[UnitSummary]] = {}


def reset_unit_memo() -> None:
    """Drop the unit memo (summaries included) and zero
    :data:`PARSE_COUNTS` and :data:`SUMMARY_COUNTS` (tests)."""
    with _unit_memo_lock:
        _unit_memo.clear()
        for counts in (PARSE_COUNTS, SUMMARY_COUNTS):
            for k in counts:
                counts[k] = 0


def _unit_chunks(source: str) -> Iterator[list[tuple[int, str]]]:
    """Split *source* at its unit boundaries: a chunk is the run of
    logical lines up to and including a bare ``end`` — the grammar's
    only unit terminator (``enddo`` / ``endif`` are single keywords) —
    and whatever follows the last ``end`` is one more chunk."""
    chunk: list[tuple[int, str]] = []
    for line in logical_lines(source):
        chunk.append(line)
        if line[1].strip().lower() == "end":
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _parse_chunk(chunk: list[tuple[int, str]], eof: int) -> _Chunk:
    """The memo entry of one chunk's text: lexed and parsed (at its real
    line numbers, so errors keep their position) on a miss."""
    # trailing blanks are what a stripped inline comment leaves behind
    key = "\n".join(text.rstrip() for _, text in chunk)
    with _unit_memo_lock:
        entry = _unit_memo.get(key)
        if entry is not None:
            _unit_memo.move_to_end(key)
            PARSE_COUNTS["units_reused"] += len(entry.units)
    if entry is None:
        entry = _Chunk(Parser(lex_lines(chunk, eof)).parse_program().units)
        with _unit_memo_lock:
            _unit_memo[key] = entry
            PARSE_COUNTS["units_parsed"] += len(entry.units)
            while len(_unit_memo) > _UNIT_MEMO_CAP:
                _unit_memo.popitem(last=False)
    return entry


def _summaries(entry: _Chunk, procs: dict[str, str]) -> list[UnitSummary]:
    """The local summaries of *entry*'s units in a program whose
    procedures are *procs* (name -> kind): built from clones of the
    pristine units once per set of procedures name resolution consults
    (those the chunk names)."""
    consulted = frozenset((n, procs[n]) for n in entry.names if n in procs)
    with _unit_memo_lock:
        summaries = entry.summaries.get(consulted)
        if summaries is not None:
            SUMMARY_COUNTS["summaries_reused"] += len(summaries)
            return summaries
    summaries = []
    for u in entry.units:
        unit = A.clone_procedure(u)
        _resolve_unit(unit, procs)
        summaries.append(UnitSummary(unit))
    with _unit_memo_lock:
        entry.summaries[consulted] = summaries
        SUMMARY_COUNTS["summaries_built"] += len(summaries)
    return summaries


def parse_summaries(source: str) -> list[UnitSummary]:
    """The local summaries of *source*'s units, in source order: each
    unit's text is lexed and parsed once per process, and its names
    resolved once per (text, consulted procedures)."""
    eof = eof_line(source)
    # a source without a single logical line is one empty chunk: the
    # parser raises its own "empty program"
    entries = [_parse_chunk(chunk, eof)
               for chunk in list(_unit_chunks(source)) or [[]]]
    procs = {u.name: u.kind for e in entries for u in e.units}
    return [s for e in entries for s in _summaries(e, procs)]


def parse(source: str) -> A.Program:
    """Parse Fortran D *source* text into a Program AST.

    The program unit is the grain: each unit's text is lexed and parsed
    once per process (a bounded memo keyed by the text) and every call
    returns fresh trees."""
    return A.Program([s.tree() for s in parse_summaries(source)])


def _resolve_calls(prog: A.Program) -> None:
    """:func:`_resolve_unit` for every unit of *prog*."""
    procs = {u.name: u.kind for u in prog.units}
    for unit in prog.units:
        _resolve_unit(unit, procs)


def _resolve_unit(unit: A.Procedure, procs: dict[str, str]) -> None:
    """Name resolution for one unit of a program whose procedures are
    *procs* (name -> kind): the one place a ``name(...)`` in an
    expression gets its meaning.  A declared array stays an
    ``ArrayRef``; a user ``function`` becomes a ``FuncRef``, shadowing
    the intrinsic of the same name (Fortran's rule); an intrinsic
    becomes a ``CallExpr`` (a subroutine never shadows one).  Anything
    else — a subroutine or the program, or a name that is none of
    these — is a :class:`CompileError`, and so is an array section
    (the compiler's alone, in the messages it places)."""
    # deferred: the runtime package imports the analyses, which import
    # this one
    from ..runtime.intrinsics import INTRINSICS

    def resolve(name: str, args: tuple[A.Expr, ...]) -> A.Expr:
        kind = procs.get(name)
        if kind == "function":
            return A.FuncRef(name, args)
        if name not in INTRINSICS:
            if kind is not None:
                raise CompileError(
                    f"{unit.name}: {kind} {name!r} used as a function")
            raise CompileError(f"{unit.name}: unknown function {name!r}")
        if name == "owner" and not (
                len(args) == 1 and isinstance(args[0], A.ArrayRef)
                and not any(isinstance(x, A.Triplet) for x in args[0].subs)):
            raise CompileError(f"{unit.name}: owner() takes one array "
                               f"element")
        return A.CallExpr(name, args)

    def fix(e: A.Expr, arrays: set[str]) -> A.Expr:
        if isinstance(e, A.ArrayRef):
            subs = tuple(fix(s, arrays) for s in e.subs)
            if e.name in arrays:
                return A.ArrayRef(e.name, subs)
            return resolve(e.name, subs)
        if isinstance(e, A.BinOp):
            return A.BinOp(e.op, fix(e.left, arrays), fix(e.right, arrays))
        if isinstance(e, A.UnOp):
            return A.UnOp(e.op, fix(e.operand, arrays))
        if isinstance(e, A.Triplet):
            raise CompileError(f"{unit.name}: array section outside "
                               f"communication")
        return e

    def fix_body(body: list[A.Stmt], arrays: set[str]) -> None:
        for s in body:
            if isinstance(s, A.Assign):
                if isinstance(s.target, A.ArrayRef):
                    s.target = A.ArrayRef(
                        s.target.name, tuple(fix(x, arrays) for x in s.target.subs)
                    )
                s.expr = fix(s.expr, arrays)
            elif isinstance(s, A.If):
                s.cond = fix(s.cond, arrays)
            elif isinstance(s, A.Do):
                s.lo, s.hi, s.step = (
                    fix(s.lo, arrays), fix(s.hi, arrays), fix(s.step, arrays)
                )
            elif isinstance(s, A.DoWhile):
                s.cond = fix(s.cond, arrays)
            elif isinstance(s, A.Call):
                s.args = [fix(a, arrays) for a in s.args]
            elif isinstance(s, A.Print):
                s.items = [fix(a, arrays) for a in s.items]
            for blk in A.child_blocks(s):
                fix_body(blk, arrays)

    arrays = {d.name for d in unit.decls if d.is_array}
    arrays -= {name for name, kind in procs.items() if kind == "function"}
    fix_body(unit.body, arrays)
