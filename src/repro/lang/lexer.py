"""Lexer for the Fortran D dialect.

The lexer is line-oriented: statement boundaries are newlines (there is no
fixed-form column handling; sources in this repository are free-form).
Comment lines start with ``!`` (after optional blanks) or with ``*`` in
column one followed by a blank; fixed-form ``c``/``C`` comment lines are
*not* accepted (``c = 1`` is an assignment).  Inline ``!`` comments are
stripped.  :func:`logical_lines` is the one definition of a line: the
tokenizer and the parser's unit splitter both read it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .tokens import DOT_OPS, KEYWORDS, MULTI_OPS, SINGLE_OPS, TokKind, Token


class LexError(Exception):
    """Raised on malformed input."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"lex error at {line}:{col}: {message}")
        self.line = line
        self.col = col


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


def _is_comment_line(stripped: str, raw: str) -> bool:
    # free-form dialect: `!` anywhere-leading and `*` in column one.
    # (Fixed-form `c` comment lines are NOT supported: they are ambiguous
    # with assignments to a variable named c.)
    if stripped.startswith("!"):
        return True
    if raw[:1] == "*" and (len(raw) == 1 or raw[1].isspace()):
        return True
    return False


def logical_lines(source: str) -> Iterator[tuple[int, str]]:
    """Yield ``(first physical line number, text)`` per logical line.

    Blank and comment lines are dropped, inline comments stripped, and
    consecutive physical lines joined by a trailing ``&`` become one
    logical line numbered by its first physical line.
    """
    pending: str | None = None
    pending_line = 0
    for lineno, raw in enumerate(source.split("\n"), 1):
        stripped = raw.strip()
        if not stripped or _is_comment_line(stripped, raw):
            continue
        # strip inline comments (! not inside a string literal)
        line = _strip_inline_comment(raw)
        if pending is not None:
            line = pending + line
            start_line = pending_line
            pending = None
        else:
            start_line = lineno
        if line.rstrip().endswith("&"):
            pending = line.rstrip()[:-1]
            pending_line = start_line
            continue
        yield start_line, line
    if pending is not None:
        raise LexError("dangling continuation '&'", pending_line, 1)


def eof_line(source: str) -> int:
    """Line number of the EOF token: one past the last physical line."""
    return source.count("\n") + 2


def lex_lines(lines: Iterable[tuple[int, str]], eof: int) -> list[Token]:
    """Tokens of *lines* (as :func:`logical_lines` yields them, at their
    real line numbers), ending with an EOF token on line *eof*."""
    tokens: list[Token] = []
    for lineno, line in lines:
        _lex_line(line, lineno, tokens)
        tokens.append(Token(TokKind.NEWLINE, "\n", lineno, len(line) + 1))
    tokens.append(Token(TokKind.EOF, "", eof, 1))
    return tokens


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, returning a list ending with an EOF token.

    Consecutive physical lines joined by a trailing ``&`` are treated as a
    single logical line.  Blank and comment lines produce no tokens.
    """
    return lex_lines(logical_lines(source), eof_line(source))


def _strip_inline_comment(line: str) -> str:
    if "!" not in line:
        return line
    in_str = False
    for i, ch in enumerate(line):
        if ch == "'":
            in_str = not in_str
        elif ch == "!" and not in_str:
            return line[:i]
    return line


def _lex_line(line: str, lineno: int, out: list[Token]) -> None:
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        col = i + 1
        if ch.isspace():
            i += 1
            continue
        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_char(line[j]):
                j += 1
            word = line[i:j].lower()
            kind = TokKind.KEYWORD if word in KEYWORDS else TokKind.IDENT
            out.append(Token(kind, word, lineno, col))
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and line[i + 1].isdigit()):
            i = _lex_number(line, i, lineno, out)
            continue
        if ch == ".":
            matched = False
            for dot, canon in DOT_OPS.items():
                if line[i : i + len(dot)].lower() == dot:
                    out.append(Token(TokKind.OP, canon, lineno, col))
                    i += len(dot)
                    matched = True
                    break
            if matched:
                continue
            raise LexError(f"unexpected '.'", lineno, col)
        if ch == "'":
            j = line.find("'", i + 1)
            if j < 0:
                raise LexError("unterminated string literal", lineno, col)
            out.append(Token(TokKind.STRING, line[i + 1 : j], lineno, col))
            i = j + 1
            continue
        matched = False
        for op in MULTI_OPS:
            if line.startswith(op, i):
                out.append(Token(TokKind.OP, op, lineno, col))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in SINGLE_OPS:
            out.append(Token(TokKind.OP, ch, lineno, col))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r}", lineno, col)


def _lex_number(line: str, i: int, lineno: int, out: list[Token]) -> int:
    """Lex an integer or real literal starting at index *i*; return the
    index one past the literal."""
    n = len(line)
    col = i + 1
    j = i
    while j < n and line[j].isdigit():
        j += 1
    is_real = False
    # A '.' begins a fractional part only if not the start of a dotted
    # operator such as `1.eq.` -- check that what follows isn't a letter
    # sequence ending in '.'.
    if j < n and line[j] == "." and not _looks_like_dot_op(line, j):
        is_real = True
        j += 1
        while j < n and line[j].isdigit():
            j += 1
    if j < n and line[j] in "eEdD":
        k = j + 1
        if k < n and line[k] in "+-":
            k += 1
        if k < n and line[k].isdigit():
            is_real = True
            j = k
            while j < n and line[j].isdigit():
                j += 1
    text = line[i:j].lower().replace("d", "e")
    kind = TokKind.REAL if is_real else TokKind.INT
    out.append(Token(kind, text, lineno, col))
    return j


def _looks_like_dot_op(line: str, dot: int) -> bool:
    for op in DOT_OPS:
        if line[dot : dot + len(op)].lower() == op:
            return True
    return False
