"""Fortran D dialect front end: lexer, parser, AST, pretty printer."""

from . import ast
from .lexer import LexError, logical_lines, tokenize
from .parser import (
    PARSE_COUNTS,
    SUMMARY_COUNTS,
    CompileError,
    ParseError,
    Parser,
    UnitSummary,
    parse,
    parse_summaries,
    reset_unit_memo,
)
from .printer import (
    expr_str,
    join_units,
    procedure_str,
    program_str,
    stmt_lines,
)

__all__ = [
    "ast",
    "tokenize",
    "logical_lines",
    "LexError",
    "parse",
    "parse_summaries",
    "Parser",
    "ParseError",
    "CompileError",
    "PARSE_COUNTS",
    "SUMMARY_COUNTS",
    "UnitSummary",
    "reset_unit_memo",
    "expr_str",
    "stmt_lines",
    "procedure_str",
    "program_str",
    "join_units",
]
