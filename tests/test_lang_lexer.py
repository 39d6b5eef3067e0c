"""Unit tests for the Fortran D lexer."""

import hashlib

import pytest

from repro.apps import stencil1d_source
from repro.lang import LexError, logical_lines, tokenize
from repro.lang.tokens import TokKind

#: sha256 of `tokenize(stencil1d_source(64, 4))` rendered one token a line
GOLDEN_STENCIL1D = (
    "5d3d6fb798aed8830d7bd576ba86c415bbf719af608e4c221d38b931964cbd91")


def kinds(src):
    return [t.kind for t in tokenize(src) if t.kind is not TokKind.NEWLINE]


def texts(src):
    return [
        t.text
        for t in tokenize(src)
        if t.kind not in (TokKind.NEWLINE, TokKind.EOF)
    ]


class TestBasicTokens:
    def test_identifiers_lowercased(self):
        assert texts("Foo BAR baz") == ["foo", "bar", "baz"]

    def test_dollar_in_identifier(self):
        assert texts("my$p ub$1") == ["my$p", "ub$1"]

    def test_keywords_recognized(self):
        toks = tokenize("do if endif enddo")
        assert all(t.kind is TokKind.KEYWORD for t in toks[:4])

    def test_integer_literal(self):
        toks = tokenize("42")
        assert toks[0].kind is TokKind.INT
        assert toks[0].text == "42"

    def test_real_literals(self):
        for src in ("3.14", "1.", "1e5", "2.5e-3", "1d0"):
            toks = tokenize(src)
            assert toks[0].kind is TokKind.REAL, src

    def test_double_exponent_normalized(self):
        assert tokenize("1d0")[0].text == "1e0"

    def test_leading_dot_real(self):
        toks = tokenize("x = .5")
        assert toks[2].kind is TokKind.REAL

    def test_string_literal(self):
        toks = tokenize("print *, 'hello world'")
        strs = [t for t in toks if t.kind is TokKind.STRING]
        assert strs[0].text == "hello world"


class TestOperators:
    def test_dotted_operators_canonicalized(self):
        assert texts("a .eq. b .ne. c") == ["a", "==", "b", "/=", "c"]
        assert texts("a .lt. b .le. c") == ["a", "<", "b", "<=", "c"]
        assert texts("a .gt. b .ge. c") == ["a", ">", "b", ">=", "c"]

    def test_logical_operators(self):
        assert ".and." in texts("a .and. b")
        assert ".or." in texts("a .or. b")
        assert ".not." in texts(".not. a")

    def test_power_operator(self):
        assert texts("a ** b") == ["a", "**", "b"]

    def test_integer_dot_op_disambiguation(self):
        # `1.eq.2` must lex as INT . OP . INT, not a real `1.`
        ts = texts("if (i.eq.1) stop")
        assert "==" in ts
        assert "1" in ts

    def test_modern_comparison_ops(self):
        assert texts("a == b /= c <= d >= e") == [
            "a", "==", "b", "/=", "c", "<=", "d", ">=", "e",
        ]


class TestLinesAndComments:
    def test_comment_lines_skipped(self):
        src = "! comment\n* star comment\nx = 1\n"
        assert texts(src) == ["x", "=", "1"]

    def test_c_lines_are_code_not_comments(self):
        # free-form dialect: `c = 1` is an assignment, not a comment
        assert texts("c = 1") == ["c", "=", "1"]

    def test_inline_comment_stripped(self):
        assert texts("x = 1 ! trailing") == ["x", "=", "1"]

    def test_exclamation_in_string_kept(self):
        toks = tokenize("print *, 'a!b'")
        strs = [t for t in toks if t.kind is TokKind.STRING]
        assert strs[0].text == "a!b"

    def test_continuation_lines_joined(self):
        src = "x = 1 + &\n    2\n"
        assert texts(src) == ["x", "=", "1", "+", "2"]

    def test_dangling_continuation_raises(self):
        with pytest.raises(LexError):
            tokenize("x = 1 + &\n")

    def test_newline_tokens_per_statement(self):
        toks = tokenize("x = 1\ny = 2\n")
        nls = [t for t in toks if t.kind is TokKind.NEWLINE]
        assert len(nls) == 2

    def test_eof_always_last(self):
        assert tokenize("")[-1].kind is TokKind.EOF
        assert tokenize("x = 1")[-1].kind is TokKind.EOF

    def test_line_numbers_tracked(self):
        toks = tokenize("a = 1\n\nb = 2\n")
        b = [t for t in toks if t.text == "b"][0]
        assert b.line == 3

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("x = #")


class TestLogicalLines:
    """`logical_lines` is the one definition of a line: the tokenizer
    and the parser's unit splitter both read it."""

    def test_one_comment_rule_for_lexer_and_splitter(self):
        src = "c = 1\n* note\n! note\n  ! indented note\n"
        assert list(logical_lines(src)) == [(1, "c = 1")]
        assert texts(src) == ["c", "=", "1"]

    def test_numbered_by_first_physical_line(self):
        src = "\n! c\nx = 1 + &\n  2 ! tail\n\ny = 'a!b'\n"
        assert list(logical_lines(src)) == [
            (3, "x = 1 +   2 "), (6, "y = 'a!b'"),
        ]

    def test_tokenize_is_the_lexed_logical_lines(self):
        src = "program p\nx = 1 + &\n  2\n* note\nend\n"
        assert [(t.kind.value, t.text, t.line, t.col)
                for t in tokenize(src)] == [
            ("keyword", "program", 1, 1), ("ident", "p", 1, 9),
            ("newline", "\n", 1, 10),
            ("ident", "x", 2, 1), ("op", "=", 2, 3), ("int", "1", 2, 5),
            ("op", "+", 2, 7), ("int", "2", 2, 11), ("newline", "\n", 2, 12),
            ("keyword", "end", 5, 1), ("newline", "\n", 5, 4),
            ("eof", "", 7, 1),
        ]

    def test_token_list_golden(self):
        """The exact token list of one app, pinned at the commit before
        the tokenizer was rebuilt on `logical_lines`."""
        toks = tokenize(stencil1d_source(64, 4))
        flat = "\n".join(f"{t.kind.value} {t.text!r} {t.line}:{t.col}"
                         for t in toks)
        assert len(toks) == 184
        assert hashlib.sha256(flat.encode()).hexdigest() == GOLDEN_STENCIL1D
