"""Unit tests for the OffloadMini lexer."""

import copy
import hashlib
import json
import pathlib
import pickle

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from tests.conftest import corpus_sources

GOLDEN = pathlib.Path(__file__).with_name("golden_tokens.json")


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


def token_digest(text):
    """sha256 over ``(kind, text, span, value)`` of every token."""
    dump = "\n".join(
        repr(
            (
                t.kind.name,
                t.text,
                (
                    t.span.start.line,
                    t.span.start.column,
                    t.span.end.line,
                    t.span.end.column,
                ),
                t.value,
            )
        )
        for t in tokenize(text)
    )
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


def lex_error(text):
    """The single E-lex diagnostic ``tokenize(text)`` raises."""
    with pytest.raises(LexError) as raised:
        tokenize(text)
    (diagnostic,) = raised.value.diagnostics
    assert diagnostic.code == "E-lex"
    return diagnostic


def span_of(thing):
    span = thing.span
    return (
        (span.start.line, span.start.column),
        (span.end.line, span.end.column),
    )


class TestIdentifiersAndKeywords:
    def test_identifier(self):
        (token,) = tokenize("hello")[:-1]
        assert token.kind is TokenKind.IDENT
        assert token.value == "hello"

    def test_keywords_recognised(self):
        assert kinds("__offload") == [TokenKind.KW_OFFLOAD]
        assert kinds("__outer") == [TokenKind.KW_OUTER]
        assert kinds("__byte __word") == [
            TokenKind.KW_BYTE_ATTR,
            TokenKind.KW_WORD_ATTR,
        ]
        assert kinds("virtual class struct") == [
            TokenKind.KW_VIRTUAL,
            TokenKind.KW_CLASS,
            TokenKind.KW_STRUCT,
        ]

    def test_keyword_prefix_is_identifier(self):
        (token,) = tokenize("classes")[:-1]
        assert token.kind is TokenKind.IDENT

    def test_underscores_and_digits_in_names(self):
        (token,) = tokenize("_x9_y")[:-1]
        assert token.value == "_x9_y"


class TestNumbers:
    def test_decimal_int(self):
        (token,) = tokenize("12345")[:-1]
        assert token.kind is TokenKind.INT_LIT
        assert token.value == 12345

    def test_hex_int(self):
        (token,) = tokenize("0xFF")[:-1]
        assert token.value == 255

    def test_hex_requires_digits(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_float_with_point(self):
        (token,) = tokenize("3.25")[:-1]
        assert token.kind is TokenKind.FLOAT_LIT
        assert token.value == 3.25

    def test_float_with_f_suffix(self):
        (token,) = tokenize("1.5f")[:-1]
        assert token.kind is TokenKind.FLOAT_LIT
        assert token.value == 1.5

    def test_int_with_f_suffix_is_float(self):
        (token,) = tokenize("2f")[:-1]
        assert token.kind is TokenKind.FLOAT_LIT
        assert token.value == 2.0

    def test_scientific_notation(self):
        (token,) = tokenize("1.0e9")[:-1]
        assert token.value == 1.0e9

    def test_negative_exponent(self):
        (token,) = tokenize("2.5e-3")[:-1]
        assert token.value == 2.5e-3

    def test_member_access_not_float(self):
        # `a.x` must not lex the dot into a float.
        assert kinds("a.x") == [TokenKind.IDENT, TokenKind.DOT, TokenKind.IDENT]


class TestCharLiterals:
    def test_plain_char(self):
        (token,) = tokenize("'A'")[:-1]
        assert token.kind is TokenKind.CHAR_LIT
        assert token.value == 65

    def test_escape_newline(self):
        (token,) = tokenize(r"'\n'")[:-1]
        assert token.value == 10

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'A")

    def test_unknown_escape(self):
        with pytest.raises(LexError):
            tokenize(r"'\q'")


class TestOperators:
    def test_two_char_operators(self):
        assert kinds("-> :: && || << >> <= >= == != += -=") == [
            TokenKind.ARROW,
            TokenKind.COLONCOLON,
            TokenKind.AMPAMP,
            TokenKind.PIPEPIPE,
            TokenKind.LSHIFT,
            TokenKind.RSHIFT,
            TokenKind.LE,
            TokenKind.GE,
            TokenKind.EQEQ,
            TokenKind.NOTEQ,
            TokenKind.PLUS_ASSIGN,
            TokenKind.MINUS_ASSIGN,
        ]

    def test_increment_decrement(self):
        assert kinds("++ --") == [TokenKind.PLUSPLUS, TokenKind.MINUSMINUS]

    def test_colon_vs_coloncolon(self):
        assert kinds("a : b :: c") == [
            TokenKind.IDENT,
            TokenKind.COLON,
            TokenKind.IDENT,
            TokenKind.COLONCOLON,
            TokenKind.IDENT,
        ]

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("$")


class TestTrivia:
    def test_line_comment_skipped(self):
        assert kinds("a // comment\n b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_block_comment_skipped(self):
        assert kinds("a /* multi\nline */ b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_eof_token_present(self):
        tokens = tokenize("x")
        assert tokens[-1].kind is TokenKind.EOF


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        b = tokens[1]
        assert b.span.start.line == 2
        assert b.span.start.column == 3

    def test_filename_propagated(self):
        tokens = tokenize("x", filename="game.om")
        assert tokens[0].span.start.filename == "game.om"

    def test_tokens_are_immutable_values(self):
        token = tokenize("x", filename="game.om")[0]
        assert token == Token(TokenKind.IDENT, "x", token.span, "x")
        assert hash(token) == hash(copy.deepcopy(token))
        assert pickle.loads(pickle.dumps(token)) == token
        assert str(token) == "IDENT('x')"
        with pytest.raises(AttributeError):
            token.kind = TokenKind.EOF


def dump(text):
    return [(t.kind, t.text, t.value) for t in tokenize(text)][:-1]


class TestNumberEdges:
    def test_point_needs_a_digit_after_it(self):
        assert dump("1.f") == [
            (TokenKind.INT_LIT, "1", 1),
            (TokenKind.DOT, ".", None),
            (TokenKind.IDENT, "f", "f"),
        ]
        assert kinds("1..2") == [
            TokenKind.INT_LIT,
            TokenKind.DOT,
            TokenKind.DOT,
            TokenKind.INT_LIT,
        ]

    def test_exponent_needs_a_digit(self):
        assert dump("1e;") == [
            (TokenKind.INT_LIT, "1", 1),
            (TokenKind.IDENT, "e", "e"),
            (TokenKind.SEMI, ";", None),
        ]
        assert kinds("1e+") == [
            TokenKind.INT_LIT,
            TokenKind.IDENT,
            TokenKind.PLUS,
        ]

    def test_suffix_and_exponent_forms(self):
        assert dump("2f 1e5f 1E+3 1.5e-2F") == [
            (TokenKind.FLOAT_LIT, "2f", 2.0),
            (TokenKind.FLOAT_LIT, "1e5f", 1e5),
            (TokenKind.FLOAT_LIT, "1E+3", 1e3),
            (TokenKind.FLOAT_LIT, "1.5e-2F", 0.015),
        ]

    def test_hex_stops_at_the_first_non_hex_character(self):
        assert dump("0x1G") == [
            (TokenKind.INT_LIT, "0x1", 1),
            (TokenKind.IDENT, "G", "G"),
        ]
        assert dump("0X1f") == [(TokenKind.INT_LIT, "0X1f", 31)]

    def test_hex_without_digits_spans_the_prefix(self):
        diagnostic = lex_error("  0x;")
        assert diagnostic.message == "hex literal needs digits"
        assert span_of(diagnostic) == ((1, 3), (1, 5))

    @pytest.mark.parametrize("digit", ["²", "٣", "１"])
    def test_only_ascii_digits_are_digits(self, digit):
        # str.isdigit() says yes to all three; int() rejects the first
        # and reads the other two as 3 and 1.
        diagnostic = lex_error(f"int x = {digit};")
        assert diagnostic.message == f"unexpected character {digit!r}"
        assert span_of(diagnostic) == ((1, 9), (1, 10))

    def test_non_ascii_digit_inside_a_number(self):
        diagnostic = lex_error("x = 1²;")
        assert diagnostic.message == "unexpected character '²'"
        assert span_of(diagnostic) == ((1, 6), (1, 7))


class TestCharEdges:
    def test_every_escape(self):
        values = [t.value for t in tokenize(r"""'\n' '\t' '\0' '\\' '\'' '\"'""")]
        assert values[:-1] == [10, 9, 0, 92, 39, 34]

    def test_quote_and_double_quote_bodies(self):
        assert [t.value for t in tokenize("''' '\"'")][:-1] == [39, 34]

    def test_unknown_escape_span(self):
        diagnostic = lex_error(r"x = '\q'")
        assert diagnostic.message == r"unknown escape '\q'"
        assert span_of(diagnostic) == ((1, 5), (1, 6))

    def test_escape_at_end_of_input(self):
        assert lex_error("'\\").message == "unknown escape '\\'"

    @pytest.mark.parametrize(
        "text, end_column",
        [("'", 2), ("'\n'", 2), ("'A", 3), ("'ab'", 3), ("'\\n", 4)],
    )
    def test_unterminated_span_ends_where_the_scan_did(self, text, end_column):
        diagnostic = lex_error(text)
        assert diagnostic.message == "unterminated character literal"
        assert span_of(diagnostic) == ((1, 1), (1, end_column))


class TestTriviaEdges:
    def test_empty_block_comment_separates_tokens(self):
        assert dump("a/**/b") == [
            (TokenKind.IDENT, "a", "a"),
            (TokenKind.IDENT, "b", "b"),
        ]

    def test_stars_inside_block_comment(self):
        assert kinds("/* * */") == []
        assert kinds("/***/ x") == [TokenKind.IDENT]

    def test_slash_star_slash_is_not_a_whole_comment(self):
        assert lex_error("/*/").message == "unterminated block comment"

    def test_line_comment_at_eof_without_newline(self):
        tokens = tokenize("a // trailing")
        assert [t.kind for t in tokens] == [TokenKind.IDENT, TokenKind.EOF]
        assert span_of(tokens[-1]) == ((1, 14), (1, 14))

    def test_unterminated_block_comment_reported_at_its_opening(self):
        diagnostic = lex_error("  /* never\nends")
        assert diagnostic.message == "unterminated block comment"
        assert span_of(diagnostic) == ((1, 3), (2, 5))

    def test_form_feed_is_not_whitespace(self):
        assert lex_error("x\f").message == "unexpected character '\\x0c'"


class TestPositionEdges:
    def test_crlf_lines_and_columns(self):
        a, b, c, eof = tokenize("a\r\nb\r\n  c")
        assert span_of(a) == ((1, 1), (1, 2))
        assert span_of(b) == ((2, 1), (2, 2))
        assert span_of(c) == ((3, 3), (3, 4))
        assert span_of(eof) == ((3, 4), (3, 4))

    def test_token_after_multi_line_comment(self):
        (token, _) = tokenize("/* one\n two\n*/ x")
        assert span_of(token) == ((3, 4), (3, 5))

    def test_eof_after_trailing_newline(self):
        assert span_of(tokenize("a\n")[-1]) == ((2, 1), (2, 1))
        assert span_of(tokenize("")[-1]) == ((1, 1), (1, 1))

    def test_error_after_newlines_has_the_right_line(self):
        assert span_of(lex_error("a\n\n  $")) == ((3, 3), (3, 4))


class TestNonAsciiIdentifiers:
    def test_letter_starts_an_identifier(self):
        assert dump("é _é1 x²") == [
            (TokenKind.IDENT, "é", "é"),
            (TokenKind.IDENT, "_é1", "_é1"),
            (TokenKind.IDENT, "x²", "x²"),
        ]

    def test_non_letter_does_not(self):
        assert lex_error("½").message == "unexpected character '½'"


class TestGoldenTokens:
    """The token stream of every corpus program, pinned at the commit
    before the master-pattern rewrite (one sha256 per input)."""

    @pytest.mark.parametrize("name, text", corpus_sources())
    def test_token_stream_unchanged(self, name, text):
        assert token_digest(text) == json.loads(GOLDEN.read_text())[name]

    def test_every_input_has_a_digest(self):
        golden = json.loads(GOLDEN.read_text())
        assert sorted(golden) == sorted(name for name, _ in corpus_sources())
