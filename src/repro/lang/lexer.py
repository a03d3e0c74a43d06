"""Lexer for OffloadMini: one compiled master pattern, one match per token."""

from __future__ import annotations

import re

from repro.errors import Diagnostic, LexError, SourceLocation, SourceSpan
from repro.lang.source import SourceFile
from repro.lang.tokens import KEYWORDS, Token, TokenKind

#: Every operator and punctuation kind is named by its own spelling.
_PUNCT = {
    kind.value: kind
    for kind in TokenKind
    if not (kind.value[0].isalpha() or kind.value[0] == "_")
}

_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", "'": "'", '"': '"'}

_EXPONENT = r"[eE][+-]?[0-9]+"
_FLOAT = rf"[0-9]+(?:\.[0-9]+(?:{_EXPONENT})?[fF]?|{_EXPONENT}[fF]?|[fF])"
_CHAR = rf"'(?:[^\\\n]|\\[{''.join(map(re.escape, _ESCAPES))}])'"
_PUNCTUATION = "|".join(
    re.escape(spelling) for spelling in sorted(_PUNCT, key=len, reverse=True)
)

# Alternatives are tried in order, and the group that matched names the
# token class.  Digits are ASCII on purpose: ``str.isdigit`` accepts
# characters ``int()`` does not.  ``open_comment``, ``bad_hex``,
# ``bad_char`` and ``unexpected`` only ever match malformed input, each
# right after the well-formed alternative it is the remainder of.
_MASTER = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("trivia", r"[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/"),
            ("open_comment", r"/\*"),
            ("ident", r"[A-Za-z_]\w*"),
            ("hex", r"0[xX][0-9a-fA-F]+"),
            ("bad_hex", r"0[xX]"),
            ("float", _FLOAT),
            ("int", r"[0-9]+"),
            ("char", _CHAR),
            ("bad_char", r"'"),
            ("punct", _PUNCTUATION),
            ("wide_ident", r"[^\x00-\x7f]\w*"),
            ("unexpected", r"[\s\S]"),
        )
    )
)


class Lexer:
    """Turns an OffloadMini source buffer into a token stream."""

    def __init__(self, source: SourceFile):
        self.source = source

    def _error(self, message: str, start: int, end: int) -> LexError:
        span = self.source.span(start, end)
        return LexError([Diagnostic("E-lex", message, span)])

    def _malformed(self, group: str, start: int) -> LexError:
        """The diagnostic for input only an error group matched."""
        text = self.source.text
        if group == "open_comment":
            return self._error("unterminated block comment", start, len(text))
        if group == "bad_hex":
            return self._error("hex literal needs digits", start, start + 2)
        if group == "bad_char":
            first = text[start + 1 : start + 2]
            escape = text[start + 2 : start + 3]
            if first == "\\" and escape not in _ESCAPES:
                message = f"unknown escape '\\{escape}'"
                return self._error(message, start, start + 1)
            # The span ends where the body did: nothing, `c` or `\c`.
            body = 0 if first in ("", "\n") else 2 if first == "\\" else 1
            message = "unterminated character literal"
            return self._error(message, start, start + 1 + body)
        message = f"unexpected character {text[start]!r}"
        return self._error(message, start, start + 1)

    def tokens(self) -> list[Token]:
        """Scan the whole buffer; the final element is the EOF token."""
        text = self.source.text
        filename = self.source.filename
        result: list[Token] = []
        new = tuple.__new__  # both records are tuples: skip their __new__
        # Tokens never span lines, so line and column advance with the
        # trivia between them instead of being searched for per token.
        line, line_start = 1, 0
        for match in _MASTER.finditer(text):
            group = match.lastgroup
            start, end = match.span()
            if group == "trivia":
                newlines = text.count("\n", start, end)
                if newlines:
                    line += newlines
                    line_start = text.rfind("\n", start, end) + 1
                continue
            lexeme = match.group()
            value: object = None
            if group == "punct":
                kind = _PUNCT[lexeme]
            elif group == "ident" or (
                group == "wide_ident" and lexeme[0].isalpha()
            ):
                kind = KEYWORDS.get(lexeme, TokenKind.IDENT)
                value = lexeme
            elif group == "int":
                kind, value = TokenKind.INT_LIT, int(lexeme)
            elif group == "hex":
                kind, value = TokenKind.INT_LIT, int(lexeme, 16)
            elif group == "float":
                kind, value = TokenKind.FLOAT_LIT, float(lexeme.rstrip("fF"))
            elif group == "char":
                body = lexeme[1:-1]
                kind = TokenKind.CHAR_LIT
                value = ord(_ESCAPES[body[1]] if len(body) == 2 else body)
            else:
                raise self._malformed(group, start)
            column = start - line_start + 1
            span = new(SourceSpan, (filename, line, column,
                                    filename, line, column + end - start))
            result.append(new(Token, (kind, lexeme, span, value)))
        here = SourceLocation(filename, line, len(text) - line_start + 1)
        result.append(Token(TokenKind.EOF, "", SourceSpan(here, here)))
        return result


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Convenience wrapper: lex a string into a token list."""
    return Lexer(SourceFile(text, filename)).tokens()
