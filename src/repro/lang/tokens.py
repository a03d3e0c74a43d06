"""Token kinds and the token record."""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import SourceSpan


class TokenKind(enum.Enum):
    """Lexical categories of OffloadMini."""

    # Literals and identifiers
    IDENT = "identifier"
    INT_LIT = "integer literal"
    FLOAT_LIT = "float literal"
    CHAR_LIT = "character literal"

    # Keywords
    KW_BOOL = "bool"
    KW_BREAK = "break"
    KW_CACHE = "cache"
    KW_CHAR = "char"
    KW_CLASS = "class"
    KW_CONTINUE = "continue"
    KW_DOMAIN = "domain"
    KW_ELSE = "else"
    KW_FALSE = "false"
    KW_FLOAT = "float"
    KW_FOR = "for"
    KW_HANDLE = "__offload_handle_t"
    KW_IF = "if"
    KW_INT = "int"
    KW_NULL = "null"
    KW_OFFLOAD = "__offload"
    KW_OFFLOAD_JOIN = "__offload_join"
    KW_OUTER = "__outer"
    KW_RETURN = "return"
    KW_SIZEOF = "sizeof"
    KW_STRUCT = "struct"
    KW_THIS = "this"
    KW_TRUE = "true"
    KW_UINT = "uint"
    KW_VIRTUAL = "virtual"
    KW_VOID = "void"
    KW_WHILE = "while"
    KW_BYTE_ATTR = "__byte"
    KW_WORD_ATTR = "__word"
    KW_ARRAY = "Array"

    # Punctuation and operators
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    ARROW = "->"
    COLON = ":"
    COLONCOLON = "::"
    AMP = "&"
    AMPAMP = "&&"
    PIPE = "|"
    PIPEPIPE = "||"
    CARET = "^"
    TILDE = "~"
    BANG = "!"
    PLUS = "+"
    PLUSPLUS = "++"
    MINUS = "-"
    MINUSMINUS = "--"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    LSHIFT = "<<"
    RSHIFT = ">>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQEQ = "=="
    NOTEQ = "!="
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    AT = "@"

    EOF = "end of input"

    # Identity hash: keeps kind-keyed lookups out of ``Enum.__hash__``.
    __hash__ = object.__hash__


KEYWORDS: dict[str, TokenKind] = {
    "bool": TokenKind.KW_BOOL,
    "break": TokenKind.KW_BREAK,
    "cache": TokenKind.KW_CACHE,
    "char": TokenKind.KW_CHAR,
    "class": TokenKind.KW_CLASS,
    "continue": TokenKind.KW_CONTINUE,
    "domain": TokenKind.KW_DOMAIN,
    "else": TokenKind.KW_ELSE,
    "false": TokenKind.KW_FALSE,
    "float": TokenKind.KW_FLOAT,
    "for": TokenKind.KW_FOR,
    "__offload_handle_t": TokenKind.KW_HANDLE,
    "if": TokenKind.KW_IF,
    "int": TokenKind.KW_INT,
    "null": TokenKind.KW_NULL,
    "__offload": TokenKind.KW_OFFLOAD,
    "__offload_join": TokenKind.KW_OFFLOAD_JOIN,
    "__outer": TokenKind.KW_OUTER,
    "return": TokenKind.KW_RETURN,
    "sizeof": TokenKind.KW_SIZEOF,
    "struct": TokenKind.KW_STRUCT,
    "this": TokenKind.KW_THIS,
    "true": TokenKind.KW_TRUE,
    "uint": TokenKind.KW_UINT,
    "virtual": TokenKind.KW_VIRTUAL,
    "void": TokenKind.KW_VOID,
    "while": TokenKind.KW_WHILE,
    "__byte": TokenKind.KW_BYTE_ATTR,
    "__word": TokenKind.KW_WORD_ATTR,
    "Array": TokenKind.KW_ARRAY,
}


class Token(NamedTuple):
    """One lexed token: an immutable, hashable record.

    ``value`` carries the decoded payload for literals (int/float/str)
    and the spelling for identifiers.
    """

    kind: TokenKind
    text: str
    span: SourceSpan
    value: object = None

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
