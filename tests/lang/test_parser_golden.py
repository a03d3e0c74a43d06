"""The parser's output, pinned: every corpus AST and a table of
malformed inputs whose ``E-parse`` message and span must not move.

``golden_ast.json`` holds one sha256 of ``repr(parse_program(text))``
per corpus program (spans included), taken before the parser became
precedence climbing over flat token records.  Regenerate after a
deliberate change with ``PYTHONPATH=src python -m
tests.lang.test_parser_golden``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.errors import ParseError
from repro.lang.parser import parse_program
from tests.conftest import corpus_sources

GOLDEN = pathlib.Path(__file__).with_name("golden_ast.json")

#: (source, message, ((line, column), (end line, end column))).
MALFORMED = [
    ("void main() { a + ; }",
     "expected an expression, found ';'",
     ((1, 19), (1, 20))),
    ("void main() { int y = (int; }",
     "expected an expression, found 'int'",
     ((1, 24), (1, 27))),
    ("void main() { x = = 1; }",
     "expected an expression, found '='",
     ((1, 19), (1, 20))),
    ("void main() { f(1, 2 }",
     "expected ')', found '}' while parsing call",
     ((1, 22), (1, 23))),
    ("class E {}; E* g[4]; void main() { Array<E*, 4 > 2> a(g); }",
     "expected 'identifier', found 'integer literal' while parsing "
     "variable name",
     ((1, 50), (1, 51))),
    ("void main() { x = a * ; }",
     "expected an expression, found ';'",
     ((1, 23), (1, 24))),
    ("void main() { x = a || && b; }",
     "expected an expression, found '&&'",
     ((1, 24), (1, 26))),
    ("void main() { x = (a + b; }",
     "expected ')', found ';' while parsing parenthesised expression",
     ((1, 25), (1, 26))),
    ("void main() { x = a[1; }",
     "expected ']', found ';' while parsing index expression",
     ((1, 22), (1, 23))),
    ("void main() { x = a < b > ; }",
     "expected an expression, found ';'",
     ((1, 27), (1, 28))),
    ("void main() { x = -; }",
     "expected an expression, found ';'",
     ((1, 20), (1, 21))),
    ("void main() { x = a.; }",
     "expected 'identifier', found ';' while parsing member name",
     ((1, 21), (1, 22))),
    ("void main() { x = a b; }",
     "expected ';', found 'identifier' while parsing assignment",
     ((1, 21), (1, 22))),
    ("void main() { if (a == ) {} }",
     "expected an expression, found ')'",
     ((1, 24), (1, 25))),
    ("class A { int x }",
     "expected ';', found '}' while parsing field",
     ((1, 17), (1, 18))),
    ("void main() { int a[2 + ]; }",
     "expected an expression, found ']'",
     ((1, 25), (1, 26))),
    ("void main() { for (i = 0; i < ; i++) {} }",
     "expected an expression, found ';'",
     ((1, 31), (1, 32))),
    ("void main() { x = a << >> b; }",
     "expected an expression, found '>>'",
     ((1, 24), (1, 26))),
    ("int f(int a, ) {}",
     "expected a type, found ')'",
     ((1, 14), (1, 15))),
    ("void main() { x = 1 + 2",
     "expected ';', found 'end of input' while parsing assignment",
     ((1, 24), (1, 24))),
    ("void main() { x = a & | b; }",
     "expected an expression, found '|'",
     ((1, 23), (1, 24))),
    ("void main() { x = 1 + 2 * (3 - ) / 4; }",
     "expected an expression, found ')'",
     ((1, 32), (1, 33))),
    ("void main() { x = (float) ; }",
     "expected an expression, found ';'",
     ((1, 27), (1, 28))),
    ("void main() { __offload [bogus] { } }",
     "unknown offload annotation 'bogus'",
     ((1, 26), (1, 31))),
]


def ast_digest(text: str) -> str:
    return hashlib.sha256(repr(parse_program(text)).encode("utf-8")).hexdigest()


def current_digests() -> dict[str, str]:
    return {name: ast_digest(text) for name, text in corpus_sources()}


class TestGoldenAst:
    @pytest.mark.parametrize(
        "name, text", corpus_sources(), ids=[n for n, _ in corpus_sources()]
    )
    def test_ast_unchanged(self, name, text):
        assert ast_digest(text) == json.loads(GOLDEN.read_text())[name]

    def test_every_input_has_a_digest(self):
        golden = json.loads(GOLDEN.read_text())
        assert sorted(golden) == sorted(name for name, _ in corpus_sources())


@pytest.mark.parametrize(
    "text, message, span", MALFORMED, ids=[row[0] for row in MALFORMED]
)
def test_parse_error_unchanged(text, message, span):
    with pytest.raises(ParseError) as raised:
        parse_program(text)
    (diagnostic,) = raised.value.diagnostics
    assert diagnostic.code == "E-parse"
    assert diagnostic.message == message
    start, end = diagnostic.span.start, diagnostic.span.end
    assert ((start.line, start.column), (end.line, end.column)) == span


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
