"""Recursive-descent parser for OffloadMini.

The grammar is a C++-like subset.  Declaration/expression ambiguity at
statement level is resolved the classic way: the parser tracks the set
of declared type names (classes/structs must be declared before use,
single translation unit), so ``Foo * bar;`` parses as a declaration
exactly when ``Foo`` is a known type.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import Diagnostic, ParseError, SourceSpan
from repro.lang import ast
from repro.lang.source import SourceFile
from repro.lang.tokens import Token, TokenKind

_TYPE_KEYWORDS = {
    TokenKind.KW_VOID,
    TokenKind.KW_BOOL,
    TokenKind.KW_CHAR,
    TokenKind.KW_INT,
    TokenKind.KW_UINT,
    TokenKind.KW_FLOAT,
    TokenKind.KW_HANDLE,
    TokenKind.KW_ARRAY,
}

_ASSIGN_OPS = {
    TokenKind.ASSIGN: "",
    TokenKind.PLUS_ASSIGN: "+",
    TokenKind.MINUS_ASSIGN: "-",
    TokenKind.STAR_ASSIGN: "*",
    TokenKind.SLASH_ASSIGN: "/",
}

# Binary operator precedence, loosest first.
_BINARY_LEVELS: list[list[tuple[TokenKind, str]]] = [
    [(TokenKind.PIPEPIPE, "||")],
    [(TokenKind.AMPAMP, "&&")],
    [(TokenKind.PIPE, "|")],
    [(TokenKind.CARET, "^")],
    [(TokenKind.AMP, "&")],
    [(TokenKind.EQEQ, "=="), (TokenKind.NOTEQ, "!=")],
    [
        (TokenKind.LT, "<"),
        (TokenKind.LE, "<="),
        (TokenKind.GT, ">"),
        (TokenKind.GE, ">="),
    ],
    [(TokenKind.LSHIFT, "<<"), (TokenKind.RSHIFT, ">>")],
    [(TokenKind.PLUS, "+"), (TokenKind.MINUS, "-")],
    [(TokenKind.STAR, "*"), (TokenKind.SLASH, "/"), (TokenKind.PERCENT, "%")],
]

#: Binary operator kind -> (its level in ``_BINARY_LEVELS``, spelling).
_BINARY_OPS: dict[TokenKind, tuple[int, str]] = {
    kind: (level, op) for level, ops in enumerate(_BINARY_LEVELS) for kind, op in ops
}

#: Prefix-operator and builtin-type keyword kinds, each spelt as its kind.
_UNARY_OPS = {kind: kind.value for kind in (
    TokenKind.MINUS, TokenKind.BANG, TokenKind.TILDE, TokenKind.STAR, TokenKind.AMP,
)}
_SIMPLE_TYPES = {kind: kind.value for kind in (
    TokenKind.KW_VOID, TokenKind.KW_BOOL, TokenKind.KW_CHAR, TokenKind.KW_INT,
    TokenKind.KW_UINT, TokenKind.KW_FLOAT,
)}


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: list[Token], source: SourceFile):
        self._tokens = tokens
        self._source = source
        self._pos = 0
        self._type_names: set[str] = set()

    # ------------------------------------------------------------- cursor

    def _peek(self, ahead: int = 0) -> Token:
        # The cursor never moves past EOF, so only lookahead clamps.
        if not ahead:
            return self._tokens[self._pos]
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _at(self, kind: TokenKind, ahead: int = 0) -> bool:
        if not ahead:
            return self._tokens[self._pos].kind is kind
        return self._peek(ahead).kind is kind

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str = "") -> Token:
        if self._at(kind):
            return self._advance()
        got = self._peek()
        where = f" while parsing {context}" if context else ""
        raise self._error(
            f"expected {kind.value!r}, found {got.kind.value!r}{where}", got.span
        )

    def _error(self, message: str, span: Optional[SourceSpan]) -> ParseError:
        return ParseError([Diagnostic("E-parse", message, span)])

    # ------------------------------------------------------------ type refs

    def _starts_type(self, ahead: int = 0) -> bool:
        token = self._peek(ahead)
        if token.kind in _TYPE_KEYWORDS:
            return True
        if token.kind is TokenKind.KW_OUTER:
            return True
        if token.kind in (TokenKind.KW_STRUCT, TokenKind.KW_CLASS):
            return True
        return token.kind is TokenKind.IDENT and token.value in self._type_names

    def _parse_base_type(self) -> ast.TypeRef:
        token = self._peek()
        if token.kind in _SIMPLE_TYPES:
            self._advance()
            return ast.NamedTypeRef(_SIMPLE_TYPES[token.kind], span=token.span)
        if token.kind is TokenKind.KW_HANDLE:
            self._advance()
            return ast.HandleTypeRef(span=token.span)
        if token.kind is TokenKind.KW_ARRAY:
            self._advance()
            self._expect(TokenKind.LT, "Array<T, N>")
            element = self._parse_type()
            self._expect(TokenKind.COMMA, "Array<T, N>")
            # Additive precedence only, so the closing '>' is not eaten
            # as a comparison operator.
            count = self._parse_binary(8)
            self._expect(TokenKind.GT, "Array<T, N>")
            return ast.AccessorTypeRef(element, count, span=token.span)
        if token.kind in (TokenKind.KW_STRUCT, TokenKind.KW_CLASS):
            # Elaborated type: `struct T` as a type spec.
            self._advance()
            name = self._expect(TokenKind.IDENT, "type name")
            return ast.NamedTypeRef(str(name.value), span=name.span)
        if token.kind is TokenKind.IDENT and token.value in self._type_names:
            self._advance()
            return ast.NamedTypeRef(str(token.value), span=token.span)
        raise self._error(
            f"expected a type, found {token.kind.value!r}", token.span
        )

    def _parse_type(self) -> ast.TypeRef:
        """Parse a full type spec: qualifiers, base and pointer levels."""
        leading_outer = self._accept(TokenKind.KW_OUTER) is not None
        base = self._parse_base_type()
        first_level = True
        while True:
            outer = leading_outer and first_level
            addressing: Optional[str] = None
            # Qualifiers written between the base/previous star and this
            # star: `char __byte * p`, `int __outer * p`.
            while True:
                if self._accept(TokenKind.KW_BYTE_ATTR):
                    addressing = "byte"
                elif self._accept(TokenKind.KW_WORD_ATTR):
                    addressing = "word"
                elif self._accept(TokenKind.KW_OUTER):
                    outer = True
                else:
                    break
            if self._accept(TokenKind.STAR):
                base = ast.PointerTypeRef(
                    base, outer=outer, addressing=addressing, span=base.span
                )
                first_level = False
                continue
            if addressing is not None or (outer and not first_level):
                token = self._peek()
                raise self._error(
                    "pointer qualifier must be followed by '*'", token.span
                )
            if leading_outer and first_level:
                token = self._peek()
                raise self._error(
                    "'__outer' must qualify a pointer type", token.span
                )
            return base

    # ---------------------------------------------------------- expressions

    def _parse_expression(self) -> ast.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, level: int) -> ast.Expr:
        """Precedence climbing over ``_BINARY_LEVELS[level:]``, left-assoc."""
        lhs = self._parse_unary()
        while True:
            binary = _BINARY_OPS.get(self._tokens[self._pos].kind)
            if binary is None or binary[0] < level:
                return lhs
            token = self._advance()
            rhs = self._parse_binary(binary[0] + 1)
            lhs = ast.BinaryExpr(binary[1], lhs, rhs, span=token.span)

    def _is_cast_ahead(self) -> bool:
        """After an '(' at the cursor, does a cast follow?"""
        if not self._at(TokenKind.LPAREN):
            return False
        if not self._starts_type(1):
            return False
        # Scan forward past the type spec to check for the closing ')'.
        saved = self._pos
        try:
            self._advance()  # (
            self._parse_type()
            is_cast = self._at(TokenKind.RPAREN)
        except ParseError:
            is_cast = False
        finally:
            self._pos = saved
        return is_cast

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind in _UNARY_OPS:
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryExpr(_UNARY_OPS[token.kind], operand, span=token.span)
        if self._is_cast_ahead():
            lparen = self._advance()
            target = self._parse_type()
            self._expect(TokenKind.RPAREN, "cast")
            operand = self._parse_unary()
            return ast.CastExpr(target, operand, span=lparen.span)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.kind is TokenKind.LBRACKET:
                self._advance()
                index = self._parse_expression()
                self._expect(TokenKind.RBRACKET, "index expression")
                expr = ast.IndexExpr(expr, index, span=token.span)
            elif token.kind in (TokenKind.DOT, TokenKind.ARROW):
                self._advance()
                name = self._expect(TokenKind.IDENT, "member name")
                member = ast.MemberExpr(
                    expr,
                    str(name.value),
                    arrow=token.kind is TokenKind.ARROW,
                    span=name.span,
                )
                if self._at(TokenKind.LPAREN):
                    args = self._parse_call_args()
                    expr = ast.CallExpr(member, args, span=name.span)
                else:
                    expr = member
            else:
                return expr

    def _parse_call_args(self) -> list[ast.Expr]:
        self._expect(TokenKind.LPAREN, "call")
        args: list[ast.Expr] = []
        if not self._at(TokenKind.RPAREN):
            args.append(self._parse_expression())
            while self._accept(TokenKind.COMMA):
                args.append(self._parse_expression())
        self._expect(TokenKind.RPAREN, "call")
        return args

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.IDENT:
            self._advance()
            name = ast.NameExpr(str(token.value), span=token.span)
            if self._at(TokenKind.LPAREN):
                args = self._parse_call_args()
                return ast.CallExpr(name, args, span=token.span)
            return name
        if token.kind is TokenKind.INT_LIT:
            self._advance()
            return ast.IntLit(int(token.value), span=token.span)  # type: ignore[arg-type]
        if token.kind is TokenKind.FLOAT_LIT:
            self._advance()
            return ast.FloatLit(float(token.value), span=token.span)  # type: ignore[arg-type]
        if token.kind is TokenKind.CHAR_LIT:
            self._advance()
            return ast.IntLit(int(token.value), suffix="char", span=token.span)  # type: ignore[arg-type]
        if token.kind is TokenKind.KW_TRUE:
            self._advance()
            return ast.BoolLit(True, span=token.span)
        if token.kind is TokenKind.KW_FALSE:
            self._advance()
            return ast.BoolLit(False, span=token.span)
        if token.kind is TokenKind.KW_NULL:
            self._advance()
            return ast.NullLit(span=token.span)
        if token.kind is TokenKind.KW_THIS:
            self._advance()
            return ast.ThisExpr(span=token.span)
        if token.kind is TokenKind.KW_SIZEOF:
            self._advance()
            self._expect(TokenKind.LPAREN, "sizeof")
            target = self._parse_type()
            self._expect(TokenKind.RPAREN, "sizeof")
            return ast.SizeofExpr(target, span=token.span)
        if token.kind is TokenKind.KW_OFFLOAD:
            return self._parse_offload()
        if token.kind is TokenKind.LPAREN:
            self._advance()
            inner = self._parse_expression()
            self._expect(TokenKind.RPAREN, "parenthesised expression")
            return inner
        raise self._error(
            f"expected an expression, found {token.kind.value!r}", token.span
        )

    # -------------------------------------------------------------- offload

    def _parse_domain_item(self) -> ast.DomainItem:
        first = self._expect(TokenKind.IDENT, "domain annotation")
        class_name: Optional[str] = None
        method_name = str(first.value)
        if self._accept(TokenKind.COLONCOLON):
            class_name = method_name
            method = self._expect(TokenKind.IDENT, "domain annotation")
            method_name = str(method.value)
        this_space = "outer"
        if self._accept(TokenKind.AT):
            space = self._expect(TokenKind.IDENT, "domain @space")
            if space.value not in ("local", "outer"):
                raise self._error(
                    f"domain space must be 'local' or 'outer', "
                    f"got {space.value!r}",
                    space.span,
                )
            this_space = str(space.value)
        return ast.DomainItem(class_name, method_name, this_space, first.span)

    def _parse_offload(self) -> ast.OffloadExpr:
        keyword = self._expect(TokenKind.KW_OFFLOAD, "offload block")
        domain: list[ast.DomainItem] = []
        cache_kind: Optional[str] = None
        if self._accept(TokenKind.LBRACKET):
            while not self._at(TokenKind.RBRACKET):
                if self._accept(TokenKind.KW_DOMAIN):
                    self._expect(TokenKind.LPAREN, "domain annotation")
                    domain.append(self._parse_domain_item())
                    while self._accept(TokenKind.COMMA):
                        domain.append(self._parse_domain_item())
                    self._expect(TokenKind.RPAREN, "domain annotation")
                elif self._accept(TokenKind.KW_CACHE):
                    self._expect(TokenKind.LPAREN, "cache annotation")
                    kind = self._expect(TokenKind.IDENT, "cache kind")
                    cache_kind = str(kind.value)
                    self._expect(TokenKind.RPAREN, "cache annotation")
                else:
                    token = self._peek()
                    raise self._error(
                        f"unknown offload annotation {token.text!r}", token.span
                    )
                self._accept(TokenKind.COMMA)
            self._expect(TokenKind.RBRACKET, "offload annotations")
        body = self._parse_block()
        return ast.OffloadExpr(domain, cache_kind, body, span=keyword.span)

    # ------------------------------------------------------------ statements

    def _parse_block(self) -> ast.BlockStmt:
        open_brace = self._expect(TokenKind.LBRACE, "block")
        statements: list[ast.Stmt] = []
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.EOF):
                raise self._error("unterminated block", open_brace.span)
            statements.append(self._parse_statement())
        self._expect(TokenKind.RBRACE, "block")
        return ast.BlockStmt(statements, span=open_brace.span)

    def _parse_funcptr_declarator(
        self, return_type: ast.TypeRef
    ) -> tuple[ast.TypeRef, Token]:
        """Parse ``(*name)(param-types)`` after the return type."""
        self._expect(TokenKind.LPAREN, "function-pointer declarator")
        self._expect(TokenKind.STAR, "function-pointer declarator")
        name = self._expect(TokenKind.IDENT, "function-pointer name")
        self._expect(TokenKind.RPAREN, "function-pointer declarator")
        self._expect(TokenKind.LPAREN, "function-pointer parameter list")
        params: list[ast.TypeRef] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                if self._at(TokenKind.KW_VOID) and self._at(TokenKind.RPAREN, 1):
                    self._advance()
                    break
                params.append(self._parse_type())
                # Parameter names are optional in declarators.
                self._accept(TokenKind.IDENT)
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "function-pointer parameter list")
        return (
            ast.FuncPtrTypeRef(return_type, params, span=name.span),
            name,
        )

    def _at_funcptr_declarator(self) -> bool:
        return self._at(TokenKind.LPAREN) and self._at(TokenKind.STAR, 1)

    def _parse_var_decl(self) -> ast.VarDeclStmt:
        declared = self._parse_type()
        if self._at_funcptr_declarator():
            declared, name = self._parse_funcptr_declarator(declared)
            init: Optional[ast.Expr] = None
            if self._accept(TokenKind.ASSIGN):
                init = self._parse_expression()
            self._expect(TokenKind.SEMI, "declaration")
            return ast.VarDeclStmt(declared, str(name.value), init, span=name.span)
        name = self._expect(TokenKind.IDENT, "variable name")
        # Array suffixes bind to the declarator: `T a[N][M]`.
        dims: list[ast.Expr] = []
        while self._accept(TokenKind.LBRACKET):
            dims.append(self._parse_expression())
            self._expect(TokenKind.RBRACKET, "array extent")
        for dim in reversed(dims):
            declared = ast.ArrayTypeRef(declared, dim, span=declared.span)
        init: Optional[ast.Expr] = None
        if self._accept(TokenKind.ASSIGN):
            init = self._parse_expression()
        elif self._at(TokenKind.LPAREN) and isinstance(
            declared, ast.AccessorTypeRef
        ):
            # Accessor construction binds an outer array expression:
            # `Array<T, N> a(outer_objects);`
            args = self._parse_call_args()
            if len(args) != 1:
                raise self._error(
                    "Array<T, N> takes exactly one constructor argument "
                    "(the outer array to stage)",
                    name.span,
                )
            init = args[0]
        self._expect(TokenKind.SEMI, "declaration")
        return ast.VarDeclStmt(declared, str(name.value), init, span=name.span)

    def _parse_simple_statement(self) -> ast.Stmt:
        """A declaration, assignment, inc/dec or expression, plus ';'."""
        if self._starts_type():
            return self._parse_var_decl()
        expr = self._parse_expression()
        token = self._peek()
        if token.kind in _ASSIGN_OPS:
            self._advance()
            value = self._parse_expression()
            self._expect(TokenKind.SEMI, "assignment")
            return ast.AssignStmt(expr, _ASSIGN_OPS[token.kind], value, span=token.span)
        if token.kind is TokenKind.PLUSPLUS:
            self._advance()
            self._expect(TokenKind.SEMI, "increment")
            return ast.IncDecStmt(expr, 1, span=token.span)
        if token.kind is TokenKind.MINUSMINUS:
            self._advance()
            self._expect(TokenKind.SEMI, "decrement")
            return ast.IncDecStmt(expr, -1, span=token.span)
        self._expect(TokenKind.SEMI, "expression statement")
        return ast.ExprStmt(expr, span=expr.span)

    def _parse_for_clause(self) -> Optional[ast.Stmt]:
        """An init/step clause of a for statement, without the ';'."""
        if self._starts_type():
            declared = self._parse_type()
            name = self._expect(TokenKind.IDENT, "variable name")
            init: Optional[ast.Expr] = None
            if self._accept(TokenKind.ASSIGN):
                init = self._parse_expression()
            return ast.VarDeclStmt(declared, str(name.value), init, span=name.span)
        expr = self._parse_expression()
        token = self._peek()
        if token.kind in _ASSIGN_OPS:
            self._advance()
            value = self._parse_expression()
            return ast.AssignStmt(expr, _ASSIGN_OPS[token.kind], value, span=token.span)
        if token.kind is TokenKind.PLUSPLUS:
            self._advance()
            return ast.IncDecStmt(expr, 1, span=token.span)
        if token.kind is TokenKind.MINUSMINUS:
            self._advance()
            return ast.IncDecStmt(expr, -1, span=token.span)
        return ast.ExprStmt(expr, span=expr.span)

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.kind is TokenKind.LBRACE:
            return self._parse_block()
        if token.kind is TokenKind.KW_IF:
            self._advance()
            self._expect(TokenKind.LPAREN, "if")
            condition = self._parse_expression()
            self._expect(TokenKind.RPAREN, "if")
            then_body = self._parse_statement()
            else_body: Optional[ast.Stmt] = None
            if self._accept(TokenKind.KW_ELSE):
                else_body = self._parse_statement()
            return ast.IfStmt(condition, then_body, else_body, span=token.span)
        if token.kind is TokenKind.KW_WHILE:
            self._advance()
            self._expect(TokenKind.LPAREN, "while")
            condition = self._parse_expression()
            self._expect(TokenKind.RPAREN, "while")
            body = self._parse_statement()
            return ast.WhileStmt(condition, body, span=token.span)
        if token.kind is TokenKind.KW_FOR:
            self._advance()
            self._expect(TokenKind.LPAREN, "for")
            init: Optional[ast.Stmt] = None
            if not self._at(TokenKind.SEMI):
                init = self._parse_for_clause()
            self._expect(TokenKind.SEMI, "for")
            condition: Optional[ast.Expr] = None
            if not self._at(TokenKind.SEMI):
                condition = self._parse_expression()
            self._expect(TokenKind.SEMI, "for")
            step: Optional[ast.Stmt] = None
            if not self._at(TokenKind.RPAREN):
                step = self._parse_for_clause()
            self._expect(TokenKind.RPAREN, "for")
            body = self._parse_statement()
            return ast.ForStmt(init, condition, step, body, span=token.span)
        if token.kind is TokenKind.KW_RETURN:
            self._advance()
            value: Optional[ast.Expr] = None
            if not self._at(TokenKind.SEMI):
                value = self._parse_expression()
            self._expect(TokenKind.SEMI, "return")
            return ast.ReturnStmt(value, span=token.span)
        if token.kind is TokenKind.KW_BREAK:
            self._advance()
            self._expect(TokenKind.SEMI, "break")
            return ast.BreakStmt(span=token.span)
        if token.kind is TokenKind.KW_CONTINUE:
            self._advance()
            self._expect(TokenKind.SEMI, "continue")
            return ast.ContinueStmt(span=token.span)
        if token.kind is TokenKind.KW_OFFLOAD_JOIN:
            self._advance()
            self._expect(TokenKind.LPAREN, "__offload_join")
            handle = self._parse_expression()
            self._expect(TokenKind.RPAREN, "__offload_join")
            self._expect(TokenKind.SEMI, "__offload_join")
            return ast.JoinStmt(handle, span=token.span)
        if token.kind is TokenKind.KW_OFFLOAD:
            # Bare offload statement: launch and join immediately.
            offload = self._parse_offload()
            self._accept(TokenKind.SEMI)
            return ast.ExprStmt(offload, span=token.span)
        return self._parse_simple_statement()

    # ----------------------------------------------------------- top level

    def _parse_class(self) -> ast.ClassDecl:
        keyword = self._advance()  # class / struct
        is_class = keyword.kind is TokenKind.KW_CLASS
        name = self._expect(TokenKind.IDENT, "class name")
        self._type_names.add(str(name.value))
        base: Optional[str] = None
        if self._accept(TokenKind.COLON):
            base_tok = self._expect(TokenKind.IDENT, "base class name")
            base = str(base_tok.value)
        self._expect(TokenKind.LBRACE, "class body")
        fields: list[ast.FieldDecl] = []
        methods: list[ast.FuncDecl] = []
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.EOF):
                raise self._error("unterminated class body", keyword.span)
            is_virtual = self._accept(TokenKind.KW_VIRTUAL) is not None
            declared = self._parse_type()
            member = self._expect(TokenKind.IDENT, "member name")
            if self._at(TokenKind.LPAREN):
                params = self._parse_params()
                body = self._parse_block()
                methods.append(
                    ast.FuncDecl(
                        str(member.value),
                        declared,
                        params,
                        body,
                        is_virtual=is_virtual,
                        owner=str(name.value),
                        span=member.span,
                    )
                )
            else:
                if is_virtual:
                    raise self._error("fields cannot be virtual", member.span)
                dims: list[ast.Expr] = []
                while self._accept(TokenKind.LBRACKET):
                    dims.append(self._parse_expression())
                    self._expect(TokenKind.RBRACKET, "array extent")
                for dim in reversed(dims):
                    declared = ast.ArrayTypeRef(declared, dim, span=declared.span)
                self._expect(TokenKind.SEMI, "field")
                fields.append(
                    ast.FieldDecl(declared, str(member.value), member.span)
                )
        self._expect(TokenKind.RBRACE, "class body")
        self._accept(TokenKind.SEMI)
        return ast.ClassDecl(
            str(name.value), base, fields, methods, is_class, keyword.span
        )

    def _parse_params(self) -> list[ast.ParamDecl]:
        self._expect(TokenKind.LPAREN, "parameter list")
        params: list[ast.ParamDecl] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                if self._at(TokenKind.KW_VOID) and self._at(TokenKind.RPAREN, 1):
                    self._advance()
                    break
                declared = self._parse_type()
                name = self._expect(TokenKind.IDENT, "parameter name")
                params.append(ast.ParamDecl(declared, str(name.value), name.span))
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "parameter list")
        return params

    def parse_program(self) -> ast.Program:
        """Parse the whole translation unit."""
        program = ast.Program()
        while not self._at(TokenKind.EOF):
            token = self._peek()
            if token.kind in (TokenKind.KW_CLASS, TokenKind.KW_STRUCT):
                # Could be a class definition or an elaborated global
                # declaration; a definition has '{' after the name (or
                # after ': Base').
                if self._is_class_definition():
                    program.classes.append(self._parse_class())
                    continue
            declared = self._parse_type()
            if self._at_funcptr_declarator():
                declared, fp_name = self._parse_funcptr_declarator(declared)
                init: Optional[ast.Expr] = None
                if self._accept(TokenKind.ASSIGN):
                    init = self._parse_expression()
                self._expect(TokenKind.SEMI, "global declaration")
                program.globals.append(
                    ast.GlobalVarDecl(
                        declared, str(fp_name.value), init, fp_name.span
                    )
                )
                continue
            name = self._expect(TokenKind.IDENT, "declaration name")
            if self._at(TokenKind.LPAREN):
                params = self._parse_params()
                body = self._parse_block()
                program.functions.append(
                    ast.FuncDecl(
                        str(name.value), declared, params, body, span=name.span
                    )
                )
            else:
                dims: list[ast.Expr] = []
                while self._accept(TokenKind.LBRACKET):
                    dims.append(self._parse_expression())
                    self._expect(TokenKind.RBRACKET, "array extent")
                for dim in reversed(dims):
                    declared = ast.ArrayTypeRef(declared, dim, span=declared.span)
                init: Optional[ast.Expr] = None
                if self._accept(TokenKind.ASSIGN):
                    init = self._parse_expression()
                self._expect(TokenKind.SEMI, "global declaration")
                program.globals.append(
                    ast.GlobalVarDecl(declared, str(name.value), init, name.span)
                )
        return program

    def _is_class_definition(self) -> bool:
        """class/struct IDENT followed by '{' or ': Base {' is a definition."""
        if not self._at(TokenKind.IDENT, 1):
            return False
        return self._peek(2).kind is TokenKind.LBRACE or (
            self._peek(2).kind is TokenKind.COLON
            and self._peek(3).kind is TokenKind.IDENT
        )


def parse_program(text: str, filename: str = "<input>") -> ast.Program:
    """Lex and parse OffloadMini source text."""
    from repro.lang.lexer import Lexer

    source = SourceFile(text, filename)
    tokens = Lexer(source).tokens()
    return Parser(tokens, source).parse_program()
