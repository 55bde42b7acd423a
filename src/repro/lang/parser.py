"""Recursive-descent parser for the kernel language."""

from __future__ import annotations

from typing import List, Optional

from repro.lang.astnodes import (
    ArrayRef,
    AssignStmt,
    Binary,
    Block,
    Call,
    DeclStmt,
    Expr,
    ExprStmt,
    FloatLit,
    ForStmt,
    Ident,
    IfStmt,
    IntLit,
    Kernel,
    Member,
    Param,
    Pragma,
    ReturnStmt,
    Stmt,
    SyncStmt,
    Ternary,
    Unary,
    WhileStmt,
)
from repro.lang.lexer import Lexer
from repro.lang.tokens import Token, TokenKind
from repro.lang.types import ScalarType

_TYPE_KEYWORDS = {
    TokenKind.KW_INT: "int",
    TokenKind.KW_FLOAT: "float",
    TokenKind.KW_FLOAT2: "float2",
    TokenKind.KW_FLOAT4: "float4",
}

_ASSIGN_OPS = {
    TokenKind.ASSIGN: "=",
    TokenKind.PLUS_ASSIGN: "+=",
    TokenKind.MINUS_ASSIGN: "-=",
    TokenKind.STAR_ASSIGN: "*=",
    TokenKind.SLASH_ASSIGN: "/=",
}

_SYNC_CALLS = {
    "__syncthreads": "block",
    "syncthreads": "block",
    "__global_sync": "global",
    "__gpu_sync": "global",
}


class ParseError(Exception):
    """Raised when the token stream does not match the grammar."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{token.line}:{token.col}: {message} (got {token.text!r})")
        self.token = token


class Parser:
    """Parses one kernel function (preceded by optional ``#pragma`` lines)."""

    def __init__(self, tokens: List[Token]):
        self._toks = tokens
        self._pos = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        idx = min(self._pos + ahead, len(self._toks) - 1)
        return self._toks[idx]

    def _at(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self._at(kind):
            tok = self._peek()
            self._pos += 1
            return tok
        return None

    def _expect(self, kind: TokenKind, what: str) -> Token:
        tok = self._accept(kind)
        if tok is None:
            raise ParseError(f"expected {what}", self._peek())
        return tok

    # -- grammar -----------------------------------------------------------

    def parse_kernel(self) -> Kernel:
        pragmas = []
        while self._at(TokenKind.PRAGMA):
            pragmas.append(Pragma(self._expect(TokenKind.PRAGMA, "#pragma").text))
        self._expect(TokenKind.KW_GLOBAL, "'__global__'")
        self._expect(TokenKind.KW_VOID, "'void'")
        name = self._expect(TokenKind.IDENT, "kernel name").text
        self._expect(TokenKind.LPAREN, "'('")
        params = self._parse_params()
        self._expect(TokenKind.RPAREN, "')'")
        self._expect(TokenKind.LBRACE, "'{'")
        body = self._parse_stmt_list_until(TokenKind.RBRACE)
        self._expect(TokenKind.RBRACE, "'}'")
        if not self._at(TokenKind.EOF):
            raise ParseError("trailing tokens after kernel", self._peek())
        return Kernel(name=name, params=params, body=body, pragmas=pragmas)

    def _parse_params(self) -> List[Param]:
        params: List[Param] = []
        if self._at(TokenKind.RPAREN):
            return params
        while True:
            params.append(self._parse_param())
            if not self._accept(TokenKind.COMMA):
                return params

    def _parse_param(self) -> Param:
        ty = self._parse_scalar_type()
        # Allow (and ignore) pointer spelling 'float* a' for arrays declared
        # via pragma dims; explicit bracket dims are preferred.
        self._accept(TokenKind.STAR)
        name = self._expect(TokenKind.IDENT, "parameter name").text
        dims = self._parse_dims()
        return Param(type=ty, name=name, dims=dims)

    def _parse_scalar_type(self) -> ScalarType:
        tok = self._peek()
        if tok.kind in _TYPE_KEYWORDS:
            self._pos += 1
            return ScalarType(_TYPE_KEYWORDS[tok.kind])
        raise ParseError("expected a type", tok)

    def _parse_dims(self) -> List:
        dims = []
        while self._accept(TokenKind.LBRACKET):
            tok = self._peek()
            if tok.kind is TokenKind.INT_LIT:
                self._pos += 1
                dims.append(int(tok.text))
            elif tok.kind is TokenKind.IDENT:
                self._pos += 1
                dims.append(tok.text)
            else:
                raise ParseError("expected array extent", tok)
            self._expect(TokenKind.RBRACKET, "']'")
        return dims

    # -- statements --------------------------------------------------------

    def _parse_stmt_list_until(self, end: TokenKind) -> List[Stmt]:
        stmts: List[Stmt] = []
        while not self._at(end) and not self._at(TokenKind.EOF):
            stmts.append(self._parse_stmt())
        return stmts

    def _parse_stmt(self) -> Stmt:
        tok = self._peek()
        if tok.kind is TokenKind.LBRACE:
            self._pos += 1
            body = self._parse_stmt_list_until(TokenKind.RBRACE)
            self._expect(TokenKind.RBRACE, "'}'")
            return Block(body)
        if tok.kind is TokenKind.KW_SHARED or tok.kind in _TYPE_KEYWORDS:
            return self._parse_decl()
        if tok.kind is TokenKind.KW_IF:
            return self._parse_if()
        if tok.kind is TokenKind.KW_FOR:
            return self._parse_for()
        if tok.kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if tok.kind is TokenKind.KW_RETURN:
            self._pos += 1
            self._expect(TokenKind.SEMI, "';'")
            return ReturnStmt(line=tok.line)
        if tok.kind is TokenKind.IDENT and tok.text in _SYNC_CALLS:
            self._pos += 1
            self._expect(TokenKind.LPAREN, "'('")
            self._expect(TokenKind.RPAREN, "')'")
            self._expect(TokenKind.SEMI, "';'")
            return SyncStmt(scope=_SYNC_CALLS[tok.text])
        if tok.kind is TokenKind.SEMI:
            self._pos += 1
            return Block([])
        stmt = self._parse_assign_or_expr()
        self._expect(TokenKind.SEMI, "';'")
        return stmt

    def _parse_decl(self) -> DeclStmt:
        shared = self._accept(TokenKind.KW_SHARED) is not None
        ty = self._parse_scalar_type()
        name = self._expect(TokenKind.IDENT, "variable name").text
        dims = self._parse_dims()
        init = None
        if self._accept(TokenKind.ASSIGN):
            if dims:
                raise ParseError("array declarations cannot have initializers",
                                 self._peek())
            init = self._parse_expr()
        self._expect(TokenKind.SEMI, "';'")
        return DeclStmt(type=ty, name=name, dims=dims, init=init, shared=shared)

    def _parse_if(self) -> IfStmt:
        self._expect(TokenKind.KW_IF, "'if'")
        self._expect(TokenKind.LPAREN, "'('")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "')'")
        then_body = self._parse_branch_body()
        else_body: List[Stmt] = []
        if self._accept(TokenKind.KW_ELSE):
            else_body = self._parse_branch_body()
        return IfStmt(cond=cond, then_body=then_body, else_body=else_body)

    def _parse_branch_body(self) -> List[Stmt]:
        if self._accept(TokenKind.LBRACE):
            body = self._parse_stmt_list_until(TokenKind.RBRACE)
            self._expect(TokenKind.RBRACE, "'}'")
            return body
        return [self._parse_stmt()]

    def _parse_for(self) -> ForStmt:
        self._expect(TokenKind.KW_FOR, "'for'")
        self._expect(TokenKind.LPAREN, "'('")
        init: Optional[Stmt] = None
        if not self._at(TokenKind.SEMI):
            if self._peek().kind in _TYPE_KEYWORDS:
                ty = self._parse_scalar_type()
                name = self._expect(TokenKind.IDENT, "iterator name").text
                self._expect(TokenKind.ASSIGN, "'='")
                init = DeclStmt(type=ty, name=name, init=self._parse_expr())
            else:
                init = self._parse_assign_or_expr()
        self._expect(TokenKind.SEMI, "';'")
        cond = None if self._at(TokenKind.SEMI) else self._parse_expr()
        self._expect(TokenKind.SEMI, "';'")
        update: Optional[Stmt] = None
        if not self._at(TokenKind.RPAREN):
            update = self._parse_assign_or_expr()
        self._expect(TokenKind.RPAREN, "')'")
        body = self._parse_branch_body()
        return ForStmt(init=init, cond=cond, update=update, body=body)

    def _parse_while(self) -> WhileStmt:
        self._expect(TokenKind.KW_WHILE, "'while'")
        self._expect(TokenKind.LPAREN, "'('")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "')'")
        return WhileStmt(cond=cond, body=self._parse_branch_body())

    def _parse_assign_or_expr(self) -> Stmt:
        target = self._parse_expr()
        tok = self._peek()
        if tok.kind in _ASSIGN_OPS:
            self._pos += 1
            value = self._parse_expr()
            self._check_lvalue(target, tok)
            return AssignStmt(target=target, op=_ASSIGN_OPS[tok.kind], value=value)
        if tok.kind is TokenKind.PLUS_PLUS:
            self._pos += 1
            self._check_lvalue(target, tok)
            return AssignStmt(target=target, op="=",
                              value=Binary("+", target.clone(), IntLit(1)))
        if tok.kind is TokenKind.MINUS_MINUS:
            self._pos += 1
            self._check_lvalue(target, tok)
            return AssignStmt(target=target, op="=",
                              value=Binary("-", target.clone(), IntLit(1)))
        return ExprStmt(target)

    @staticmethod
    def _check_lvalue(expr: Expr, tok: Token) -> None:
        if not isinstance(expr, (Ident, ArrayRef, Member)):
            raise ParseError("assignment target is not an lvalue", tok)

    # -- expressions (C precedence) ----------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        cond = self._parse_or()
        if self._accept(TokenKind.QUESTION):
            then = self._parse_expr()
            self._expect(TokenKind.COLON, "':'")
            otherwise = self._parse_ternary()
            return Ternary(cond, then, otherwise)
        return cond

    def _binary_level(self, sub, table) -> Expr:
        left = sub()
        while self._peek().kind in table:
            op = table[self._peek().kind]
            self._pos += 1
            left = Binary(op, left, sub())
        return left

    def _parse_or(self) -> Expr:
        return self._binary_level(self._parse_and, {TokenKind.OR_OR: "||"})

    def _parse_and(self) -> Expr:
        return self._binary_level(self._parse_bitor, {TokenKind.AND_AND: "&&"})

    def _parse_bitor(self) -> Expr:
        return self._binary_level(self._parse_bitxor, {TokenKind.PIPE: "|"})

    def _parse_bitxor(self) -> Expr:
        return self._binary_level(self._parse_bitand, {TokenKind.CARET: "^"})

    def _parse_bitand(self) -> Expr:
        return self._binary_level(self._parse_equality, {TokenKind.AMP: "&"})

    def _parse_equality(self) -> Expr:
        return self._binary_level(
            self._parse_relational, {TokenKind.EQ: "==", TokenKind.NE: "!="})

    def _parse_relational(self) -> Expr:
        return self._binary_level(
            self._parse_shift,
            {TokenKind.LT: "<", TokenKind.GT: ">",
             TokenKind.LE: "<=", TokenKind.GE: ">="})

    def _parse_shift(self) -> Expr:
        return self._binary_level(
            self._parse_additive, {TokenKind.SHL: "<<", TokenKind.SHR: ">>"})

    def _parse_additive(self) -> Expr:
        return self._binary_level(
            self._parse_multiplicative,
            {TokenKind.PLUS: "+", TokenKind.MINUS: "-"})

    def _parse_multiplicative(self) -> Expr:
        return self._binary_level(
            self._parse_unary,
            {TokenKind.STAR: "*", TokenKind.SLASH: "/", TokenKind.PERCENT: "%"})

    def _parse_unary(self) -> Expr:
        if self._accept(TokenKind.MINUS):
            return Unary("-", self._parse_unary())
        if self._accept(TokenKind.PLUS):
            return Unary("+", self._parse_unary())
        if self._accept(TokenKind.NOT):
            return Unary("!", self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            if self._at(TokenKind.LBRACKET):
                if not isinstance(expr, Ident):
                    raise ParseError("only named arrays can be subscripted",
                                     self._peek())
                indices: List[Expr] = []
                while self._accept(TokenKind.LBRACKET):
                    indices.append(self._parse_expr())
                    self._expect(TokenKind.RBRACKET, "']'")
                expr = ArrayRef(base=expr, indices=indices)
            elif self._at(TokenKind.DOT):
                self._pos += 1
                member = self._expect(TokenKind.IDENT, "member name").text
                if member not in ("x", "y", "z", "w"):
                    raise ParseError("unknown vector member", self._peek())
                expr = Member(base=expr, member=member)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        # Function-style casts: float(x), int(x).
        if tok.kind in _TYPE_KEYWORDS and \
                self._peek(1).kind is TokenKind.LPAREN:
            self._pos += 2
            arg = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
            return Call(_TYPE_KEYWORDS[tok.kind], [arg])
        if tok.kind is TokenKind.INT_LIT:
            self._pos += 1
            return IntLit(int(tok.text))
        if tok.kind is TokenKind.FLOAT_LIT:
            self._pos += 1
            return FloatLit(float(tok.text))
        if tok.kind is TokenKind.IDENT:
            self._pos += 1
            if self._accept(TokenKind.LPAREN):
                args: List[Expr] = []
                if not self._at(TokenKind.RPAREN):
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept(TokenKind.COMMA):
                            break
                self._expect(TokenKind.RPAREN, "')'")
                return Call(tok.text, args)
            return Ident(tok.text)
        if tok.kind is TokenKind.LPAREN:
            self._pos += 1
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
            return expr
        raise ParseError("expected an expression", tok)


def parse_kernel(source: str) -> Kernel:
    """Parse kernel source text into a :class:`Kernel` AST."""
    return Parser(Lexer(source).tokenize()).parse_kernel()
