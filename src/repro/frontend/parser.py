"""Recursive-descent parser for MLL."""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .errors import FrontendError
from .lexer import TokKind, Token, tokenize

#: Binary operator precedence, loosest binding first.
_PRECEDENCE = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]

#: Binary operator -> binding power (its level above; higher binds tighter).
_BINDING_POWER = {
    op: power for power, ops in enumerate(_PRECEDENCE) for op in ops
}


class Parser:
    """Parses one MLL source file into a :class:`ModuleAST`."""

    def __init__(self, source: str, module_name: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0
        self.module_name = module_name
        self.total_lines = source.count("\n") + (0 if source.endswith("\n") else 1)

    # -- Token helpers --------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokKind.EOF:
            self.pos += 1
        return token

    def error(self, message: str) -> FrontendError:
        token = self.current
        return FrontendError(
            "%s:%d:%d: %s (at %r)"
            % (self.module_name, token.line, token.col, message, token.text)
        )

    def expect_op(self, text: str) -> Token:
        if not self.current.is_op(text):
            raise self.error("expected %r" % text)
        return self.advance()

    def expect_kw(self, text: str) -> Token:
        if not self.current.is_kw(text):
            raise self.error("expected keyword %r" % text)
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind is not TokKind.IDENT:
            raise self.error("expected identifier")
        return self.advance()

    def accept_op(self, text: str) -> bool:
        if self.current.is_op(text):
            self.advance()
            return True
        return False

    # -- Top level -------------------------------------------------------------

    def parse_module(self) -> ast.ModuleAST:
        module = ast.ModuleAST(self.module_name)
        module.total_lines = self.total_lines
        while self.current.kind is not TokKind.EOF:
            exported = True
            if self.current.is_kw("static"):
                self.advance()
                exported = False
            if self.current.is_kw("global"):
                module.globals.append(self._parse_global(exported))
            elif self.current.is_kw("func"):
                module.funcs.append(self._parse_func(exported))
            else:
                raise self.error("expected 'global' or 'func' at top level")
        return module

    def _parse_global(self, exported: bool) -> ast.GlobalDecl:
        line = self.current.line
        self.expect_kw("global")
        name = self.expect_ident().text
        size = 1
        init: List[int] = []
        if self.accept_op("["):
            size_tok = self.advance()
            if size_tok.kind is not TokKind.NUMBER:
                raise self.error("array size must be a literal")
            size = int(size_tok.text)
            self.expect_op("]")
        if self.accept_op("="):
            if self.accept_op("{"):
                while not self.current.is_op("}"):
                    init.append(self._parse_int_literal())
                    if not self.accept_op(","):
                        break
                self.expect_op("}")
            else:
                init.append(self._parse_int_literal())
        self.expect_op(";")
        if len(init) > size:
            raise self.error("too many initializers for %s[%d]" % (name, size))
        init.extend([0] * (size - len(init)))
        return ast.GlobalDecl(name, size, init, exported, line)

    def _parse_int_literal(self) -> int:
        negative = self.accept_op("-")
        token = self.advance()
        if token.kind is not TokKind.NUMBER:
            raise self.error("expected integer literal")
        value = int(token.text)
        return -value if negative else value

    def _parse_func(self, exported: bool) -> ast.FuncDecl:
        line = self.current.line
        self.expect_kw("func")
        name = self.expect_ident().text
        self.expect_op("(")
        params: List[str] = []
        if not self.current.is_op(")"):
            while True:
                params.append(self.expect_ident().text)
                if not self.accept_op(","):
                    break
        self.expect_op(")")
        body = self._parse_block()
        end_line = self.tokens[self.pos - 1].line
        return ast.FuncDecl(name, params, body, exported, line, end_line)

    # -- Statements ---------------------------------------------------------------

    def _parse_block(self) -> List[ast.Stmt]:
        self.expect_op("{")
        body: List[ast.Stmt] = []
        while not self.current.is_op("}"):
            body.append(self._parse_stmt())
        self.expect_op("}")
        return body

    def _parse_stmt(self) -> ast.Stmt:
        token = self.current
        if token.is_kw("var"):
            return self._parse_var_decl()
        if token.is_kw("if"):
            return self._parse_if()
        if token.is_kw("while"):
            return self._parse_while()
        if token.is_kw("for"):
            return self._parse_for()
        if token.is_kw("return"):
            return self._parse_return()
        return self._parse_simple_stmt(require_semi=True)

    def _parse_var_decl(self) -> ast.VarDecl:
        line = self.expect_kw("var").line
        name = self.expect_ident().text
        self.expect_op("=")
        init = self._parse_expr()
        self.expect_op(";")
        return ast.VarDecl(name, init, line)

    def _parse_if(self) -> ast.IfStmt:
        line = self.expect_kw("if").line
        self.expect_op("(")
        cond = self._parse_expr()
        self.expect_op(")")
        then_body = self._parse_block()
        else_body: Optional[List[ast.Stmt]] = None
        if self.current.is_kw("else"):
            self.advance()
            if self.current.is_kw("if"):
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_block()
        return ast.IfStmt(cond, then_body, else_body, line)

    def _parse_while(self) -> ast.WhileStmt:
        line = self.expect_kw("while").line
        self.expect_op("(")
        cond = self._parse_expr()
        self.expect_op(")")
        body = self._parse_block()
        return ast.WhileStmt(cond, body, line)

    def _parse_for(self) -> ast.ForStmt:
        line = self.expect_kw("for").line
        self.expect_op("(")
        init: Optional[ast.Stmt] = None
        if not self.current.is_op(";"):
            if self.current.is_kw("var"):
                init = self._parse_var_decl()
            else:
                init = self._parse_simple_stmt(require_semi=True)
        else:
            self.expect_op(";")
        cond = self._parse_expr()
        self.expect_op(";")
        step: Optional[ast.Stmt] = None
        if not self.current.is_op(")"):
            step = self._parse_simple_stmt(require_semi=False)
        self.expect_op(")")
        body = self._parse_block()
        return ast.ForStmt(init, cond, step, body, line)

    def _parse_return(self) -> ast.ReturnStmt:
        line = self.expect_kw("return").line
        value: Optional[ast.Expr] = None
        if not self.current.is_op(";"):
            value = self._parse_expr()
        self.expect_op(";")
        return ast.ReturnStmt(value, line)

    def _parse_simple_stmt(self, require_semi: bool) -> ast.Stmt:
        """Assignment, array store or expression statement."""
        token = self.current
        stmt: ast.Stmt
        if token.kind is TokKind.IDENT:
            next_token = self.tokens[self.pos + 1]
            if next_token.is_op("="):
                name = self.advance().text
                self.advance()  # '='
                value = self._parse_expr()
                stmt = ast.Assign(name, value, token.line)
            elif next_token.is_op("["):
                saved = self.pos
                name = self.advance().text
                self.advance()  # '['
                index = self._parse_expr()
                self.expect_op("]")
                if self.accept_op("="):
                    value = self._parse_expr()
                    stmt = ast.StoreElem(name, index, value, token.line)
                else:
                    self.pos = saved
                    stmt = ast.ExprStmt(self._parse_expr(), token.line)
            else:
                stmt = ast.ExprStmt(self._parse_expr(), token.line)
        else:
            stmt = ast.ExprStmt(self._parse_expr(), token.line)
        if require_semi:
            self.expect_op(";")
        return stmt

    # -- Expressions ------------------------------------------------------------

    def _parse_expr(self, min_power: int = 0) -> ast.Expr:
        """Precedence climbing: operators at least as tight as
        ``min_power``, left-associative."""
        left = self._parse_unary()
        while True:
            token = self.current
            if token.kind is not TokKind.OP:
                return left
            power = _BINDING_POWER.get(token.text)
            if power is None or power < min_power:
                return left
            self.advance()
            right = self._parse_expr(power + 1)
            left = ast.BinaryExpr(token.text, left, right, token.line)

    def _parse_unary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokKind.OP and token.text in ("-", "!", "~"):
            self.advance()
            operand = self._parse_unary()
            return ast.UnaryExpr(token.text, operand, token.line)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokKind.NUMBER:
            self.advance()
            return ast.NumberExpr(int(token.text), token.line)
        if token.kind is TokKind.IDENT:
            name = self.advance().text
            if self.accept_op("("):
                args: List[ast.Expr] = []
                if not self.current.is_op(")"):
                    while True:
                        args.append(self._parse_expr())
                        if not self.accept_op(","):
                            break
                self.expect_op(")")
                return ast.CallExpr(name, args, token.line)
            if self.accept_op("["):
                index = self._parse_expr()
                self.expect_op("]")
                return ast.IndexExpr(name, index, token.line)
            return ast.NameExpr(name, token.line)
        if self.accept_op("("):
            expr = self._parse_expr()
            self.expect_op(")")
            return expr
        raise self.error("expected expression")


def parse_source(source: str, module_name: str) -> ast.ModuleAST:
    """Parse MLL source text into an AST."""
    return Parser(source, module_name).parse_module()
