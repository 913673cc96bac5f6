"""Recursive-descent parser for MLL.

The parser reads the lexer's two flat lists (token texts and line
numbers) by index; a token is recognised by its text, so checking for
``(`` is ``texts[pos] == "("``.  A column is computed only for an error
message.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .errors import FrontendError
from .lexer import KEYWORDS, OPERATORS, column, scan

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

_UNARY_OPS = ("-", "!", "~")

#: Texts that are not a name or a number: operators, keywords and EOF.
_NOT_OPERAND = OPERATORS | KEYWORDS | {""}


class Parser:
    """Parses one MLL source file into a :class:`ModuleAST`."""

    def __init__(self, source: str, module_name: str) -> None:
        self.source = source
        self.texts, self.lines = scan(source)
        self.pos = 0
        self.module_name = module_name
        self.total_lines = source.count("\n") + (0 if source.endswith("\n") else 1)

    # -- Token helpers --------------------------------------------------------

    def error(self, message: str, pos: Optional[int] = None) -> FrontendError:
        """The error at token ``pos`` (default: the current token)."""
        if pos is None:
            pos = self.pos
        return FrontendError(
            "%s:%d:%d: %s (at %r)"
            % (self.module_name, self.lines[pos],
               column(self.source, self.lines, pos), message, self.texts[pos])
        )

    def expect(self, text: str) -> int:
        """Consume ``text`` (an operator or keyword); return its line."""
        pos = self.pos
        if self.texts[pos] != text:
            if text in KEYWORDS:
                raise self.error("expected keyword %r" % text)
            raise self.error("expected %r" % text)
        self.pos = pos + 1
        return self.lines[pos]

    def expect_ident(self) -> str:
        pos = self.pos
        text = self.texts[pos]
        if text in _NOT_OPERAND or text[0].isdigit():
            raise self.error("expected identifier")
        self.pos = pos + 1
        return text

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def _advance_number(self, message: str) -> int:
        """Consume the current token, which must be a number; past a
        token that is not one, the error names the token after it."""
        pos = self.pos
        text = self.texts[pos]
        if text:
            self.pos = pos + 1
        if text in _NOT_OPERAND or not text[0].isdigit():
            raise self.error(message)
        return int(text)

    # -- Top level -------------------------------------------------------------

    def parse_module(self) -> ast.ModuleAST:
        module = ast.ModuleAST(self.module_name)
        module.total_lines = self.total_lines
        texts = self.texts
        while texts[self.pos]:
            exported = True
            if texts[self.pos] == "static":
                self.pos += 1
                exported = False
            text = texts[self.pos]
            if text == "global":
                module.globals.append(self._parse_global(exported))
            elif text == "func":
                module.funcs.append(self._parse_func(exported))
            else:
                raise self.error("expected 'global' or 'func' at top level")
        return module

    def _parse_global(self, exported: bool) -> ast.GlobalDecl:
        line = self.expect("global")
        name = self.expect_ident()
        size = 1
        init: List[int] = []
        if self.accept("["):
            size = self._advance_number("array size must be a literal")
            self.expect("]")
        if self.accept("="):
            if self.accept("{"):
                while self.texts[self.pos] != "}":
                    init.append(self._parse_int_literal())
                    if not self.accept(","):
                        break
                self.expect("}")
            else:
                init.append(self._parse_int_literal())
        self.expect(";")
        if len(init) > size:
            raise self.error("too many initializers for %s[%d]" % (name, size))
        init.extend([0] * (size - len(init)))
        return ast.GlobalDecl(name, size, init, exported, line)

    def _parse_int_literal(self) -> int:
        negative = self.accept("-")
        value = self._advance_number("expected integer literal")
        return -value if negative else value

    def _parse_func(self, exported: bool) -> ast.FuncDecl:
        line = self.expect("func")
        name = self.expect_ident()
        self.expect("(")
        params: List[str] = []
        if self.texts[self.pos] != ")":
            while True:
                params.append(self.expect_ident())
                if not self.accept(","):
                    break
        self.expect(")")
        body = self._parse_block()
        end_line = self.lines[self.pos - 1]
        return ast.FuncDecl(name, params, body, exported, line, end_line)

    # -- Statements ---------------------------------------------------------------

    def _parse_block(self) -> List[ast.Stmt]:
        self.expect("{")
        body: List[ast.Stmt] = []
        texts = self.texts
        while texts[self.pos] != "}":
            body.append(self._parse_stmt())
        self.pos += 1
        return body

    def _parse_stmt(self) -> ast.Stmt:
        text = self.texts[self.pos]
        if text == "var":
            return self._parse_var_decl()
        if text == "if":
            return self._parse_if()
        if text == "while":
            return self._parse_while()
        if text == "for":
            return self._parse_for()
        if text == "return":
            return self._parse_return()
        return self._parse_simple_stmt(require_semi=True)

    def _parse_var_decl(self) -> ast.VarDecl:
        line = self.expect("var")
        name = self.expect_ident()
        self.expect("=")
        init = self._parse_expr()
        self.expect(";")
        return ast.VarDecl(name, init, line)

    def _parse_if(self) -> ast.IfStmt:
        line = self.expect("if")
        self.expect("(")
        cond = self._parse_expr()
        self.expect(")")
        then_body = self._parse_block()
        else_body: Optional[List[ast.Stmt]] = None
        if self.texts[self.pos] == "else":
            self.pos += 1
            if self.texts[self.pos] == "if":
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_block()
        return ast.IfStmt(cond, then_body, else_body, line)

    def _parse_while(self) -> ast.WhileStmt:
        line = self.expect("while")
        self.expect("(")
        cond = self._parse_expr()
        self.expect(")")
        body = self._parse_block()
        return ast.WhileStmt(cond, body, line)

    def _parse_for(self) -> ast.ForStmt:
        line = self.expect("for")
        self.expect("(")
        texts = self.texts
        init: Optional[ast.Stmt] = None
        if texts[self.pos] != ";":
            if texts[self.pos] == "var":
                init = self._parse_var_decl()
            else:
                init = self._parse_simple_stmt(require_semi=True)
        else:
            self.pos += 1
        cond = self._parse_expr()
        self.expect(";")
        step: Optional[ast.Stmt] = None
        if texts[self.pos] != ")":
            step = self._parse_simple_stmt(require_semi=False)
        self.expect(")")
        body = self._parse_block()
        return ast.ForStmt(init, cond, step, body, line)

    def _parse_return(self) -> ast.ReturnStmt:
        line = self.expect("return")
        value: Optional[ast.Expr] = None
        if self.texts[self.pos] != ";":
            value = self._parse_expr()
        self.expect(";")
        return ast.ReturnStmt(value, line)

    def _parse_simple_stmt(self, require_semi: bool) -> ast.Stmt:
        """Assignment, array store or expression statement."""
        texts = self.texts
        pos = self.pos
        name = texts[pos]
        line = self.lines[pos]
        stmt: ast.Stmt
        if name in _NOT_OPERAND or name[0].isdigit():
            stmt = ast.ExprStmt(self._parse_expr(), line)
        elif texts[pos + 1] == "=":
            self.pos = pos + 2
            stmt = ast.Assign(name, self._parse_expr(), line)
        elif texts[pos + 1] == "[":
            self.pos = pos + 2
            index = self._parse_expr()
            self.expect("]")
            if self.accept("="):
                stmt = ast.StoreElem(name, index, self._parse_expr(), line)
            else:
                self.pos = pos
                stmt = ast.ExprStmt(self._parse_expr(), line)
        else:
            stmt = ast.ExprStmt(self._parse_expr(), line)
        if require_semi:
            self.expect(";")
        return stmt

    # -- Expressions ------------------------------------------------------------

    def _parse_expr(self, min_power: int = 0) -> ast.Expr:
        """Precedence climbing: a unary chain and a primary, then the
        binary operators at least as tight as ``min_power``,
        left-associative."""
        texts = self.texts
        lines = self.lines
        pos = self.pos
        text = texts[pos]
        prefixes = None
        while text in _UNARY_OPS:
            if prefixes is None:
                prefixes = []
            prefixes.append((text, lines[pos]))
            pos += 1
            text = texts[pos]

        if text in _NOT_OPERAND:
            if text != "(":
                self.pos = pos
                raise self.error("expected expression")
            self.pos = pos + 1
            left = self._parse_expr()
            pos = self.pos
            if texts[pos] != ")":
                raise self.error("expected ')'")
            pos += 1
        elif text[0].isdigit():
            left = ast.NumberExpr(int(text), lines[pos])
            pos += 1
        else:
            line = lines[pos]
            after = texts[pos + 1]
            if after == "(":
                pos += 2
                args: List[ast.Expr] = []
                if texts[pos] != ")":
                    while True:
                        self.pos = pos
                        args.append(self._parse_expr())
                        pos = self.pos
                        if texts[pos] != ",":
                            break
                        pos += 1
                if texts[pos] != ")":
                    self.pos = pos
                    raise self.error("expected ')'")
                left = ast.CallExpr(text, args, line)
                pos += 1
            elif after == "[":
                self.pos = pos + 2
                index = self._parse_expr()
                pos = self.pos
                if texts[pos] != "]":
                    raise self.error("expected ']'")
                left = ast.IndexExpr(text, index, line)
                pos += 1
            else:
                left = ast.NameExpr(text, line)
                pos += 1

        if prefixes is not None:
            for op, line in reversed(prefixes):
                left = ast.UnaryExpr(op, left, line)

        power_of = _BINDING_POWER.get
        while True:
            text = texts[pos]
            power = power_of(text)
            if power is None or power < min_power:
                self.pos = pos
                return left
            line = lines[pos]
            self.pos = pos + 1
            right = self._parse_expr(power + 1)
            pos = self.pos
            left = ast.BinaryExpr(text, left, right, line)


def parse_source(source: str, module_name: str) -> ast.ModuleAST:
    """Parse MLL source text into an AST."""
    return Parser(source, module_name).parse_module()
