"""Abstract syntax tree for MLL.

Node classes are plain data holders; behaviour lives in the parser,
semantic checker and lowering pass.  Each node records the source line
that produced it, which feeds the per-routine line accounting used by
the paper's "lines of code" metrics.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class Node:
    """Base AST node."""

    __slots__ = ("line",)

    def __init__(self, line: int) -> None:
        self.line = line


# -- Expressions ------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class NumberExpr(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, line: int) -> None:
        self.line = line
        self.value = value


class NameExpr(Expr):
    """A variable reference (local, param or global scalar)."""

    __slots__ = ("name",)

    def __init__(self, name: str, line: int) -> None:
        self.line = line
        self.name = name


class IndexExpr(Expr):
    """Global array element reference: ``name[index]``."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: Expr, line: int) -> None:
        self.line = line
        self.name = name
        self.index = index


class UnaryExpr(Expr):
    """op in {'-', '!', '~'}."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, line: int) -> None:
        self.line = line
        self.op = op
        self.operand = operand


class BinaryExpr(Expr):
    """Arithmetic/comparison/bitwise binary expression.

    Short-circuit '&&' and '||' are represented here too and lowered to
    control flow.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, line: int) -> None:
        self.line = line
        self.op = op
        self.left = left
        self.right = right


class CallExpr(Expr):
    __slots__ = ("callee", "args")

    def __init__(self, callee: str, args: Sequence[Expr], line: int) -> None:
        self.line = line
        self.callee = callee
        self.args = list(args)


# -- Statements -----------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class VarDecl(Stmt):
    """``var name = init;`` -- function-scoped local declaration."""

    __slots__ = ("name", "init")

    def __init__(self, name: str, init: Expr, line: int) -> None:
        self.line = line
        self.name = name
        self.init = init


class Assign(Stmt):
    """``name = value;`` (local or global scalar)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Expr, line: int) -> None:
        self.line = line
        self.name = name
        self.value = value


class StoreElem(Stmt):
    """``name[index] = value;`` (global array)."""

    __slots__ = ("name", "index", "value")

    def __init__(self, name: str, index: Expr, value: Expr, line: int) -> None:
        self.line = line
        self.name = name
        self.index = index
        self.value = value


class ExprStmt(Stmt):
    """Expression evaluated for side effects (typically a call)."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr, line: int) -> None:
        self.line = line
        self.expr = expr


class IfStmt(Stmt):
    __slots__ = ("cond", "then_body", "else_body")

    def __init__(
        self,
        cond: Expr,
        then_body: List[Stmt],
        else_body: Optional[List[Stmt]],
        line: int,
    ) -> None:
        self.line = line
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body


class WhileStmt(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: List[Stmt], line: int) -> None:
        self.line = line
        self.cond = cond
        self.body = body


class ForStmt(Stmt):
    """``for (init; cond; step) body`` where init/step are assignments."""

    __slots__ = ("init", "cond", "step", "body")

    def __init__(
        self,
        init: Optional[Stmt],
        cond: Expr,
        step: Optional[Stmt],
        body: List[Stmt],
        line: int,
    ) -> None:
        self.line = line
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class ReturnStmt(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr], line: int) -> None:
        self.line = line
        self.value = value


# -- Top level ---------------------------------------------------------------------


class GlobalDecl(Node):
    """``global name = 3;`` / ``global name[16] = {...};`` (+ ``static``)."""

    __slots__ = ("name", "size", "init", "exported")

    def __init__(
        self,
        name: str,
        size: int,
        init: List[int],
        exported: bool,
        line: int,
    ) -> None:
        self.line = line
        self.name = name
        self.size = size
        self.init = init
        self.exported = exported


class FuncDecl(Node):
    __slots__ = ("name", "params", "body", "exported", "end_line")

    def __init__(
        self,
        name: str,
        params: List[str],
        body: List[Stmt],
        exported: bool,
        line: int,
        end_line: int,
    ) -> None:
        self.line = line
        self.name = name
        self.params = params
        self.body = body
        self.exported = exported
        self.end_line = end_line

    @property
    def source_lines(self) -> int:
        return max(1, self.end_line - self.line + 1)


class ModuleAST(Node):
    """A parsed MLL source file: globals + functions + line count."""

    __slots__ = ("name", "globals", "funcs", "total_lines")

    def __init__(self, name: str) -> None:
        super().__init__(1)
        self.name = name
        self.globals: List[GlobalDecl] = []
        self.funcs: List[FuncDecl] = []
        self.total_lines = 0
