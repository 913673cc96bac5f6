"""Lowering: MLL AST -> IL module.

Locals map to dedicated virtual registers (non-SSA: assignment rewrites
the register).  Short-circuit ``&&``/``||`` lower to control flow.
Module-static symbols are qualified as ``module::name`` so the IL's flat
namespace stays scope-free.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.builder import IRBuilder
from ..ir.instructions import Instr, Opcode
from ..ir.module import Module
from ..ir.routine import Routine
from . import ast
from .errors import SemanticError
from .sema import ModuleInfo, check_module

_BINOP_BY_TEXT = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.MOD,
    "&": Opcode.AND,
    "|": Opcode.OR,
    "^": Opcode.XOR,
    "<<": Opcode.SHL,
    ">>": Opcode.SHR,
    "==": Opcode.EQ,
    "!=": Opcode.NE,
    "<": Opcode.LT,
    "<=": Opcode.LE,
    ">": Opcode.GT,
    ">=": Opcode.GE,
}


class _FuncLowering:
    """Lowers one function body."""

    def __init__(self, func: ast.FuncDecl, info: ModuleInfo, module_name: str) -> None:
        self.func = func
        self.info = info
        self.module_name = module_name
        name = func.name if func.exported else "%s::%s" % (module_name, func.name)
        self.routine = Routine(
            name,
            module_name=module_name,
            n_params=len(func.params),
            exported=func.exported,
            source_lines=func.source_lines,
        )
        self.builder = IRBuilder(self.routine)
        self.local_regs: Dict[str, int] = {
            param: index for index, param in enumerate(func.params)
        }

    # -- Symbol helpers -------------------------------------------------------

    def global_symbol(self, name: str) -> str:
        decl = self.info.global_decls.get(name)
        if decl is not None and not decl.exported:
            return "%s::%s" % (self.module_name, name)
        return name

    def callee_symbol(self, name: str) -> str:
        func = self.info.func_decls.get(name)
        if func is not None and not func.exported:
            return "%s::%s" % (self.module_name, name)
        return name

    # -- Expressions -------------------------------------------------------------

    def lower_expr(self, expr: ast.Expr) -> int:
        builder = self.builder
        kind = type(expr)
        if kind is ast.NameExpr:
            reg = self.local_regs.get(expr.name)
            if reg is not None:
                return reg
            return builder.load_global(self.global_symbol(expr.name))
        if kind is ast.NumberExpr:
            return builder.const(expr.value)
        if kind is ast.BinaryExpr:
            opcode = _BINOP_BY_TEXT.get(expr.op)
            if opcode is None:
                if expr.op in ("&&", "||"):
                    return self._lower_short_circuit(expr)
                raise SemanticError("unknown binary operator %r" % expr.op)
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            return builder.binop(opcode, left, right)
        if kind is ast.CallExpr:
            lower = self.lower_expr
            args = [lower(arg) for arg in expr.args]
            result = builder.call(self.callee_symbol(expr.callee), args)
            assert result is not None
            return result
        if kind is ast.IndexExpr:
            index = self.lower_expr(expr.index)
            return builder.load_elem(self.global_symbol(expr.name), index)
        if kind is ast.UnaryExpr:
            operand = self.lower_expr(expr.operand)
            if expr.op == "-":
                return builder.unop(Opcode.NEG, operand)
            if expr.op == "~":
                return builder.unop(Opcode.NOT, operand)
            if expr.op == "!":
                zero = builder.const(0)
                return builder.binop(Opcode.EQ, operand, zero)
            raise SemanticError("unknown unary operator %r" % expr.op)
        raise SemanticError("unknown expression node %r" % type(expr).__name__)

    def _lower_short_circuit(self, expr: ast.BinaryExpr) -> int:
        """Lower ``a && b`` / ``a || b`` to control flow yielding 0/1."""
        builder = self.builder
        result = self.routine.new_reg()
        rhs_block = builder.new_block("sc_rhs")
        short_block = builder.new_block("sc_short")
        join_block = builder.new_block("sc_join")

        left = self.lower_expr(expr.left)
        if expr.op == "&&":
            builder.br(left, rhs_block, short_block)
            short_value = 0
        else:  # "||"
            builder.br(left, short_block, rhs_block)
            short_value = 1

        builder.position_at(short_block)
        builder.emit_const_into(result, short_value)
        builder.jmp(join_block)

        builder.position_at(rhs_block)
        right = self.lower_expr(expr.right)
        zero = builder.const(0)
        normalized = builder.binop(Opcode.NE, right, zero)
        builder.mov(normalized, dst=result)
        builder.jmp(join_block)

        builder.position_at(join_block)
        return result

    # -- Statements -----------------------------------------------------------------

    def lower_stmts(self, stmts: List[ast.Stmt]) -> None:
        is_terminated = self.builder.is_terminated
        for stmt in stmts:
            if is_terminated():
                return  # unreachable code after return
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        builder = self.builder
        kind = type(stmt)
        if kind is ast.VarDecl:
            value = self.lower_expr(stmt.init)
            reg = self.routine.new_reg()
            builder.mov(value, dst=reg)
            self.local_regs[stmt.name] = reg
        elif kind is ast.Assign:
            value = self.lower_expr(stmt.value)
            reg = self.local_regs.get(stmt.name)
            if reg is not None:
                builder.mov(value, dst=reg)
            else:
                builder.store_global(self.global_symbol(stmt.name), value)
        elif kind is ast.StoreElem:
            index = self.lower_expr(stmt.index)
            value = self.lower_expr(stmt.value)
            builder.store_elem(self.global_symbol(stmt.name), index, value)
        elif kind is ast.ExprStmt:
            self.lower_expr(stmt.expr)
        elif kind is ast.IfStmt:
            self._lower_if(stmt)
        elif kind is ast.WhileStmt:
            self._lower_while(stmt)
        elif kind is ast.ForStmt:
            self._lower_for(stmt)
        elif kind is ast.ReturnStmt:
            value = self.lower_expr(stmt.value) if stmt.value is not None else None
            builder.ret(value)
        else:
            raise SemanticError("unknown statement node %r" % type(stmt).__name__)

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        builder = self.builder
        then_block = builder.new_block("then")
        join_block = builder.new_block("join")
        else_block = builder.new_block("else") if stmt.else_body else join_block

        cond = self.lower_expr(stmt.cond)
        builder.br(cond, then_block, else_block)

        builder.position_at(then_block)
        self.lower_stmts(stmt.then_body)
        if not builder.is_terminated():
            builder.jmp(join_block)

        if stmt.else_body:
            builder.position_at(else_block)
            self.lower_stmts(stmt.else_body)
            if not builder.is_terminated():
                builder.jmp(join_block)

        builder.position_at(join_block)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        builder = self.builder
        head = builder.new_block("loop_head")
        body = builder.new_block("loop_body")
        exit_block = builder.new_block("loop_exit")

        builder.jmp(head)
        builder.position_at(head)
        cond = self.lower_expr(stmt.cond)
        builder.br(cond, body, exit_block)

        builder.position_at(body)
        self.lower_stmts(stmt.body)
        if not builder.is_terminated():
            builder.jmp(head)

        builder.position_at(exit_block)

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        builder = self.builder
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        head = builder.new_block("for_head")
        body = builder.new_block("for_body")
        exit_block = builder.new_block("for_exit")

        builder.jmp(head)
        builder.position_at(head)
        cond = self.lower_expr(stmt.cond)
        builder.br(cond, body, exit_block)

        builder.position_at(body)
        self.lower_stmts(stmt.body)
        if not builder.is_terminated():
            if stmt.step is not None:
                self.lower_stmt(stmt.step)
            builder.jmp(head)

        builder.position_at(exit_block)

    def finish(self) -> Routine:
        if not self.builder.is_terminated():
            zero = self.builder.const(0)
            self.builder.ret(zero)
        for block in self.routine.blocks:
            if not block.is_terminated():
                # Unreachable join blocks created by if/loop lowering when
                # every path returned; give them a trivial return.
                zero_reg = self.routine.new_reg()
                block.append(Instr(Opcode.CONST, dst=zero_reg, imm=0))
                block.set_terminator(Instr(Opcode.RET, a=zero_reg))
        self.routine.invalidate()
        return self.routine


def lower_module(module_ast: ast.ModuleAST) -> Module:
    """Lower a checked AST into an IL module."""
    info = check_module(module_ast)
    module = Module(module_ast.name, source_lines=module_ast.total_lines)
    for decl in module_ast.globals:
        name = decl.name if decl.exported else "%s::%s" % (module_ast.name, decl.name)
        module.define_global(
            name, size=decl.size, init=decl.init, exported=decl.exported
        )
    for func in module_ast.funcs:
        lowering = _FuncLowering(func, info, module_ast.name)
        lowering.lower_stmts(func.body)
        module.add_routine(lowering.finish())
    for extern in module.external_callees():
        module.symtab.record_extern(extern)
    return module
