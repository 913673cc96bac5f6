"""Semantic checks for MLL modules.

Checks performed before lowering:

* duplicate top-level names (globals, functions);
* duplicate parameters and local redeclaration;
* use of undeclared locals is allowed only as a *global* reference --
  any name that is neither a parameter nor a ``var`` is treated as a
  global, and if this module does not declare it, it becomes an extern
  reference resolved at link time (C-style);
* arity checks for calls whose target is defined in the same module
  (cross-module arity mismatches are the linker's interface checker's
  job, mirroring the paper's §6.3 discussion).
"""

from __future__ import annotations

from typing import Dict, List, Set

from . import ast
from .errors import SemanticError


class ModuleInfo:
    """Name environment gathered from a module's top level."""

    def __init__(self, module: ast.ModuleAST) -> None:
        self.module = module
        self.global_decls: Dict[str, ast.GlobalDecl] = {}
        self.func_decls: Dict[str, ast.FuncDecl] = {}
        for decl in module.globals:
            if decl.name in self.global_decls:
                raise SemanticError(
                    "%s: duplicate global %r (line %d)"
                    % (module.name, decl.name, decl.line)
                )
            self.global_decls[decl.name] = decl
        for func in module.funcs:
            if func.name in self.func_decls:
                raise SemanticError(
                    "%s: duplicate function %r (line %d)"
                    % (module.name, func.name, func.line)
                )
            if func.name in self.global_decls:
                raise SemanticError(
                    "%s: %r is both a global and a function" % (module.name, func.name)
                )
            self.func_decls[func.name] = func


def _check_expr(expr: ast.Expr, locals_: Set[str], info: ModuleInfo) -> None:
    kind = type(expr)
    if kind is ast.NameExpr:
        if expr.name in locals_:
            return
        decl = info.global_decls.get(expr.name)
        if decl is not None and decl.size > 1:
            raise SemanticError(
                "%s:%d: array %r used as a scalar"
                % (info.module.name, expr.line, expr.name)
            )
        return  # extern global reference, resolved at link time
    if kind is ast.NumberExpr:
        return
    if kind is ast.BinaryExpr:
        _check_expr(expr.left, locals_, info)
        _check_expr(expr.right, locals_, info)
        return
    if kind is ast.CallExpr:
        if expr.callee in locals_:
            raise SemanticError(
                "%s:%d: local %r called like a function"
                % (info.module.name, expr.line, expr.callee)
            )
        func = info.func_decls.get(expr.callee)
        if func is not None and len(func.params) != len(expr.args):
            raise SemanticError(
                "%s:%d: call to %s with %d args, expects %d"
                % (
                    info.module.name,
                    expr.line,
                    expr.callee,
                    len(expr.args),
                    len(func.params),
                )
            )
        for arg in expr.args:
            _check_expr(arg, locals_, info)
        return
    if kind is ast.IndexExpr:
        if expr.name in locals_:
            raise SemanticError(
                "%s:%d: local %r indexed like an array"
                % (info.module.name, expr.line, expr.name)
            )
        decl = info.global_decls.get(expr.name)
        if decl is not None and decl.size == 1:
            raise SemanticError(
                "%s:%d: scalar %r indexed like an array"
                % (info.module.name, expr.line, expr.name)
            )
        _check_expr(expr.index, locals_, info)
        return
    if kind is ast.UnaryExpr:
        _check_expr(expr.operand, locals_, info)
        return
    raise SemanticError("unknown expression node %r" % type(expr).__name__)


def _check_stmts(
    stmts: List[ast.Stmt], locals_: Set[str], info: ModuleInfo
) -> None:
    for stmt in stmts:
        kind = type(stmt)
        if kind is ast.VarDecl:
            if stmt.name in locals_:
                raise SemanticError(
                    "%s:%d: redeclaration of local %r"
                    % (info.module.name, stmt.line, stmt.name)
                )
            _check_expr(stmt.init, locals_, info)
            locals_.add(stmt.name)
        elif kind is ast.Assign:
            _check_expr(stmt.value, locals_, info)
            if stmt.name not in locals_:
                decl = info.global_decls.get(stmt.name)
                if decl is not None and decl.size > 1:
                    raise SemanticError(
                        "%s:%d: array %r assigned like a scalar"
                        % (info.module.name, stmt.line, stmt.name)
                    )
        elif kind is ast.StoreElem:
            decl = info.global_decls.get(stmt.name)
            if decl is not None and decl.size == 1:
                raise SemanticError(
                    "%s:%d: scalar %r indexed like an array"
                    % (info.module.name, stmt.line, stmt.name)
                )
            if stmt.name in locals_:
                raise SemanticError(
                    "%s:%d: local %r indexed like an array"
                    % (info.module.name, stmt.line, stmt.name)
                )
            _check_expr(stmt.index, locals_, info)
            _check_expr(stmt.value, locals_, info)
        elif kind is ast.ExprStmt:
            _check_expr(stmt.expr, locals_, info)
        elif kind is ast.IfStmt:
            _check_expr(stmt.cond, locals_, info)
            _check_stmts(stmt.then_body, locals_, info)
            if stmt.else_body is not None:
                _check_stmts(stmt.else_body, locals_, info)
        elif kind is ast.WhileStmt:
            _check_expr(stmt.cond, locals_, info)
            _check_stmts(stmt.body, locals_, info)
        elif kind is ast.ForStmt:
            if stmt.init is not None:
                _check_stmts([stmt.init], locals_, info)
            _check_expr(stmt.cond, locals_, info)
            if stmt.step is not None:
                _check_stmts([stmt.step], locals_, info)
            _check_stmts(stmt.body, locals_, info)
        elif kind is ast.ReturnStmt:
            if stmt.value is not None:
                _check_expr(stmt.value, locals_, info)
        else:
            raise SemanticError("unknown statement node %r" % type(stmt).__name__)


def check_module(module: ast.ModuleAST) -> ModuleInfo:
    """Run all semantic checks; return the name environment."""
    info = ModuleInfo(module)
    for func in module.funcs:
        params = set(func.params)
        if len(params) != len(func.params):
            raise SemanticError(
                "%s: duplicate parameter in %s (line %d)"
                % (module.name, func.name, func.line)
            )
        _check_stmts(func.body, set(params), info)
    return info
