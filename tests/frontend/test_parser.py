"""Unit tests for the MLL parser (AST shape and errors)."""

import pytest

from repro.frontend import ast
from repro.frontend.errors import FrontendError
from repro.frontend.parser import parse_source


def parse_func(body, params="a, b"):
    module = parse_source("func f(%s) { %s }" % (params, body), "t")
    return module.funcs[0]


class TestTopLevel:
    def test_globals(self):
        module = parse_source(
            "global x = 5;\n"
            "static global y;\n"
            "global arr[3] = {1, 2};\n"
            "static global neg = -7;\n",
            "t",
        )
        by_name = {g.name: g for g in module.globals}
        assert by_name["x"].init == [5] and by_name["x"].exported
        assert by_name["y"].init == [0] and not by_name["y"].exported
        assert by_name["arr"].init == [1, 2, 0]
        assert by_name["neg"].init == [-7]

    def test_too_many_initializers(self):
        with pytest.raises(FrontendError):
            parse_source("global a[2] = {1, 2, 3};", "t")

    def test_static_func(self):
        module = parse_source("static func f() { return 1; }", "t")
        assert not module.funcs[0].exported

    def test_func_line_span(self):
        module = parse_source(
            "func f() {\n    return 1;\n}\n", "t"
        )
        assert module.funcs[0].source_lines == 3

    def test_total_lines(self):
        module = parse_source("func f() { return 1; }\n// c\n", "t")
        assert module.total_lines >= 2

    def test_junk_at_top_level(self):
        with pytest.raises(FrontendError):
            parse_source("return 1;", "t")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        func = parse_func("return a + b * 2;")
        ret = func.body[0]
        assert isinstance(ret.value, ast.BinaryExpr) and ret.value.op == "+"
        assert isinstance(ret.value.right, ast.BinaryExpr)
        assert ret.value.right.op == "*"

    def test_precedence_compare_over_and(self):
        func = parse_func("return a < b && b < 10;")
        expr = func.body[0].value
        assert expr.op == "&&"
        assert expr.left.op == "<"

    def test_parentheses(self):
        func = parse_func("return (a + b) * 2;")
        assert func.body[0].value.op == "*"
        assert func.body[0].value.left.op == "+"

    def test_unary_chain(self):
        func = parse_func("return - - a;")
        expr = func.body[0].value
        assert isinstance(expr, ast.UnaryExpr)
        assert isinstance(expr.operand, ast.UnaryExpr)

    def test_call_and_index(self):
        func = parse_func("return g(a, tab[b]);")
        call = func.body[0].value
        assert isinstance(call, ast.CallExpr) and call.callee == "g"
        assert isinstance(call.args[1], ast.IndexExpr)

    def test_left_associativity(self):
        func = parse_func("return a - b - 2;")
        expr = func.body[0].value
        assert expr.op == "-" and expr.left.op == "-"

    def test_every_precedence_level_nests_in_order(self):
        func = parse_func(
            "return a || b && c | d ^ e & f == g < h << i + j * k;"
        )
        expr = func.body[0].value
        for op in ("||", "&&", "|", "^", "&", "==", "<", "<<", "+", "*"):
            assert isinstance(expr, ast.BinaryExpr) and expr.op == op
            assert isinstance(expr.left, ast.NameExpr)
            expr = expr.right
        assert isinstance(expr, ast.NameExpr) and expr.name == "k"

    def test_tighter_operator_on_the_left_closes_first(self):
        func = parse_func("return a * b + c == d;")
        expr = func.body[0].value
        assert expr.op == "=="
        assert expr.left.op == "+" and expr.left.left.op == "*"

    def test_same_level_operators_associate_left(self):
        func = parse_func("return a * b / c % d;")
        expr = func.body[0].value
        assert (expr.op, expr.left.op, expr.left.left.op) == ("%", "/", "*")
        func = parse_func("return a - -b - c;")
        expr = func.body[0].value
        assert expr.op == "-" and expr.left.op == "-"
        assert isinstance(expr.left.right, ast.UnaryExpr)


class TestStatements:
    def test_var_decl(self):
        func = parse_func("var x = 1; return x;")
        assert isinstance(func.body[0], ast.VarDecl)

    def test_if_else_if_chain(self):
        func = parse_func(
            "if (a) { return 1; } else if (b) { return 2; } else { return 3; }"
        )
        outer = func.body[0]
        assert isinstance(outer, ast.IfStmt)
        inner = outer.else_body[0]
        assert isinstance(inner, ast.IfStmt)
        assert inner.else_body is not None

    def test_while(self):
        func = parse_func("while (a > 0) { a = a - 1; } return a;")
        assert isinstance(func.body[0], ast.WhileStmt)

    def test_for_full(self):
        func = parse_func("for (var i = 0; i < a; i = i + 1) { b = b + i; } return b;")
        stmt = func.body[0]
        assert isinstance(stmt, ast.ForStmt)
        assert isinstance(stmt.init, ast.VarDecl)
        assert isinstance(stmt.step, ast.Assign)

    def test_for_empty_init(self):
        func = parse_func("for (; a < 3; a = a + 1) { } return a;")
        assert func.body[0].init is None

    def test_array_store(self):
        func = parse_func("tab[a] = b; return 0;")
        assert isinstance(func.body[0], ast.StoreElem)

    def test_array_read_statement(self):
        func = parse_func("g(tab[a]); return 0;")
        assert isinstance(func.body[0], ast.ExprStmt)

    def test_return_void(self):
        func = parse_func("return;")
        assert func.body[0].value is None

    def test_missing_semicolon(self):
        with pytest.raises(FrontendError):
            parse_func("var x = 1 return x;")

    def test_unclosed_block(self):
        with pytest.raises(FrontendError):
            parse_source("func f() { return 1;", "t")
