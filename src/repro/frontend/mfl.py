"""MFL: a second frontend (FORTRAN-flavoured) onto the common IL.

The paper's applications are mixed-language ("Mcad2 is a mixture of C,
C++, and FORTRAN"), and the framework handles that because every
frontend lowers to the same IL: "because HLO works at the IL level, it
can freely optimize mixed-language applications.  In fact, HLO does not
need to know the source language of a module."  MFL exists to make that
claim testable: MFL and MLL modules link together, and cross-module
inlining happily splices FORTRAN-ish callees into C-ish callers.

The language (line-oriented, case-insensitive):

.. code-block:: none

    ! a comment
    INTEGER COUNT = 0              ! exported global scalar
    PRIVATE INTEGER SEED = 7       ! module-static global
    INTEGER TABLE(8) = 1,2,3,4,5,6,7,8   ! global array (1-based!)

    FUNCTION ADDUP(A, B)
      INTEGER T
      T = A + B
      IF (T .GT. 100) THEN
        RETURN 100
      ELSE
        RETURN T
      END IF
    END

    PRIVATE FUNCTION HELPER(X)     ! module-static function
      RETURN X * 2
    END

    FUNCTION LOOPY(N)
      INTEGER S
      S = 0
      DO I = 1, N                  ! inclusive bounds, optional step
        S = S + ADDUP(I, TABLE(1 + S - S))
      END DO
      RETURN S
    END

Operators: ``+ - * /`` and ``.GT. .GE. .LT. .LE. .EQ. .NE. .AND. .OR.
.NOT.`` plus the intrinsics ``MOD(a, b)`` and ``IAND(a, b)``.  Array indexing is
**1-based** and lowered to the IL's 0-based LOADE/STOREE.  Identifiers
are case-insensitive and lowered to lowercase IL names, so an MFL
``FUNCTION SCALE`` links against MLL calls to ``scale``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..ir.builder import IRBuilder
from ..ir.instructions import Opcode
from ..ir.module import Module
from ..ir.routine import Routine
from .errors import FrontendError

#: Binary operator -> (binding power, opcode), loosest first:
#: ``.OR.`` | ``.AND.`` | comparisons | ``+ -`` | ``* /``.
_BINARY = {
    ".OR.": (1, Opcode.OR),
    ".AND.": (2, Opcode.AND),
    ".GT.": (3, Opcode.GT),
    ".GE.": (3, Opcode.GE),
    ".LT.": (3, Opcode.LT),
    ".LE.": (3, Opcode.LE),
    ".EQ.": (3, Opcode.EQ),
    ".NE.": (3, Opcode.NE),
    "+": (4, Opcode.ADD),
    "-": (4, Opcode.SUB),
    "*": (5, Opcode.MUL),
    "/": (5, Opcode.DIV),
}
#: The comparisons' power: they do not chain (``a .LT. b .LT. c`` is
#: an error), and take no operand that holds a looser operator.
_COMPARE = 3
#: Past every binary operator: what an operand that holds none has.
_TIGHTEST = 6

_EXPR_TOKEN = (
    r"\.(?:GT|GE|LT|LE|EQ|NE|AND|OR|NOT)\."
    r"|\d+"
    r"|[A-Za-z_][A-Za-z0-9_]*"
    r"|[-+*/(),=]"
)
_TOKEN_RE = re.compile(_EXPR_TOKEN, re.IGNORECASE)
#: The longest prefix of an expression made of blank-separated tokens.
_TOKENS_PREFIX_RE = re.compile(r"(?:\s*(?:%s))*" % _EXPR_TOKEN, re.IGNORECASE)


class _Line:
    __slots__ = ("number", "text")

    def __init__(self, number: int, text: str) -> None:
        self.number = number
        self.text = text


def _strip_lines(source: str) -> List[_Line]:
    lines: List[_Line] = []
    for number, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("!", 1)[0].strip()
        if text:
            lines.append(_Line(number, text))
    return lines


def _tokenize_expr(text: str, line_no: int) -> List[str]:
    """The expression's token texts, ending with the EOF text ``""``:
    an operator ``.XX.`` in upper case, a name in lower case."""
    end = _TOKENS_PREFIX_RE.match(text).end()
    if end != len(text):
        remainder = text[end:].strip()
        if remainder:
            raise FrontendError(
                "mfl line %d: cannot tokenize %r" % (line_no, remainder)
            )
    tokens = [
        token.upper() if token[0] == "." else token.lower()
        for token in _TOKEN_RE.findall(text)
    ]
    tokens.append("")
    return tokens


#: First characters of the tokens that are not names (EOF has none).
_NOT_NAME_START = frozenset("-+*/(),=.0123456789")


class _ExprParser:
    """Precedence-climbing parser producing IL through a builder.

    Operators bind by :data:`_BINARY`, left-associative; unary ``-``
    and ``.NOT.`` bind tighter than any binary operator.  IL is emitted
    as operands complete, left operand first.
    """

    def __init__(self, lowering: "_MflFunctionLowering",
                 tokens: List[str], line_no: int) -> None:
        self.lowering = lowering
        self.builder = lowering.builder
        self.tokens = tokens
        self.position = 0
        self.line_no = line_no

    def expect_op(self, op: str) -> None:
        text = self.tokens[self.position]
        if text:
            self.position += 1
        if text != op:
            raise FrontendError(
                "mfl line %d: expected %r, found %r"
                % (self.line_no, op, text)
            )

    def parse(self) -> int:
        value = self.expr(0)
        if self.tokens[self.position]:
            raise FrontendError(
                "mfl line %d: trailing tokens after expression"
                % self.line_no
            )
        return value

    def expr(self, min_power: int) -> int:
        """A unary chain and a primary, then the binary operators at
        least as tight as ``min_power`` after it."""
        tokens = self.tokens
        builder = self.builder
        pos = self.position
        text = tokens[pos]
        prefixes = None
        while text == "-" or text == ".NOT.":
            if prefixes is None:
                prefixes = []
            prefixes.append(text)
            pos += 1
            text = tokens[pos]

        if text:
            pos += 1
        first = text[:1]
        if first.isdigit():
            left = builder.const(int(text))
        elif text == "(":
            self.position = pos
            left = self.expr(0)
            self.expect_op(")")
            pos = self.position
        elif text and first not in _NOT_NAME_START:
            if tokens[pos] == "(":
                pos += 1
                arguments: List[int] = []
                if tokens[pos] != ")":
                    while True:
                        self.position = pos
                        arguments.append(self.expr(0))
                        pos = self.position
                        if tokens[pos] != ",":
                            break
                        pos += 1
                self.position = pos
                self.expect_op(")")
                pos = self.position
                left = self.lowering.name_with_args(
                    text, arguments, self.line_no
                )
            else:
                left = self.lowering.name_value(text, self.line_no)
        else:
            raise FrontendError(
                "mfl line %d: unexpected token %r" % (self.line_no, text)
            )

        if prefixes is not None:
            for op in reversed(prefixes):
                if op == "-":
                    left = builder.unop(Opcode.NEG, left)
                else:
                    zero = builder.const(0)
                    left = builder.binop(Opcode.EQ, left, zero)

        loosest = _TIGHTEST
        while True:
            entry = _BINARY.get(tokens[pos])
            if entry is None:
                break
            power, opcode = entry
            if power < min_power or (power == _COMPARE and loosest <= _COMPARE):
                break
            self.position = pos + 1
            right = self.expr(power + 1)
            pos = self.position
            if power < _COMPARE:
                # MFL logicals are 0/1 ints with no short circuit,
                # matching FORTRAN-77's unspecified evaluation order.
                zero = builder.const(0)
                left = builder.binop(Opcode.NE, left, zero)
                right = builder.binop(Opcode.NE, right, zero)
            left = builder.binop(opcode, left, right)
            if power < loosest:
                loosest = power
        self.position = pos
        return left


class _MflFunctionLowering:
    """Lowers one FUNCTION body, line by line."""

    def __init__(self, parser: "_MflParser", name: str, params: List[str],
                 exported: bool, start_line: int) -> None:
        self.parser = parser
        visible_name = name if exported else "%s::%s" % (parser.module_name,
                                                         name)
        self.routine = Routine(
            visible_name,
            module_name=parser.module_name,
            n_params=len(params),
            exported=exported,
            source_lines=1,
            source_language="mfl",
        )
        self.routine.annotations["start_line"] = start_line
        self.builder = IRBuilder(self.routine)
        self.locals: Dict[str, int] = {
            param: index for index, param in enumerate(params)
        }

    # -- Name resolution ----------------------------------------------------

    def local_reg(self, name: str, create: bool = False,
                  line_no: int = 0) -> Optional[int]:
        reg = self.locals.get(name)
        if reg is None and create:
            reg = self.routine.new_reg()
            self.locals[name] = reg
        return reg

    def global_symbol(self, name: str) -> str:
        if name in self.parser.static_globals:
            return "%s::%s" % (self.parser.module_name, name)
        return name

    def name_value(self, name: str, line_no: int) -> int:
        reg = self.locals.get(name)
        if reg is not None:
            return reg
        if name in self.parser.array_globals:
            raise FrontendError(
                "mfl line %d: array %s used without an index"
                % (line_no, name)
            )
        return self.builder.load_global(self.global_symbol(name))

    def name_with_args(self, name: str, arguments: List[int],
                       line_no: int) -> int:
        # Intrinsics: MOD and IAND (FORTRAN-77's bitwise AND).
        if name in ("mod", "iand"):
            if len(arguments) != 2:
                raise FrontendError(
                    "mfl line %d: %s takes two arguments"
                    % (line_no, name.upper())
                )
            opcode = Opcode.MOD if name == "mod" else Opcode.AND
            return self.builder.binop(opcode, arguments[0], arguments[1])
        # Array reference (1-based) when the name is a known array.
        if name in self.parser.array_globals:
            if len(arguments) != 1:
                raise FrontendError(
                    "mfl line %d: array %s takes one index"
                    % (line_no, name)
                )
            one = self.builder.const(1)
            index = self.builder.binop(Opcode.SUB, arguments[0], one)
            return self.builder.load_elem(self.global_symbol(name), index)
        # Otherwise a call; static functions are module-qualified.
        callee = name
        if name in self.parser.static_functions:
            callee = "%s::%s" % (self.parser.module_name, name)
        result = self.builder.call(callee, arguments)
        assert result is not None
        return result

    def store_name(self, name: str, value: int, line_no: int) -> None:
        if name in self.parser.array_globals:
            raise FrontendError(
                "mfl line %d: array %s assigned without an index"
                % (line_no, name)
            )
        if name in self.parser.scalar_globals:
            self.builder.store_global(self.global_symbol(name), value)
            return
        reg = self.local_reg(name, create=True, line_no=line_no)
        self.builder.mov(value, dst=reg)

    # -- Expression helper ---------------------------------------------------

    def eval_expr(self, text: str, line_no: int) -> int:
        tokens = _tokenize_expr(text, line_no)
        return _ExprParser(self, tokens, line_no).parse()


_ASSIGN_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\(\s*(?P<index>.*?)\s*\))?"
    r"\s*=\s*(?P<expr>.+)$"
)
_DO_RE = re.compile(
    r"^DO\s+(?P<var>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?P<lo>[^,]+),"
    r"(?P<hi>[^,]+)(?:,(?P<step>.+))?$",
    re.IGNORECASE,
)
_IF_RE = re.compile(r"^IF\s*\((?P<cond>.*)\)\s*THEN$", re.IGNORECASE)
_FUNC_RE = re.compile(
    r"^(?P<private>PRIVATE\s+)?FUNCTION\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"\s*\((?P<params>[^)]*)\)$",
    re.IGNORECASE,
)
_GLOBAL_RE = re.compile(
    r"^(?P<private>PRIVATE\s+)?INTEGER\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\s*\(\s*(?P<size>\d+)\s*\))?(?:\s*=\s*(?P<init>.+))?$",
    re.IGNORECASE,
)


class _MflParser:
    """Parses one MFL source file into an IL module."""

    def __init__(self, source: str, module_name: str) -> None:
        self.module_name = module_name
        self.lines = _strip_lines(source)
        self.position = 0
        self.module = Module(
            module_name, source_lines=source.count("\n") + 1
        )
        self.scalar_globals: Dict[str, bool] = {}
        self.array_globals: Dict[str, int] = {}
        self.static_globals: Dict[str, bool] = {}
        self.static_functions: Dict[str, bool] = {}

    # -- Line helpers ---------------------------------------------------------

    def at_end(self) -> bool:
        return self.position >= len(self.lines)

    def peek(self) -> _Line:
        return self.lines[self.position]

    def advance(self) -> _Line:
        line = self.lines[self.position]
        self.position += 1
        return line

    def error(self, line: _Line, message: str) -> FrontendError:
        return FrontendError(
            "mfl %s:%d: %s" % (self.module_name, line.number, message)
        )

    # -- Module level -----------------------------------------------------------

    def parse_module(self) -> Module:
        # First pass: collect declarations so bodies can resolve names
        # regardless of order (FORTRAN programmers expect this).
        self._scan_declarations()
        while not self.at_end():
            line = self.advance()
            func_match = _FUNC_RE.match(line.text)
            if func_match:
                self._parse_function(func_match, line)
                continue
            if _GLOBAL_RE.match(line.text):
                self._define_global(line)
                continue
            raise self.error(line, "expected FUNCTION or INTEGER")
        return self.module

    def _scan_declarations(self) -> None:
        depth = 0
        for line in self.lines:
            upper = line.text.upper()
            func_match = _FUNC_RE.match(line.text)
            if func_match:
                if depth == 0 and func_match.group("private"):
                    self.static_functions[
                        func_match.group("name").lower()
                    ] = True
                depth += 1
                continue
            if upper == "END":
                depth = max(depth - 1, 0)
                continue
            if depth == 0:
                global_match = _GLOBAL_RE.match(line.text)
                if global_match:
                    name = global_match.group("name").lower()
                    private = bool(global_match.group("private"))
                    if global_match.group("size"):
                        self.array_globals[name] = int(
                            global_match.group("size")
                        )
                    else:
                        self.scalar_globals[name] = True
                    if private:
                        self.static_globals[name] = True

    def _define_global(self, line: _Line) -> None:
        match = _GLOBAL_RE.match(line.text)
        assert match is not None
        name = match.group("name").lower()
        private = bool(match.group("private"))
        visible = name if not private else "%s::%s" % (self.module_name,
                                                       name)
        init_text = match.group("init")
        if match.group("size"):
            size = int(match.group("size"))
            init = [0] * size
            if init_text:
                values = [v.strip() for v in init_text.split(",")]
                if len(values) > size:
                    raise self.error(line, "too many initializers")
                for index, value in enumerate(values):
                    init[index] = int(value)
            self.module.define_global(visible, size=size, init=init,
                                      exported=not private)
        else:
            value = int(init_text) if init_text else 0
            self.module.define_global(visible, init=[value],
                                      exported=not private)

    # -- Functions -----------------------------------------------------------------

    def _parse_function(self, match, header: _Line) -> None:
        name = match.group("name").lower()
        exported = not match.group("private")
        params_text = match.group("params").strip()
        params = (
            [p.strip().lower() for p in params_text.split(",")]
            if params_text
            else []
        )
        lowering = _MflFunctionLowering(self, name, params, exported,
                                        header.number)
        self._parse_body(lowering, terminators=("END",))
        end_line = self.lines[self.position - 1].number
        lowering.routine.source_lines = max(
            1, end_line - header.number + 1
        )
        del lowering.routine.annotations["start_line"]
        if not lowering.builder.is_terminated():
            lowering.builder.ret(lowering.builder.const(0))
        for block in lowering.routine.blocks:
            if not block.is_terminated():
                from ..ir.instructions import Instr

                reg = lowering.routine.new_reg()
                block.append(Instr(Opcode.CONST, dst=reg, imm=0))
                block.set_terminator(Instr(Opcode.RET, a=reg))
        lowering.routine.invalidate()
        self.module.add_routine(lowering.routine)

    def _parse_body(self, lowering: _MflFunctionLowering,
                    terminators: Tuple[str, ...]) -> str:
        """Parse statements until one of ``terminators``; returns it."""
        builder = lowering.builder
        while True:
            if self.at_end():
                raise FrontendError(
                    "mfl %s: unexpected end of file (missing %s)"
                    % (self.module_name, "/".join(terminators))
                )
            line = self.advance()
            upper = line.text.upper()
            if upper in terminators:
                return upper
            if upper.startswith("RETURN"):
                rest = line.text[len("RETURN"):].strip()
                if builder.is_terminated():
                    continue
                if rest:
                    builder.ret(lowering.eval_expr(rest, line.number))
                else:
                    builder.ret(builder.const(0))
                continue
            if builder.is_terminated():
                # Unreachable statement after RETURN: skip to keep
                # structure (matching the MLL frontend's behaviour).
                self._skip_statement(line)
                continue
            if upper.startswith("CALL "):
                expr = line.text[5:].strip()
                lowering.eval_expr(expr, line.number)
                continue
            if upper.startswith("INTEGER "):
                name = line.text.split(None, 1)[1].strip().lower()
                if not re.match(r"^[a-z_][a-z0-9_]*$", name):
                    raise self.error(line, "bad local declaration")
                lowering.local_reg(name, create=True, line_no=line.number)
                continue
            if_match = _IF_RE.match(line.text)
            if if_match:
                self._parse_if(lowering, if_match.group("cond"), line)
                continue
            do_match = _DO_RE.match(line.text)
            if do_match:
                self._parse_do(lowering, do_match, line)
                continue
            assign_match = _ASSIGN_RE.match(line.text)
            if assign_match:
                self._parse_assign(lowering, assign_match, line)
                continue
            raise self.error(line, "cannot parse statement")

    def _skip_statement(self, line: _Line) -> None:
        """Skip an unreachable statement (and any nested block)."""
        upper = line.text.upper()
        if _IF_RE.match(line.text) or _DO_RE.match(line.text):
            depth = 1
            while depth and not self.at_end():
                text = self.advance().text.upper()
                if _IF_RE.match(text) or _DO_RE.match(text):
                    depth += 1
                elif text in ("END IF", "ENDIF", "END DO", "ENDDO"):
                    depth -= 1

    def _parse_assign(self, lowering: _MflFunctionLowering, match,
                      line: _Line) -> None:
        name = match.group("name").lower()
        index_text = match.group("index")
        value = lowering.eval_expr(match.group("expr"), line.number)
        if index_text is not None and name in self.array_globals:
            index_value = lowering.eval_expr(index_text, line.number)
            one = lowering.builder.const(1)
            index = lowering.builder.binop(Opcode.SUB, index_value, one)
            lowering.builder.store_elem(
                lowering.global_symbol(name), index, value
            )
            return
        if index_text is not None:
            raise self.error(line, "%s is not an array" % name)
        lowering.store_name(name, value, line.number)

    def _parse_if(self, lowering: _MflFunctionLowering, cond_text: str,
                  line: _Line) -> None:
        builder = lowering.builder
        condition = lowering.eval_expr(cond_text, line.number)
        then_block = builder.new_block("then")
        join_block = builder.new_block("join")

        entry_block = builder.block  # holds the BR we may retarget
        builder.br(condition, then_block, join_block)
        builder.position_at(then_block)
        terminator = self._parse_body(
            lowering, terminators=("ELSE", "END IF", "ENDIF")
        )
        if terminator == "ELSE":
            else_block = builder.new_block("else")
            entry_block.retarget(join_block.label, else_block.label)
            if not builder.is_terminated():
                builder.jmp(join_block)
            builder.position_at(else_block)
            self._parse_body(lowering, terminators=("END IF", "ENDIF"))
        if not builder.is_terminated():
            builder.jmp(join_block)
        builder.position_at(join_block)

    def _parse_do(self, lowering: _MflFunctionLowering, match,
                  line: _Line) -> None:
        builder = lowering.builder
        var = match.group("var").lower()
        low = lowering.eval_expr(match.group("lo").strip(), line.number)
        high = lowering.eval_expr(match.group("hi").strip(), line.number)
        step_text = match.group("step")
        step = (
            lowering.eval_expr(step_text.strip(), line.number)
            if step_text
            else builder.const(1)
        )
        counter = lowering.local_reg(var, create=True, line_no=line.number)
        builder.mov(low, dst=counter)

        head = builder.new_block("do_head")
        body = builder.new_block("do_body")
        exit_block = builder.new_block("do_exit")
        builder.jmp(head)
        builder.position_at(head)
        # Inclusive upper bound (FORTRAN semantics); positive step only.
        in_range = builder.binop(Opcode.LE, counter, high)
        builder.br(in_range, body, exit_block)

        builder.position_at(body)
        self._parse_body(lowering, terminators=("END DO", "ENDDO"))
        if not builder.is_terminated():
            bumped = builder.binop(Opcode.ADD, counter, step)
            builder.mov(bumped, dst=counter)
            builder.jmp(head)
        builder.position_at(exit_block)


def compile_mfl_source(source: str, module_name: str) -> Module:
    """Compile one MFL source file into an IL module."""
    module = _MflParser(source, module_name).parse_module()
    for extern in module.external_callees():
        module.symtab.record_extern(extern)
    return module
