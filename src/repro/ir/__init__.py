"""The common intermediate language (IL).

Every frontend lowers to this IL; HLO transforms it; LLO lowers it to
machine code.  See DESIGN.md section 3.
"""

from .basic_block import BasicBlock
from .builder import IRBuilder
from .callgraph import CallGraph, CallGraphNode, CallSite
from .derived import DerivedCache
from .errors import IRError, ParseError, SymbolError, VerifierError
from .instructions import (
    BINARY_OPS,
    COMMUTATIVE_OPS,
    TERMINATORS,
    UNARY_OPS,
    Instr,
    Opcode,
    fold_binary,
    fold_unary,
    sdiv64,
    smod64,
    wrap64,
)
from .module import Module
from .parser import parse_instr, parse_module, parse_routine
from .printer import format_instr, format_module, format_routine
from .program import ENTRY_NAME, Program
from .routine import Routine
from .symbols import GlobalVar, ModuleSymbolTable, ProgramSymbolTable
from .verifier import (
    assert_valid_program,
    assert_valid_routine,
    verify_module,
    verify_program,
    verify_routine,
)

__all__ = [
    "BasicBlock",
    "IRBuilder",
    "CallGraph",
    "CallGraphNode",
    "CallSite",
    "DerivedCache",
    "IRError",
    "ParseError",
    "SymbolError",
    "VerifierError",
    "BINARY_OPS",
    "COMMUTATIVE_OPS",
    "TERMINATORS",
    "UNARY_OPS",
    "Instr",
    "Opcode",
    "fold_binary",
    "fold_unary",
    "sdiv64",
    "smod64",
    "wrap64",
    "Module",
    "parse_instr",
    "parse_module",
    "parse_routine",
    "format_instr",
    "format_module",
    "format_routine",
    "ENTRY_NAME",
    "Program",
    "Routine",
    "GlobalVar",
    "ModuleSymbolTable",
    "ProgramSymbolTable",
    "assert_valid_program",
    "assert_valid_routine",
    "verify_module",
    "verify_program",
    "verify_routine",
]
