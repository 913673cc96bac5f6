"""Lexer for MLL, the small C-like source language.

MLL ("Massachusetts Language Lab" language) exists so that the compiler
pipeline has a real frontend stage: source text -> tokens -> AST -> IL.
The IL is language-neutral; HLO never sees MLL constructs (paper §3).
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple

from .errors import FrontendError

KEYWORDS = frozenset(
    {
        "func",
        "static",
        "global",
        "var",
        "if",
        "else",
        "while",
        "for",
        "return",
    }
)

#: Multi-character operators, longest first so maximal munch works.
_MULTI_OPS = (
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
)

_SINGLE_OPS = "+-*/%<>=!&|^~(){}[],;"


class TokKind(enum.Enum):
    """Token categories produced by the MLL lexer."""

    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    OP = "op"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokKind
    text: str
    line: int
    col: int

    def is_op(self, text: str) -> bool:
        return self.kind is TokKind.OP and self.text == text

    def is_kw(self, text: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.text == text


def tokenize(source: str) -> List[Token]:
    """Convert MLL source text into a token list ending with EOF."""
    tokens: List[Token] = []
    line = 1
    col = 1
    index = 0
    length = len(source)

    def error(message: str) -> FrontendError:
        return FrontendError("lex error at %d:%d: %s" % (line, col, message))

    while index < length:
        ch = source[index]
        if ch == "\n":
            line += 1
            col = 1
            index += 1
            continue
        if ch in " \t\r":
            index += 1
            col += 1
            continue
        if ch == "/" and index + 1 < length and source[index + 1] == "/":
            while index < length and source[index] != "\n":
                index += 1
            continue
        if ch.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            text = source[start:index]
            tokens.append(Token(TokKind.NUMBER, text, line, col))
            col += len(text)
            continue
        if ch.isalpha() or ch == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
            tokens.append(Token(kind, text, line, col))
            col += len(text)
            continue
        two = source[index : index + 2]
        if two in _MULTI_OPS:
            tokens.append(Token(TokKind.OP, two, line, col))
            index += 2
            col += 2
            continue
        if ch in _SINGLE_OPS:
            tokens.append(Token(TokKind.OP, ch, line, col))
            index += 1
            col += 1
            continue
        raise error("unexpected character %r" % ch)

    tokens.append(Token(TokKind.EOF, "", line, col))
    return tokens
