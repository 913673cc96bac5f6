"""Lexer for MLL, the small C-like source language.

MLL ("Massachusetts Language Lab" language) exists so that the compiler
pipeline has a real frontend stage: source text -> tokens -> AST -> IL.
The IL is language-neutral; HLO never sees MLL constructs (paper §3).

:func:`scan` is the lexer: one regular-expression pass per line yields
two flat lists, the token texts and their line numbers, ending with the
empty EOF text.  A token's kind follows from its text
(:func:`token_kind`), and its column is computed only when something
asks for it (:func:`column`: an error message, or :func:`tokenize`,
which builds :class:`Token` objects from the same scan).
"""

from __future__ import annotations

import enum
import functools
import re
import sys
from bisect import bisect_left
from typing import List, NamedTuple, Tuple

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

OPERATORS = frozenset(_MULTI_OPS) | frozenset(_SINGLE_OPS)


def _token_pattern(other_digits: str) -> str:
    """Blanks (space, tab, carriage return), then one token in group 1:
    a run of digits, a name (a letter or ``_``, then letters, digits
    and ``_``), or an operator, two-character ones first.  ``\\d`` is
    the decimal digits; ``other_digits`` are the rest of what
    :meth:`str.isdigit` calls a digit (such as ``²``)."""
    if other_digits:
        digits = "[\\d%s]+" % re.escape(other_digits)
        name = "(?![%s])[^\\W\\d]\\w*" % re.escape(other_digits)
    else:
        digits, name = r"\d+", r"[^\W\d]\w*"
    return "[ \t\r]*(%s)" % "|".join(
        [name, digits]
        + [re.escape(op) for op in _MULTI_OPS]
        + ["[" + re.escape(_SINGLE_OPS) + "]"]
    )


_TOKEN_RE = re.compile(_token_pattern(""))


@functools.lru_cache(maxsize=None)
def _unicode_token_re() -> "re.Pattern[str]":
    other_digits = "".join(
        char for char in map(chr, range(sys.maxunicode + 1))
        if char.isdigit() and not char.isdecimal()
    )
    return re.compile(_token_pattern(other_digits))


def _token_re(source: str) -> "re.Pattern[str]":
    """The token pattern for ``source``: an ASCII source has only
    decimal digits, so the table of the others is built only for a
    source that is not ASCII."""
    return _TOKEN_RE if source.isascii() else _unicode_token_re()


#: The longest prefix of a source made of token characters, blanks,
#: newlines and ``//`` comments; a lex error is where it stops.
_VALID_PREFIX_RE = re.compile(
    r"(?:[\w \t\r\n" + re.escape(_SINGLE_OPS.replace("/", ""))
    + r"]+|/(?!/)|//[^\n]*)*"
)


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


def token_kind(text: str) -> TokKind:
    """The kind of a token :func:`scan` produced, from its text."""
    if not text:
        return TokKind.EOF
    if text in OPERATORS:
        return TokKind.OP
    if text in KEYWORDS:
        return TokKind.KEYWORD
    if text[0].isdigit():
        return TokKind.NUMBER
    return TokKind.IDENT


def _code_lines(source: str) -> List[str]:
    """The source's lines with their ``//`` comments cut off (no token
    contains ``//``, so its first occurrence on a line opens one)."""
    lines = source.split("\n")
    if "//" in source:
        for index, line in enumerate(lines):
            if "//" in line:
                lines[index] = line[: line.index("//")]
    return lines


def scan(source: str) -> Tuple[List[str], List[int]]:
    """Token texts and their 1-based line numbers, ending with the EOF
    text ``""`` on the last line.  Raises :class:`FrontendError` at the
    first character that starts no token."""
    valid = _VALID_PREFIX_RE.match(source).end()
    if valid != len(source) or not source.isascii():
        _check_characters(source, valid)
    texts: List[str] = []
    lines: List[int] = []
    findall = _token_re(source).findall
    number = 0
    for line in _code_lines(source):
        number += 1
        found = findall(line)
        if found:
            texts += found
            lines += [number] * len(found)
    texts.append("")
    lines.append(number)
    return texts, lines


def column(source: str, lines: List[int], index: int) -> int:
    """The 1-based column of token ``index`` of ``scan(source)``."""
    line = lines[index]
    text = _code_lines(source)[line - 1]
    if index == len(lines) - 1:  # EOF: just past the last line's code
        return len(text) + 1
    nth = index - bisect_left(lines, line)
    for ordinal, match in enumerate(_token_re(source).finditer(text)):
        if ordinal == nth:
            return match.start(1) + 1
    raise AssertionError("token %d is not on line %d" % (index, line))


def _check_characters(source: str, valid: int) -> None:
    """Raise the lex error at the first character that starts no token.

    Besides a character outside every token class, a name may start
    badly: ``\\w`` admits numeric characters that are neither letters
    nor digits (such as ``½``), which start no token.
    """
    bad = None
    if valid != len(source):
        line = source.count("\n", 0, valid) + 1
        bad = (line, valid - source.rfind("\n", 0, valid), source[valid])
    if not source.isascii():
        finditer = _unicode_token_re().finditer
        for number, text in enumerate(_code_lines(source), start=1):
            if bad is not None and number > bad[0]:
                break
            for match in finditer(text):
                char = match.group(1)[0]
                if char.isascii() or char.isalpha() or char.isdigit():
                    continue
                found = (number, match.start(1) + 1, char)
                if bad is None or found < bad:
                    bad = found
                break
    if bad is not None:
        raise FrontendError(
            "lex error at %d:%d: unexpected character %r" % bad
        )


def tokenize(source: str) -> List[Token]:
    """Convert MLL source text into a token list ending with EOF."""
    scan(source)  # raises the lex error, if there is one
    code = _code_lines(source)
    finditer = _token_re(source).finditer
    tokens: List[Token] = []
    for number, text in enumerate(code, start=1):
        for match in finditer(text):
            token = match.group(1)
            tokens.append(
                Token(token_kind(token), token, number, match.start(1) + 1)
            )
    tokens.append(Token(TokKind.EOF, "", len(code), len(code[-1]) + 1))
    return tokens
