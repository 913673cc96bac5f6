"""Unit tests for the MLL lexer."""

import pytest

from repro.frontend.errors import FrontendError
from repro.frontend.lexer import TokKind, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


class TestTokens:
    def test_keywords_vs_identifiers(self):
        tokens = kinds("func while whilex iff return")
        assert tokens == [
            (TokKind.KEYWORD, "func"),
            (TokKind.KEYWORD, "while"),
            (TokKind.IDENT, "whilex"),
            (TokKind.IDENT, "iff"),
            (TokKind.KEYWORD, "return"),
        ]

    def test_numbers(self):
        assert kinds("0 123 007") == [
            (TokKind.NUMBER, "0"),
            (TokKind.NUMBER, "123"),
            (TokKind.NUMBER, "007"),
        ]

    def test_maximal_munch_operators(self):
        assert [t for _, t in kinds("a<<=b")] == ["a", "<<", "=", "b"]
        assert [t for _, t in kinds("a<=b")] == ["a", "<=", "b"]
        assert [t for _, t in kinds("a&&b||c")] == ["a", "&&", "b", "||", "c"]

    def test_comments_skipped(self):
        tokens = kinds("a // comment with * and / chars\nb")
        assert [t for _, t in tokens] == ["a", "b"]

    def test_underscore_identifiers(self):
        assert kinds("_x x_1")[0] == (TokKind.IDENT, "_x")

    def test_eof_token(self):
        assert tokenize("")[-1].kind is TokKind.EOF


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        assert (tokens[1].line, tokens[1].col) == (2, 3)

    def test_positions_after_comment(self):
        tokens = tokenize("// hi\nx")
        assert tokens[0].line == 2


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(FrontendError) as exc:
            tokenize("a $ b")
        assert "$" in str(exc.value)

    def test_error_mentions_position(self):
        with pytest.raises(FrontendError) as exc:
            tokenize("ab\n@")
        assert "2:" in str(exc.value)


class TestCharacterClasses:
    """Digits and names are what :meth:`str.isdigit`, :meth:`str.isalpha`
    and :meth:`str.isalnum` say, beyond ASCII too."""

    def test_a_digit_run_takes_every_digit(self):
        # "²" is a digit but not a decimal one: it joins the number,
        # and parsing the literal fails later.
        assert kinds("1² ٣4") == [
            (TokKind.NUMBER, "1²"),
            (TokKind.NUMBER, "٣4"),
        ]

    def test_names_take_letters_and_numerals(self):
        assert kinds("é1 x½ 9ab") == [
            (TokKind.IDENT, "é1"),
            (TokKind.IDENT, "x½"),
            (TokKind.NUMBER, "9"),
            (TokKind.IDENT, "ab"),
        ]

    def test_a_numeral_that_is_no_letter_starts_no_token(self):
        with pytest.raises(FrontendError) as exc:
            tokenize("a\n  ½")
        assert str(exc.value) == "lex error at 2:3: unexpected character '½'"


class TestColumns:
    def test_eof_column_leaves_a_trailing_comment_out(self):
        tokens = tokenize("a \t// note")
        assert (tokens[-1].line, tokens[-1].col) == (1, 4)

    def test_a_carriage_return_takes_a_column(self):
        tokens = tokenize("a\r b")
        assert tokens[1].col == 4
