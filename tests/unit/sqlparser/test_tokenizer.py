"""Unit tests for the SQL tokenizer."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.sqlparser.tokens import TokenType, tokenize


def kinds(text: str) -> list[TokenType]:
    return [token.type for token in tokenize(text)]


def values(text: str) -> list[str]:
    return [token.value for token in tokenize(text)[:-1]]


class TestBasics:
    def test_keywords_are_uppercased(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_preserve_case(self):
        assert values("Flights fno_2") == ["Flights", "fno_2"]

    def test_identifiers_are_shared_across_statements(self):
        # a server keeps every compiled query: equal names must be one object
        first, second = tokenize("Flights fno"), tokenize("fno FROM Flights")
        assert first[0].value is second[2].value
        assert first[1].value is second[0].value

    def test_numbers(self):
        tokens = tokenize("42 3.14 .5")
        assert [t.type for t in tokens[:-1]] == [
            TokenType.INTEGER, TokenType.FLOAT, TokenType.FLOAT,
        ]
        assert [t.value for t in tokens[:-1]] == ["42", "3.14", ".5"]

    def test_string_literals_with_escaped_quotes(self):
        tokens = tokenize("'Paris' 'O''Hare'")
        assert [t.value for t in tokens[:-1]] == ["Paris", "O'Hare"]
        assert tokens[0].type is TokenType.STRING

    def test_quoted_identifiers(self):
        tokens = tokenize('"Weird Name"')
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "Weird Name"

    def test_operators_longest_match_first(self):
        assert values("a <= b <> c != d || e") == ["a", "<=", "b", "<>", "c", "!=", "d", "||", "e"]

    def test_punctuation_and_eof(self):
        tokens = tokenize("(a, b);")
        assert tokens[-1].type is TokenType.EOF
        assert [t.value for t in tokens[:-1]] == ["(", "a", ",", "b", ")", ";"]


class TestCommentsAndPositions:
    def test_line_comment_skipped(self):
        assert values("SELECT -- the flights\n fno") == ["SELECT", "fno"]

    def test_block_comment_skipped(self):
        assert values("SELECT /* nothing\n to see */ fno") == ["SELECT", "fno"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(ParseError):
            tokenize("SELECT /* oops")

    def test_overflowing_float_literal_raises(self):
        """A literal that reads as infinity has no spelling the printer could
        journal, so it is refused rather than turned into ``inf``."""
        with pytest.raises(ParseError) as excinfo:
            tokenize("SELECT fno WHERE fno < 1" + "0" * 400 + ".0")
        assert excinfo.value.column == 24
        assert values("SELECT 1" + "0" * 300 + ".0") == ["SELECT", "1" + "0" * 300 + ".0"]

    def test_doubled_quote_escapes_a_quote_in_identifier(self):
        tokens = tokenize('SELECT "Res""v", """" FROM F')
        assert [tokens[1].value, tokens[3].value] == ['Res"v', '"']
        assert tokens[1].type is TokenType.IDENTIFIER
        assert tokens[4].is_keyword("FROM")

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokenize("SELECT 'oops")

    def test_unexpected_character_raises_with_position(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("SELECT ?")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 8

    def test_positions_track_lines(self):
        tokens = tokenize("SELECT\n  fno")
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    def test_entangled_keywords_recognised(self):
        tokens = tokenize("INTO ANSWER Reservation CHOOSE 1")
        assert tokens[0].is_keyword("INTO")
        assert tokens[1].is_keyword("ANSWER")
        assert tokens[2].type is TokenType.IDENTIFIER
        assert tokens[3].is_keyword("CHOOSE")
