"""Tokenizer for the Youtopia SQL dialect.

The dialect is standard SQL plus the entangled-query extensions of the paper:
``INTO ANSWER``, ``IN ANSWER`` and ``CHOOSE``.  The tokenizer is a small
hand-rolled scanner that tracks line/column positions so parse errors point at
the offending token.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from repro.errors import ParseError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "IN", "INTO", "ANSWER",
    "CHOOSE", "AS", "JOIN", "INNER", "LEFT", "OUTER", "ON", "GROUP", "BY",
    "HAVING", "ORDER", "ASC", "DESC", "LIMIT", "OFFSET", "DISTINCT",
    "CREATE", "TABLE", "PRIMARY", "KEY", "DROP", "IF", "EXISTS",
    "INSERT", "VALUES", "UPDATE", "SET", "DELETE", "NULL", "TRUE", "FALSE",
    "IS", "BETWEEN", "LIKE", "CROSS", "UNION", "ALL",
}


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    STRING = "STRING"
    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    OPERATOR = "OPERATOR"
    PUNCTUATION = "PUNCTUATION"
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def is_punct(self, symbol: str) -> bool:
        return self.type is TokenType.PUNCTUATION and self.value == symbol

    def is_operator(self, *symbols: str) -> bool:
        return self.type is TokenType.OPERATOR and self.value in symbols

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.value}({self.value!r})"


_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "||")
_PUNCTUATION = "(),.;"


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``, returning a token list terminated by an EOF token."""
    tokens: list[Token] = []
    position = 0
    line = 1
    column = 1
    length = len(text)

    def advance(count: int) -> None:
        nonlocal position, line, column
        for _ in range(count):
            if position < length and text[position] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            position += 1

    while position < length:
        char = text[position]

        # whitespace
        if char.isspace():
            advance(1)
            continue

        # comments: -- to end of line, /* ... */
        if text.startswith("--", position):
            end = text.find("\n", position)
            advance((end - position) if end != -1 else (length - position))
            continue
        if text.startswith("/*", position):
            end = text.find("*/", position + 2)
            if end == -1:
                raise ParseError("unterminated block comment", line, column)
            advance(end + 2 - position)
            continue

        start_line, start_column = line, column

        # string literal (single quotes, '' escapes a quote)
        if char == "'":
            value_chars: list[str] = []
            advance(1)
            while True:
                if position >= length:
                    raise ParseError("unterminated string literal", start_line, start_column)
                current = text[position]
                if current == "'":
                    if position + 1 < length and text[position + 1] == "'":
                        value_chars.append("'")
                        advance(2)
                        continue
                    advance(1)
                    break
                value_chars.append(current)
                advance(1)
            tokens.append(Token(TokenType.STRING, "".join(value_chars), start_line, start_column))
            continue

        # numbers
        if char.isdigit() or (char == "." and position + 1 < length and text[position + 1].isdigit()):
            number_chars: list[str] = []
            seen_dot = False
            while position < length and (text[position].isdigit() or (text[position] == "." and not seen_dot)):
                if text[position] == ".":
                    seen_dot = True
                number_chars.append(text[position])
                advance(1)
            value = "".join(number_chars)
            if seen_dot and math.isinf(float(value)):
                # the printer has no spelling for infinity, so journaled SQL
                # holding one would not re-parse
                raise ParseError("numeric literal out of range", start_line, start_column)
            token_type = TokenType.FLOAT if seen_dot else TokenType.INTEGER
            tokens.append(Token(token_type, value, start_line, start_column))
            continue

        # identifiers and keywords
        if char.isalpha() or char == "_":
            ident_chars: list[str] = []
            while position < length and (text[position].isalnum() or text[position] == "_"):
                ident_chars.append(text[position])
                advance(1)
            # interned: a server keeps every compiled query, and without this
            # each one holds its own copy of every table and column name
            word = sys.intern("".join(ident_chars))
            if word.upper() in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, word.upper(), start_line, start_column))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, start_line, start_column))
            continue

        # quoted identifiers ("name", "" escapes a quote)
        if char == '"':
            ident_chars = []
            advance(1)
            while True:
                if position >= length:
                    raise ParseError("unterminated quoted identifier", start_line, start_column)
                current = text[position]
                if current == '"':
                    if position + 1 < length and text[position + 1] == '"':
                        ident_chars.append('"')
                        advance(2)
                        continue
                    advance(1)
                    break
                ident_chars.append(current)
                advance(1)
            tokens.append(Token(TokenType.IDENTIFIER, "".join(ident_chars), start_line, start_column))
            continue

        # multi-character then single-character operators
        matched_operator = None
        for operator in _OPERATORS:
            if text.startswith(operator, position):
                matched_operator = operator
                break
        if matched_operator is not None:
            tokens.append(Token(TokenType.OPERATOR, matched_operator, start_line, start_column))
            advance(len(matched_operator))
            continue

        if char in _PUNCTUATION:
            tokens.append(Token(TokenType.PUNCTUATION, char, start_line, start_column))
            advance(1)
            continue

        raise ParseError(f"unexpected character {char!r}", start_line, start_column)

    tokens.append(Token(TokenType.EOF, "", line, column))
    return tokens
