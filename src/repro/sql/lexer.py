"""Tokenizer for the SPJ SQL dialect."""

from __future__ import annotations

from typing import List, NamedTuple

KEYWORDS = {
    "SELECT",
    "FROM",
    "WHERE",
    "AND",
    "AS",
    "IN",
    "BETWEEN",
    "COUNT",
    "SUM",
    "MIN",
    "MAX",
    "AVG",
}

SYMBOLS = ["<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ";", "*", "."]


class Token(NamedTuple):
    """A lexical token: kind is KEYWORD, IDENT, NUMBER, STRING, or SYMBOL."""

    kind: str
    value: str
    position: int


class LexError(ValueError):
    """Raised on unexpected characters."""


def tokenize(text: str) -> List[Token]:
    """Split SQL text into tokens; keywords are case-insensitive."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            end = text.find("'", i + 1)
            if end == -1:
                raise LexError(f"unterminated string literal at {i}")
            tokens.append(Token("STRING", text[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, i))
            else:
                tokens.append(Token("IDENT", word, i))
            i = j
            continue
        matched = False
        for symbol in SYMBOLS:
            if text.startswith(symbol, i):
                normalized = "<>" if symbol == "!=" else symbol
                tokens.append(Token("SYMBOL", normalized, i))
                i += len(symbol)
                matched = True
                break
        if not matched:
            raise LexError(f"unexpected character {ch!r} at position {i}")
    return tokens
