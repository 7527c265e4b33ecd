"""Test-only oracle: the character-loop lexer and token parser the scanner replaced.

This is the previous ``repro.sql.lexer.tokenize`` (one ``Token`` per lexeme,
built by a per-character loop) and the ``repro.sql.parser`` recursive
descent that walked those tokens, kept verbatim so ``tests/test_sql.py``
can hold :func:`repro.sql.lexer.tokenize` and
:func:`repro.sql.parser.parse_query` to them on drawn and mutated text.
Nothing under ``src/`` imports it; do not optimise it.  It raises the
package's own :class:`~repro.sql.lexer.LexError` and
:class:`~repro.sql.parser.ParseError`, so one ``pytest.raises`` covers
both sides.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.sql.lexer import KEYWORDS, SYMBOLS, LexError, Token
from repro.sql.parser import (
    ParseError,
    RawAggregate,
    RawColumn,
    RawFilter,
    RawJoin,
    RawQuery,
)



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


class _TokenParser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self.advance()
        if token.kind != kind or (value is not None and token.value != value):
            raise ParseError(
                f"expected {value or kind} at position {token.position}, got {token.value!r}"
            )
        return token

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token is not None and token.kind == kind and (value is None or token.value == value):
            self.pos += 1
            return token
        return None

    # ------------------------------------------------------------------
    def parse(self) -> RawQuery:
        self.expect("KEYWORD", "SELECT")
        aggregates = self._select_list()
        self.expect("KEYWORD", "FROM")
        tables = self._from_list()
        joins: List[RawJoin] = []
        filters: List[RawFilter] = []
        if self.accept("KEYWORD", "WHERE"):
            while True:
                self._condition(joins, filters)
                if not self.accept("KEYWORD", "AND"):
                    break
        self.accept("SYMBOL", ";")
        if self.peek() is not None:
            raise ParseError(f"trailing input at position {self.peek().position}")
        return RawQuery(tables=tables, joins=joins, filters=filters, aggregates=aggregates)

    def _select_list(self) -> List[RawAggregate]:
        aggregates = [self._aggregate()]
        while self.accept("SYMBOL", ","):
            aggregates.append(self._aggregate())
        return aggregates

    def _aggregate(self) -> RawAggregate:
        token = self.advance()
        if token.kind != "KEYWORD" or token.value not in ("COUNT", "SUM", "MIN", "MAX", "AVG"):
            raise ParseError(f"expected aggregate function at position {token.position}")
        self.expect("SYMBOL", "(")
        if self.accept("SYMBOL", "*"):
            column = None
        else:
            column = self._column()
        self.expect("SYMBOL", ")")
        return RawAggregate(function=token.value, column=column)

    def _from_list(self) -> Dict[str, str]:
        tables: Dict[str, str] = {}
        while True:
            table = self.expect("IDENT").value
            if self.accept("KEYWORD", "AS"):
                alias = self.expect("IDENT").value
            else:
                maybe_alias = self.accept("IDENT")
                alias = maybe_alias.value if maybe_alias else table
            if alias in tables:
                raise ParseError(f"duplicate alias {alias!r}")
            tables[alias] = table
            if not self.accept("SYMBOL", ","):
                break
        return tables

    def _column(self) -> RawColumn:
        alias = self.expect("IDENT").value
        self.expect("SYMBOL", ".")
        column = self.expect("IDENT").value
        return RawColumn(alias=alias, column=column)

    def _literal(self) -> Union[float, str]:
        token = self.advance()
        if token.kind == "NUMBER":
            value = float(token.value)
            return value
        if token.kind == "STRING":
            return token.value
        raise ParseError(f"expected literal at position {token.position}")

    def _condition(self, joins: List[RawJoin], filters: List[RawFilter]) -> None:
        column = self._column()
        token = self.advance()
        if token.kind == "KEYWORD" and token.value == "IN":
            self.expect("SYMBOL", "(")
            values = [self._literal()]
            while self.accept("SYMBOL", ","):
                values.append(self._literal())
            self.expect("SYMBOL", ")")
            filters.append(RawFilter(column=column, op="IN", values=tuple(values)))
            return
        if token.kind == "KEYWORD" and token.value == "BETWEEN":
            low = self._literal()
            self.expect("KEYWORD", "AND")
            high = self._literal()
            filters.append(RawFilter(column=column, op="BETWEEN", values=(low, high)))
            return
        if token.kind != "SYMBOL" or token.value not in ("=", "<>", "<", "<=", ">", ">="):
            raise ParseError(f"expected comparison operator at position {token.position}")
        op = token.value
        next_token = self.peek()
        if next_token is not None and next_token.kind == "IDENT":
            right = self._column()
            if op != "=":
                raise ParseError("only equi-joins are supported between columns")
            joins.append(RawJoin(left=column, right=right))
            return
        value = self._literal()
        filters.append(RawFilter(column=column, op=op, values=(value,)))


def parse_query(text: str) -> RawQuery:
    """Parse SQL text into a :class:`RawQuery` (unbound)."""
    try:
        tokens = tokenize(text)
    except LexError as exc:
        raise ParseError(str(exc)) from exc
    return _TokenParser(tokens).parse()
