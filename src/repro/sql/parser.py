"""Recursive-descent parser producing an *unbound* query structure.

Grammar (keywords case-insensitive)::

    query      := SELECT select_list FROM from_list [WHERE condition_list] [';']
    select_list:= agg (',' agg)*
    agg        := (COUNT|SUM|MIN|MAX|AVG) '(' ('*' | column) ')'
    from_list  := table_item (',' table_item)*
    table_item := IDENT [AS] IDENT
    condition  := column '=' column            -- join predicate
                | column comp_op literal       -- filter
                | column IN '(' literal (',' literal)* ')'
                | column BETWEEN literal AND literal
    column     := IDENT '.' IDENT

The parser walks the lexeme strings :func:`~repro.sql.lexer.scan` returns.
It reads a lexeme's kind from its first character (the rules are in
:mod:`repro.sql.lexer`) and matches keywords through ``upper()``.  No
``Token`` is built between SQL text and :class:`RawQuery`: on a cold
request, building them cost more than finding the lexemes.  Positions
appear only in error messages, so :meth:`_Parser.fail` recovers them
through :func:`~repro.sql.lexer.tokenize` when an error is raised.  That
path also raises the text's first lexing error, which outranks any parse
error, as it did when the whole text was lexed before parsing began.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NoReturn, Optional, Tuple, Union

from repro.sql.lexer import LexError, is_ident, scan, tokenize


class ParseError(ValueError):
    """Raised when SQL text does not conform to the dialect."""


# Slotted, not frozen: a frozen dataclass sets each field through
# ``object.__setattr__``, and at a dozen raw nodes per query that was a
# sixth of parsing a Stack query.  The binder reads a raw query once and
# nothing mutates it.
@dataclass(slots=True)
class RawColumn:
    alias: str
    column: str


@dataclass(slots=True)
class RawAggregate:
    function: str
    column: Optional[RawColumn]


@dataclass(slots=True)
class RawFilter:
    column: RawColumn
    op: str
    values: Tuple[Union[float, str], ...]


@dataclass(slots=True)
class RawJoin:
    left: RawColumn
    right: RawColumn


@dataclass
class RawQuery:
    """Parser output before binding against a schema."""

    tables: Dict[str, str]
    joins: List[RawJoin]
    filters: List[RawFilter]
    aggregates: List[RawAggregate]


_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")
_COMPARISONS = {"=": "=", "<>": "<>", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.lexemes = scan(text)
        self.lexemes.append("")  # end of input: no lexeme is empty
        self.pos = 0

    # ------------------------------------------------------------------
    def fail(self, message: str, at: Optional[int] = None, expected: str = "") -> NoReturn:
        """Raise ``message``, or the text's lexing error, which outranks it.

        ``message`` may name the ``{position}`` and ``{value}`` of the token
        at lexeme index ``at``, and ``{expected}``; :func:`tokenize` recovers
        the token here, on the error path only.
        """
        try:
            tokens = tokenize(self.text)
        except LexError as exc:
            raise ParseError(str(exc)) from exc
        if at is not None:
            token = tokens[at]
            message = message.format(position=token.position, value=token.value, expected=expected)
        raise ParseError(message)

    def advance(self) -> str:
        lexeme = self.lexemes[self.pos]
        if not lexeme:
            self.fail("unexpected end of input")
        self.pos += 1
        return lexeme

    def accept(self, word: str) -> bool:
        """Consume the symbol or (case-insensitive) keyword ``word`` if it is next."""
        lexeme = self.lexemes[self.pos]
        if lexeme == word or lexeme.upper() == word:
            self.pos += 1
            return True
        return False

    def expect(self, word: str) -> None:
        if not self.accept(word):
            self.advance()  # at the end of input, that is the error
            self.fail(
                "expected {expected} at position {position}, got {value!r}",
                self.pos - 1,
                expected=word,
            )

    def ident(self) -> str:
        lexeme = self.lexemes[self.pos]
        if not is_ident(lexeme):
            self.advance()
            self.fail("expected IDENT at position {position}, got {value!r}", self.pos - 1)
        self.pos += 1
        return lexeme

    # ------------------------------------------------------------------
    def parse(self) -> RawQuery:
        self.expect("SELECT")
        aggregates = self._select_list()
        self.expect("FROM")
        tables = self._from_list()
        joins: List[RawJoin] = []
        filters: List[RawFilter] = []
        if self.accept("WHERE"):
            while True:
                self._condition(joins, filters)
                if not self.accept("AND"):
                    break
        self.accept(";")
        if self.lexemes[self.pos]:
            self.fail("trailing input at position {position}", self.pos)
        return RawQuery(tables=tables, joins=joins, filters=filters, aggregates=aggregates)

    def _select_list(self) -> List[RawAggregate]:
        aggregates = [self._aggregate()]
        while self.accept(","):
            aggregates.append(self._aggregate())
        return aggregates

    def _aggregate(self) -> RawAggregate:
        function = self.advance().upper()
        if function not in _AGGREGATES:
            self.fail("expected aggregate function at position {position}", self.pos - 1)
        self.expect("(")
        if self.accept("*"):
            column = None
        else:
            column = self._column()
        self.expect(")")
        return RawAggregate(function=function, column=column)

    def _from_list(self) -> Dict[str, str]:
        tables: Dict[str, str] = {}
        while True:
            table = self.ident()
            if self.accept("AS"):
                alias = self.ident()
            elif is_ident(self.lexemes[self.pos]):
                alias = self.advance()
            else:
                alias = table
            if alias in tables:
                self.fail(f"duplicate alias {alias!r}")
            tables[alias] = table
            if not self.accept(","):
                break
        return tables

    def _column(self) -> RawColumn:
        alias = self.ident()
        self.expect(".")
        column = self.ident()
        return RawColumn(alias=alias, column=column)

    def _literal(self) -> Union[float, str]:
        lexeme = self.advance()
        first = lexeme[0]
        if first == "'" and len(lexeme) > 1:
            return lexeme[1:-1]
        if first.isdigit() or (first == "-" and len(lexeme) > 1):
            try:
                return float(lexeme)
            except ValueError:  # two dots, or a digit float() does not read (²)
                pass
        self.fail("expected literal at position {position}", self.pos - 1)

    def _condition(self, joins: List[RawJoin], filters: List[RawFilter]) -> None:
        column = self._column()
        lexeme = self.advance()
        keyword = lexeme.upper()
        if keyword == "IN":
            self.expect("(")
            values = [self._literal()]
            while self.accept(","):
                values.append(self._literal())
            self.expect(")")
            filters.append(RawFilter(column=column, op="IN", values=tuple(values)))
            return
        if keyword == "BETWEEN":
            low = self._literal()
            self.expect("AND")
            high = self._literal()
            filters.append(RawFilter(column=column, op="BETWEEN", values=(low, high)))
            return
        op = _COMPARISONS.get(lexeme)
        if op is None:
            self.fail("expected comparison operator at position {position}", self.pos - 1)
        if is_ident(self.lexemes[self.pos]):
            right = self._column()
            if op != "=":
                self.fail("only equi-joins are supported between columns")
            joins.append(RawJoin(left=column, right=right))
            return
        value = self._literal()
        filters.append(RawFilter(column=column, op=op, values=(value,)))


def parse_query(text: str) -> RawQuery:
    """Parse SQL text into a :class:`RawQuery` (unbound)."""
    return _Parser(text).parse()
