"""Scanner for the SPJ SQL dialect: one compiled pattern, lexemes as strings.

:func:`scan` is the request path: ``findall`` of one compiled pattern
cuts the text into lexeme strings in C, and the parser reads each
lexeme's kind from its first character.  No token object is built on the
way to :class:`~repro.sql.parser.RawQuery`.  The per-character loop this
replaced was two thirds of an uncached bind, and a compiled-pattern
tokenizer that still built one ``Token`` per lexeme bought nothing:
building the tokens cost more than finding them.  So positions are
recovered only when an error is raised.

:func:`tokenize` is a ``(kind, value, position)`` view over the same
pattern.  The parser's error path reads it, for the position a message
names and for the lexing error that outranks any parse error.

The kinds follow the first character of a lexeme:

* ``'`` opens a STRING that runs to the next quote (no escapes);
* a digit, or ``-`` followed by a decimal digit, opens a NUMBER;
* a letter or ``_`` opens a word, a KEYWORD when its upper case is in
  :data:`KEYWORDS` and an IDENT otherwise;
* the operators in :data:`SYMBOLS` are SYMBOLs (``!=`` reads as ``<>``);
* any other character raises :class:`LexError`, as does an unterminated
  string.

Word characters are ``\\w``.  A run of them that does not start with a
decimal digit is one lexeme, so a lexeme opened by a numeric character
other than a decimal digit (``²``, ``½``, ``Ⅻ``) runs to the end of the
word: ``²`` and the words it opens are NUMBERs that no literal accepts,
``½`` and ``Ⅻ`` are unexpected characters.
"""

from __future__ import annotations

import re
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

_LEXEME = re.compile(
    r"""
      '[^']*'         # string literal
    | -?\d[\d.]*      # number
    | [^\W\d]\w*      # word: keyword or identifier
    | [<>!]=|<>       # two-character operators
    | [=<>(),;*.]     # one-character symbols
    | \S              # anything else: an error, reported by tokenize()
    """,
    re.VERBOSE,
)

#: Split SQL text into its lexemes, whitespace dropped.
scan = _LEXEME.findall


class Token(NamedTuple):
    """A lexical token: kind is KEYWORD, IDENT, NUMBER, STRING, or SYMBOL."""

    kind: str
    value: str
    position: int


class LexError(ValueError):
    """Raised on unexpected characters."""


def is_ident(lexeme: str) -> bool:
    """Whether ``lexeme`` is an IDENT; ``""`` is not."""
    first = lexeme[:1]
    return (first.isalpha() or first == "_") and lexeme.upper() not in KEYWORDS


def tokenize(text: str) -> List[Token]:
    """The lexemes of ``text`` as tokens; keywords are case-insensitive.

    Raises :class:`LexError` at the first lexeme that is no token.
    """
    return [_token(match.group(), match.start()) for match in _LEXEME.finditer(text)]


def _token(lexeme: str, position: int) -> Token:
    first = lexeme[0]
    if first == "'":
        if len(lexeme) == 1:
            raise LexError(f"unterminated string literal at {position}")
        return Token("STRING", lexeme[1:-1], position)
    if first.isdigit() or (first == "-" and len(lexeme) > 1):
        return Token("NUMBER", lexeme, position)
    if first.isalpha() or first == "_":
        upper = lexeme.upper()
        if upper in KEYWORDS:
            return Token("KEYWORD", upper, position)
        return Token("IDENT", lexeme, position)
    if lexeme in SYMBOLS:
        return Token("SYMBOL", "<>" if lexeme == "!=" else lexeme, position)
    raise LexError(f"unexpected character {first!r} at position {position}")
