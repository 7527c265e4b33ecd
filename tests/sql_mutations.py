"""Grammar-aware mutations of workload SQL, for the SQL-text fuzzers.

A workload query reads ``SELECT <aggregates> FROM <table AS alias, ...>
WHERE <condition AND ...>;``.  :func:`mutate` edits one of those parts the
way a careless or hostile client would, so the text still looks like SQL
and reaches past the scanner into the parser and the binder:

* ``drop`` / ``duplicate``: a predicate removed or written twice;
* ``unknown_column``: a column the table does not have;
* ``alias_twice``: one alias given to two tables;
* ``paren``: a parenthesis dropped or doubled;
* ``stray_keyword``: a keyword between two lexemes;
* ``non_ascii``: a non-ASCII character in an identifier, between lexemes
  or as a literal.

:func:`huge` makes the size attacks (a 20,000-item ``IN`` list, a
5,000-digit literal), which cost too much to draw for every example.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.sql.lexer import KEYWORDS

#: ``pick(n)`` returns an index in ``range(n)``; the fuzzer draws it.
Pick = Callable[[int], int]

MUTATIONS = (
    "drop", "duplicate", "unknown_column", "alias_twice", "paren", "stray_keyword", "non_ascii",
)
NON_ASCII = ("é", "ſ", "½", "²", "Ⅻ", "٣", "\u00a0", "\u3000", "’", "中")


def split(sql: str) -> Tuple[str, List[str], List[str]]:
    """(select list, FROM items, WHERE conditions) of a workload query."""
    head, _, where = sql.rstrip(";").partition(" WHERE ")
    select, _, tables = head.partition(" FROM ")
    conditions: List[str] = []
    for piece in where.split(" AND ") if where else ():
        if conditions and " BETWEEN " in conditions[-1] and conditions[-1].count(" AND ") == 0:
            conditions[-1] += " AND " + piece  # the upper bound of a BETWEEN
        else:
            conditions.append(piece)
    return select, tables.split(", "), conditions


def join(select: str, tables: List[str], conditions: List[str]) -> str:
    where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
    return f"{select} FROM {', '.join(tables)}{where};"


def mutate(sql: str, mutation: str, pick: Pick) -> str:
    select, tables, conditions = split(sql)
    if mutation == "drop":
        if conditions:
            del conditions[pick(len(conditions))]
    elif mutation == "duplicate":
        if conditions:
            i = pick(len(conditions))
            conditions.insert(i, conditions[i])
    elif mutation == "unknown_column":
        if conditions:
            i = pick(len(conditions))
            # An earlier mutation can leave a bare word here (a BETWEEN
            # bound cut off by a non-ASCII character in "BETWEEN").
            column, _, rest = conditions[i].partition(" ")
            conditions[i] = f"{column.split('.', 1)[0]}.no_such_column {rest}"
    elif mutation == "alias_twice":
        if len(tables) > 1:
            i = pick(len(tables))
            j = (i + 1 + pick(len(tables) - 1)) % len(tables)
            tables[j] = tables[j].rsplit(" ", 1)[0] + " " + tables[i].rsplit(" ", 1)[1]
    elif mutation == "paren":
        select = select.replace("(", "", 1) if pick(2) else select.replace("(", "((", 1)
    elif mutation == "stray_keyword":
        words = join(select, tables, conditions).split(" ")
        words.insert(pick(len(words) + 1), sorted(KEYWORDS)[pick(len(KEYWORDS))])
        return " ".join(words)
    elif mutation == "non_ascii":
        text = join(select, tables, conditions)
        char = NON_ASCII[pick(len(NON_ASCII))]
        i = pick(len(text) + 1)
        return text[:i] + char + text[i:]
    else:
        raise ValueError(f"unknown mutation {mutation!r}")
    return join(select, tables, conditions)


def huge(sql: str) -> List[str]:
    """The size attacks on one query: a 20,000-item IN list, a 5,000-digit literal."""
    select, tables, conditions = split(sql)
    column = conditions[0].split(" ", 1)[0]
    items = ", ".join(str(i) for i in range(20_000))
    return [
        join(select, tables, conditions + [f"{column} IN ({items})"]),
        join(select, tables, conditions + [f"{column} = {'9' * 5000}"]),
    ]
