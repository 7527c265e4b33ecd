"""Query IR: the bound representation consumed by the optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
SET_OPS = ("IN", "BETWEEN")
StatementKey = Tuple[str, str]  # Query.key(): (name, rendered SQL)


@dataclass(frozen=True)
class ColumnRef:
    """A column reference ``alias.column``."""

    alias: str
    column: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.column}"


@dataclass(frozen=True)
class FilterPredicate:
    """A single-table predicate.

    ``op`` is one of the comparison operators, "IN" (values holds the list)
    or "BETWEEN" (values holds (low, high)).
    """

    column: ColumnRef
    op: str
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS + SET_OPS:
            raise ValueError(f"unsupported predicate op {self.op!r}")
        if self.op == "BETWEEN" and len(self.values) != 2:
            raise ValueError("BETWEEN requires exactly two values")
        if self.op in COMPARISON_OPS and len(self.values) != 1:
            raise ValueError(f"{self.op} requires exactly one value")

    @property
    def value(self) -> float:
        return self.values[0]

    def __str__(self) -> str:
        if self.op == "IN":
            return f"{self.column} IN ({', '.join(str(v) for v in self.values)})"
        if self.op == "BETWEEN":
            return f"{self.column} BETWEEN {self.values[0]} AND {self.values[1]}"
        return f"{self.column} {self.op} {self.values[0]}"


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left = right`` between two aliases."""

    left: ColumnRef
    right: ColumnRef

    def aliases(self) -> Tuple[str, str]:
        return (self.left.alias, self.right.alias)

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class Aggregate:
    """An output aggregate; column is None for COUNT(*)."""

    function: str  # COUNT | SUM | MIN | MAX
    column: Optional[ColumnRef] = None

    def __str__(self) -> str:
        arg = "*" if self.column is None else str(self.column)
        return f"{self.function}({arg})"


@dataclass
class Query:
    """A bound select-project-join query.

    A bound query is never mutated: the engine's statement cache hands one
    object to every thread and tenant that sends the same text, so the
    binder memoizes :meth:`signature` and :meth:`key` before the query is
    published and nothing downstream writes to it or to its lists.

    Attributes
    ----------
    tables:
        alias -> physical table name.
    join_predicates:
        equi-join conditions between aliases.
    filters:
        single-table predicates.
    aggregates:
        output expressions (at least COUNT(*)).
    """

    tables: Dict[str, str]
    join_predicates: List[JoinPredicate]
    filters: List[FilterPredicate]
    aggregates: List[Aggregate] = field(default_factory=lambda: [Aggregate("COUNT")])
    name: str = ""

    @property
    def aliases(self) -> List[str]:
        return list(self.tables)

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def filters_for(self, alias: str) -> List[FilterPredicate]:
        return [f for f in self.filters if f.column.alias == alias]

    def alias_filters(self) -> Dict[str, Tuple[Tuple[FilterPredicate, ...], str]]:
        """Per alias: its filters in query order, and their texts sorted and
        comma-joined (what a plan's signature shows for the alias).

        Memoized like :meth:`signature`, which ``bind_query`` also computes
        before it returns: every plan of the query reads it.
        """
        cached = getattr(self, "_alias_filters", None)
        if cached is None:
            grouped: Dict[str, List[FilterPredicate]] = {alias: [] for alias in self.tables}
            for predicate in self.filters:
                grouped[predicate.column.alias].append(predicate)
            cached = {
                alias: (tuple(found), ",".join(sorted(map(str, found))))
                for alias, found in grouped.items()
            }
            self._alias_filters = cached
        return cached

    def is_connected(self) -> bool:
        """Whether the join predicates link every alias (union-find, no graph)."""
        root = {alias: alias for alias in self.tables}

        def find(alias: str) -> str:
            while root[alias] != alias:
                root[alias] = alias = root[root[alias]]
            return alias

        components = len(root)
        for pred in self.join_predicates:
            a, b = find(pred.left.alias), find(pred.right.alias)
            if a != b:
                root[a] = b
                components -= 1
        return components == 1

    def to_sql(self) -> str:
        """Render back to the SQL dialect accepted by the parser."""
        select = ", ".join(str(a) for a in self.aggregates)
        from_clause = ", ".join(f"{table} AS {alias}" for alias, table in self.tables.items())
        conditions = [str(p) for p in self.join_predicates] + [str(f) for f in self.filters]
        where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        return f"SELECT {select} FROM {from_clause}{where};"

    def sql_text(self) -> str:
        """The SQL text this query was bound from; ``to_sql()`` for a hand-built one.

        ``Database.sql`` records the text before it publishes the query, as
        the binder does the signature memo, so nothing writes it later.
        """
        return getattr(self, "_text", None) or self.to_sql()

    def signature(self) -> str:
        """A stable identity string (used as cache key).

        Memoized: unnamed queries fall back to re-rendering their SQL,
        which is far too slow for the per-step cache lookups of the
        episode hot path.  ``bind_query`` calls this once before returning,
        so the write below never happens on a query another thread can see.
        """
        cached = getattr(self, "_signature", None)
        if cached is None:
            cached = self.name or self.to_sql()
            self._signature = cached
        return cached

    def key(self) -> StatementKey:
        """The cache key of the statement: its name and its rendered SQL.

        Every cache of plans, encodings or statevecs keys a query by this,
        not by :meth:`signature`, which is the name alone for a named query:
        two statements bound under one name must never answer for each
        other.  Memoized like :meth:`signature`.
        """
        cached = getattr(self, "_key", None)
        if cached is None:
            cached = self._key = (self.name, self.to_sql() if self.name else self.signature())
        return cached
