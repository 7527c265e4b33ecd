"""Bind a parsed query against a catalog, resolving names and literals.

Binding validates table/column existence against the catalog's schema,
translates string literals into the codes of the catalog's string
dictionaries, and produces the :class:`~repro.sql.ast.Query` IR used by
the optimizer.  It reads no rows.
"""

from __future__ import annotations

from typing import List, Union

from repro.catalog.catalog import Catalog
from repro.sql.ast import Aggregate, ColumnRef, FilterPredicate, JoinPredicate, Query
from repro.sql.parser import RawColumn, RawQuery


class BindError(ValueError):
    """Raised when a query references unknown objects or bad literals."""


def bind_query(raw: RawQuery, catalog: Catalog, name: str = "") -> Query:
    """Resolve a parsed query against ``catalog``."""
    schema = catalog.schema
    for alias, table in raw.tables.items():
        if table not in schema:
            raise BindError(f"unknown table {table!r} (alias {alias})")

    def resolve(col: RawColumn) -> ColumnRef:
        if col.alias not in raw.tables:
            raise BindError(f"unknown alias {col.alias!r}")
        table_name = raw.tables[col.alias]
        if not schema.table(table_name).has_column(col.column):
            raise BindError(f"table {table_name} has no column {col.column!r}")
        return ColumnRef(alias=col.alias, column=col.column)

    def encode_literal(col: ColumnRef, literal: Union[float, str]) -> float:
        if isinstance(literal, str):
            codes = catalog.dictionaries.get((raw.tables[col.alias], col.column))
            if codes is None:
                raise BindError(f"column {col} is numeric but literal is a string")
            # Unknown string: encode as a code outside the dictionary so the
            # predicate selects nothing (matches DBMS behaviour).
            return float(codes.get(literal, len(codes)))
        return float(literal)

    joins: List[JoinPredicate] = []
    for raw_join in raw.joins:
        left = resolve(raw_join.left)
        right = resolve(raw_join.right)
        if left.alias == right.alias:
            raise BindError(f"self-join predicate within alias {left.alias!r}")
        joins.append(JoinPredicate(left=left, right=right))

    filters: List[FilterPredicate] = []
    for raw_filter in raw.filters:
        column = resolve(raw_filter.column)
        values = tuple(encode_literal(column, v) for v in raw_filter.values)
        filters.append(FilterPredicate(column=column, op=raw_filter.op, values=values))

    aggregates: List[Aggregate] = []
    for raw_agg in raw.aggregates:
        column = resolve(raw_agg.column) if raw_agg.column is not None else None
        function = "COUNT" if raw_agg.function == "COUNT" else raw_agg.function
        aggregates.append(Aggregate(function=function, column=column))

    query = Query(
        tables=dict(raw.tables),
        join_predicates=joins,
        filters=filters,
        aggregates=aggregates,
        name=name,
    )
    if query.num_tables > 1 and not query.is_connected():
        raise BindError("query join graph is not connected (cross joins unsupported)")
    # Memoized here: a bound query is shared and read-only afterwards.
    query.signature()
    query.key()
    query.alias_filters()
    return query
