"""Logical schema objects: tables, columns, foreign keys, join graph."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class ColumnSchema:
    """A column declaration.

    ``dtype`` is "int" or "float"; string source data is dictionary-encoded
    to int codes at load time, so "int" covers categorical columns too.
    """

    name: str
    dtype: str = "int"
    is_primary_key: bool = False

    def __post_init__(self) -> None:
        if self.dtype not in ("int", "float"):
            raise ValueError(f"unsupported dtype {self.dtype!r}")


@dataclass(frozen=True)
class ForeignKey:
    """Declares ``table.column`` references ``ref_table.ref_column``."""

    table: str
    column: str
    ref_table: str
    ref_column: str


@dataclass
class TableSchema:
    """A table declaration with columns and key metadata."""

    name: str
    columns: List[ColumnSchema]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names in table {self.name}")
        self._by_name = {c.name: c for c in self.columns}

    def column(self, name: str) -> ColumnSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"table {self.name} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]


class Schema:
    """The full logical schema: tables, foreign keys, and the join graph."""

    def __init__(self, tables: Iterable[TableSchema], foreign_keys: Iterable[ForeignKey] = ()) -> None:
        self._tables: Dict[str, TableSchema] = {}
        for table in tables:
            if table.name in self._tables:
                raise ValueError(f"duplicate table {table.name}")
            self._tables[table.name] = table
        self.foreign_keys: List[ForeignKey] = []
        # table -> {joinable table -> foreign key}, kept in the iteration
        # order of the networkx join graph this replaced (tables in
        # declaration order, neighbours in foreign-key order, a pair's later
        # key replacing its earlier one in place), which the workload
        # generators' output depends on; ``schema_join_graph`` in
        # tests/reference_dp.py rebuilds that graph to check it.
        self._adjacency: Dict[str, Dict[str, ForeignKey]] = {name: {} for name in self._tables}
        for fk in foreign_keys:
            self._validate_fk(fk)
            self.foreign_keys.append(fk)
            self._adjacency[fk.table][fk.ref_table] = fk
            self._adjacency[fk.ref_table][fk.table] = fk

    def _validate_fk(self, fk: ForeignKey) -> None:
        if fk.table not in self._tables:
            raise KeyError(f"foreign key references unknown table {fk.table}")
        if fk.ref_table not in self._tables:
            raise KeyError(f"foreign key references unknown table {fk.ref_table}")
        if not self._tables[fk.table].has_column(fk.column):
            raise KeyError(f"unknown column {fk.table}.{fk.column}")
        if not self._tables[fk.ref_table].has_column(fk.ref_column):
            raise KeyError(f"unknown column {fk.ref_table}.{fk.ref_column}")

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"unknown table {name!r}") from None

    @property
    def table_names(self) -> List[str]:
        return list(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def neighbors(self, table: str) -> List[str]:
        """The tables a foreign key joins ``table`` with."""
        return list(self._adjacency[table])

    def join_keys(self) -> List[ForeignKey]:
        """One foreign key per joinable table pair, in the join graph's edge order.

        A pair is listed at whichever of its tables was declared first and
        is represented by the last foreign key declared between the two.
        """
        keys = []
        seen = set()
        for table, neighbors in self._adjacency.items():
            keys.extend(fk for other, fk in neighbors.items() if other not in seen)
            seen.add(table)
        return keys

    def join_columns(self, table_a: str, table_b: str) -> Optional[Tuple[str, str]]:
        """The (col_a, col_b) pair joining two tables, if an FK edge exists."""
        for fk in self.foreign_keys:
            if fk.table == table_a and fk.ref_table == table_b:
                return (fk.column, fk.ref_column)
            if fk.table == table_b and fk.ref_table == table_a:
                return (fk.ref_column, fk.column)
        return None
