"""Container tying tables to their indexes."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.storage.index import SortedIndex
from repro.storage.table import Table


class StorageDatabase:
    """Holds the physical tables and lazily-built sorted indexes."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._indexes: Dict[Tuple[str, str], SortedIndex] = {}
        self._indexed_columns: set = set()

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise ValueError(f"table {table.name} already registered")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"unknown table {name!r}") from None

    @property
    def table_names(self) -> List[str]:
        return list(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def declare_index(self, table_name: str, column_name: str) -> None:
        """Mark a column as indexed; the index itself is built on first use."""
        table = self.table(table_name)
        if not table.has_column(column_name):
            raise KeyError(f"table {table_name} has no column {column_name}")
        self._indexed_columns.add((table_name, column_name))

    @property
    def indexes(self) -> FrozenSet[Tuple[str, str]]:
        """The declared ``(table, column)`` indexes."""
        return frozenset(self._indexed_columns)

    def has_index(self, table_name: str, column_name: str) -> bool:
        return (table_name, column_name) in self._indexed_columns

    def index(self, table_name: str, column_name: str) -> SortedIndex:
        """Fetch (building on demand) the sorted index for a declared column."""
        key = (table_name, column_name)
        if key not in self._indexed_columns:
            raise KeyError(f"no index declared on {table_name}.{column_name}")
        if key not in self._indexes:
            self._indexes[key] = SortedIndex(self.table(table_name).column(column_name))
        return self._indexes[key]

    def total_rows(self) -> int:
        return sum(t.num_rows for t in self._tables.values())

    def memory_bytes(self) -> int:
        return sum(t.memory_bytes() for t in self._tables.values())
