"""The catalog: all the metadata the layers above the engine read.

A :class:`Catalog` is what a DBMS shows its optimizer without its rows:
the schema, each string column's dictionary (value -> stored code), the
ANALYZE statistics, the declared indexes and the dataset's fingerprint.
The binder, the expert's enumerator and estimator, the plan encoder and
the baselines read it.  :class:`~repro.engine.database.Database` builds it
once, and a ``repro-engine`` server sends it in its handshake, so a
remote client holds this snapshot instead of a copy of the database.

:meth:`Catalog.to_wire` is its plain-data form.  It is deterministic:
tables, columns and foreign keys come in declaration order, and the
dictionaries and the index set are sorted, never in hash order.
:meth:`Catalog.from_wire` reads that form as untrusted input and refuses
any other shape, and any number that is not finite, with a
``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

import numpy as np

from repro.catalog.schema import ColumnSchema, ForeignKey, Schema, TableSchema
from repro.catalog.statistics import ColumnStatistics, StatisticsCatalog, TableStatistics
from repro.storage.database import StorageDatabase

_KEYS = ("dictionaries", "fingerprint", "indexes", "schema", "statistics")


@dataclass(frozen=True, eq=False)
class Catalog:
    """Schema, string dictionaries, statistics, indexes and fingerprint."""

    schema: Schema
    #: ``(table, column)`` of each string column -> its value -> code map.
    dictionaries: Mapping[Tuple[str, str], Mapping[str, int]]
    statistics: StatisticsCatalog
    #: The declared ``(table, column)`` indexes.
    indexes: FrozenSet[Tuple[str, str]]
    fingerprint: str

    @classmethod
    def of(
        cls,
        schema: Schema,
        storage: StorageDatabase,
        statistics: StatisticsCatalog,
        fingerprint: str,
    ) -> "Catalog":
        """The catalog of a loaded database."""
        dictionaries = {}
        for table_name in storage.table_names:
            table = storage.table(table_name)
            for column in table.column_names:
                dictionary = table.column_data(column).dictionary
                if dictionary is not None:
                    dictionaries[(table_name, column)] = {
                        str(value): code for code, value in enumerate(dictionary)
                    }
        return cls(schema, dictionaries, statistics, storage.indexes, fingerprint)

    def has_index(self, table: str, column: str) -> bool:
        return (table, column) in self.indexes

    # ------------------------------------------------------------------
    # plain data
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """The catalog as JSON-ready plain data (module docstring)."""
        tables = [self.schema.table(name) for name in self.schema.table_names]
        return {
            "schema": [
                [
                    [table.name, [[c.name, c.dtype, c.is_primary_key] for c in table.columns]]
                    for table in tables
                ],
                [
                    [fk.table, fk.column, fk.ref_table, fk.ref_column]
                    for fk in self.schema.foreign_keys
                ],
            ],
            "dictionaries": [
                [table, column, sorted(codes, key=codes.__getitem__)]
                for (table, column), codes in sorted(self.dictionaries.items())
            ],
            "statistics": [
                [
                    stats.table_name,
                    stats.row_count,
                    [
                        [
                            name,
                            float(column.n_distinct),
                            float(column.min_value),
                            float(column.max_value),
                            column.histogram_bounds.tolist(),
                            column.mcv_values.tolist(),
                            column.mcv_fractions.tolist(),
                        ]
                        for name, column in stats.columns.items()
                    ],
                ]
                for stats in self.statistics
            ],
            "indexes": sorted([table, column] for table, column in self.indexes),
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_wire(cls, data) -> "Catalog":
        """The catalog :meth:`to_wire` describes; ``ValueError`` on any other shape."""
        _expect(
            type(data) is dict and sorted(data) == list(_KEYS),
            f"a catalog is an object with the keys {list(_KEYS)}",
        )
        _expect(type(data["fingerprint"]) is str, "the fingerprint is not a string")
        schema = _schema_from_wire(data["schema"])

        def column_of(table, column, what: str) -> Tuple[str, str]:
            _expect(
                type(table) is str and type(column) is str and table in schema
                and schema.table(table).has_column(column),
                f"{what} names no column of the schema",
            )
            return table, column

        dictionaries: Dict[Tuple[str, str], Dict[str, int]] = {}
        for table, column, values in _rows(data["dictionaries"], 3, "dictionaries"):
            key = column_of(table, column, "a dictionary")
            _expect(key not in dictionaries, f"two dictionaries for {table}.{column}")
            _expect(
                type(values) is list and all(type(value) is str for value in values),
                f"the dictionary of {table}.{column} is not a list of strings",
            )
            codes = dictionaries[key] = {value: code for code, value in enumerate(values)}
            _expect(len(codes) == len(values), f"the dictionary of {table}.{column} repeats a value")

        indexes = [column_of(*entry, "an index") for entry in _rows(data["indexes"], 2, "indexes")]
        _expect(len(set(indexes)) == len(indexes), "an index is declared twice")

        return cls(
            schema,
            dictionaries,
            _statistics_from_wire(data["statistics"], schema),
            frozenset(indexes),
            data["fingerprint"],
        )


def _expect(condition: bool, problem: str) -> None:
    if not condition:
        raise ValueError(f"malformed catalog: {problem}")


def _rows(value, width: int, what: str) -> list:
    """``value``, checked to be a list of ``width``-item lists."""
    _expect(
        type(value) is list and all(type(row) is list and len(row) == width for row in value),
        f"{what} is not a list of {width}-item lists",
    )
    return value


def _float(value, what: str) -> float:
    _expect(type(value) is float and math.isfinite(value), f"{what} is not a finite float")
    return value


def _floats(values, what: str) -> np.ndarray:
    """A list of finite floats as a ``float64`` array."""
    _expect(
        type(values) is list and all(type(v) is float and math.isfinite(v) for v in values),
        f"{what} is not a list of finite floats",
    )
    return np.array(values, dtype=np.float64)


def _schema_from_wire(data) -> Schema:
    tables, keys = _rows([data], 2, "the schema")[0]
    for name, columns in _rows(tables, 2, "the schema's tables"):
        _expect(type(name) is str, "a table name is not a string")
        for column, dtype, is_primary_key in _rows(columns, 3, f"the columns of {name}"):
            _expect(
                type(column) is str and dtype in ("int", "float") and type(is_primary_key) is bool,
                f"a column of {name} is not [name, 'int' | 'float', bool]",
            )
    _rows(keys, 4, "the schema's foreign keys")
    _expect(all(type(name) is str for key in keys for name in key), "a foreign key names a non-string")
    try:
        return Schema(
            [TableSchema(name, [ColumnSchema(*column) for column in columns]) for name, columns in tables],
            [ForeignKey(*key) for key in keys],
        )
    except (KeyError, ValueError) as exc:  # a duplicate, or a key to nowhere
        raise ValueError(f"malformed catalog: {exc}") from None


def _statistics_from_wire(data, schema: Schema) -> StatisticsCatalog:
    """Statistics for exactly the schema's tables and columns, in its order."""
    rows = _rows(data, 3, "the statistics")
    _expect(
        [row[0] for row in rows] == schema.table_names,
        "the statistics do not cover the schema's tables in order",
    )
    tables = []
    for name, row_count, columns in rows:
        _expect(type(row_count) is int and row_count >= 0, f"the row count of {name} is not a count")
        columns = _rows(columns, 7, f"the statistics of {name}")
        _expect(
            [column[0] for column in columns] == schema.table(name).column_names,
            f"the statistics of {name} do not cover its columns in order",
        )
        stats = TableStatistics(table_name=name, row_count=row_count)
        for column, n_distinct, low, high, bounds, mcv_values, mcv_fractions in columns:
            what = f"the statistics of {name}.{column}"
            stats.columns[column] = ColumnStatistics(
                n_distinct=_float(n_distinct, what),
                min_value=_float(low, what),
                max_value=_float(high, what),
                histogram_bounds=_floats(bounds, f"{what}: histogram"),
                mcv_values=_floats(mcv_values, f"{what}: most common values"),
                mcv_fractions=_floats(mcv_fractions, f"{what}: their fractions"),
            )
        tables.append(stats)
    return StatisticsCatalog(tables)
