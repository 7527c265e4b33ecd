"""Test-only oracle: a generated dataset copied into stdlib ``sqlite3``.

SQLite shares no code with ``repro``: not the parser, the binder, the
planner or the executor.  So a workload query's own SQL text, answered by
SQLite over the same rows, checks the whole path from text to aggregates.

* :func:`load` copies every table of a
  :class:`~repro.engine.database.Dataset` into an in-memory database, one
  SQLite column per stored column.  Dictionary-encoded columns are decoded
  back to their strings, so string literals in the SQL compare as strings
  there and as codes here.
* :func:`run` answers one query within a fixed budget of SQLite VM steps
  (``Connection.set_progress_handler``), not a wall-clock timer, so the
  queries that finish are the same on every machine with the same SQLite.
* :func:`disagreement` compares SQLite's row with an executor result.
  ``COUNT``, ``MIN`` and ``MAX`` must be equal, and ``SUM`` and ``AVG``
  within a relative 1e-9.  SQLite's ``NULL`` (an aggregate other than
  ``COUNT`` over no rows) reads as the executor's empty aggregate, ``0.0``.
  The loader refuses ``NaN``, which SQLite would store as ``NULL``, so no
  other ``NULL`` can occur.  A ``MIN`` or ``MAX`` over a dictionary
  column is the code of a string here, and is decoded before comparing.

A ``timed_out`` executor result is no answer: it reports zero rows, which a
true count of zero would match by accident, so callers list it and never
compare it.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Optional, Sequence

import numpy as np

from repro.engine.database import Dataset
from repro.executor.engine import ExecutionResult
from repro.sql.ast import Query
from repro.storage.database import StorageDatabase
from repro.storage.table import Table

#: SQLite VM steps between two calls of the progress handler.
STEPS_PER_CALL = 1000


def load(dataset: Dataset) -> sqlite3.Connection:
    """An in-memory SQLite database holding every table of ``dataset``."""
    conn = sqlite3.connect(":memory:")
    try:
        for table_name in dataset.storage.table_names:
            _copy_table(conn, dataset.storage.table(table_name))
        conn.commit()
    except BaseException:
        conn.close()
        raise
    return conn


def _copy_table(conn: sqlite3.Connection, table: Table) -> None:
    columns, types = [], []
    for column_name in table.column_names:
        data = table.column_data(column_name)
        if data.dictionary is not None:
            columns.append([data.dictionary[code] for code in data.values.tolist()])
            types.append("TEXT")
        elif data.values.dtype.kind == "f":
            if np.isnan(data.values).any():
                raise ValueError(f"{table.name}.{column_name} holds NaN, which SQLite stores as NULL")
            columns.append(data.values.tolist())
            types.append("REAL")
        else:
            columns.append(data.values.tolist())
            types.append("INTEGER")
    names = ", ".join(f'"{name}" {kind}' for name, kind in zip(table.column_names, types))
    conn.execute(f'CREATE TABLE "{table.name}" ({names})')
    marks = ", ".join("?" * len(columns))
    conn.executemany(f'INSERT INTO "{table.name}" VALUES ({marks})', zip(*columns))


def run(conn: sqlite3.Connection, sql: str, steps: int) -> Optional[tuple]:
    """SQLite's result row for ``sql``, or ``None`` past ``steps`` VM steps."""
    calls = 0

    def over_budget() -> bool:
        nonlocal calls
        calls += 1
        return calls * STEPS_PER_CALL > steps

    conn.set_progress_handler(over_budget, STEPS_PER_CALL)
    try:
        return conn.execute(sql).fetchone()
    except sqlite3.OperationalError as exc:
        if calls * STEPS_PER_CALL > steps:
            return None
        raise AssertionError(f"SQLite refused {sql!r}: {exc}") from exc
    finally:
        conn.set_progress_handler(None, 0)


def disagreement(
    query: Query, row: Sequence[object], result: ExecutionResult, storage: StorageDatabase
) -> Optional[str]:
    """Why SQLite's ``row`` and the executor's ``result`` differ, or ``None``."""
    if result.timed_out:
        raise ValueError("a timed-out result is no answer; list it instead of comparing it")
    if len(row) != len(query.aggregates) or len(result.aggregate_values) != len(row):
        return f"{len(row)} SQLite values against {len(result.aggregate_values)} executed"
    for aggregate, expected, actual in zip(query.aggregates, row, result.aggregate_values):
        if expected is None:
            expected = 0.0
        elif aggregate.function in ("MIN", "MAX"):
            table = storage.table(query.tables[aggregate.column.alias])
            dictionary = table.column_data(aggregate.column.column).dictionary
            if dictionary is not None:
                actual = dictionary[int(actual)]
        if aggregate.function in ("SUM", "AVG"):
            same = math.isclose(float(expected), actual, rel_tol=1e-9, abs_tol=0.0)
        else:
            same = expected == actual
        if not same:
            return f"{aggregate}: SQLite {expected!r}, executor {actual!r}"
    return None
