"""The catalog: one metadata object, the same on both sides of the wire.

* A catalog crosses the wire intact: :meth:`Catalog.from_wire` of the
  JSON-round-tripped :meth:`Catalog.to_wire` equals the original field by
  field, statistics arrays included (``float64``, ``array_equal``).
* Its wire form is deterministic: the bytes' crc32 is pinned per workload,
  so a form that depended on string hashing (the index set is a set) would
  fail under one of CI's two ``PYTHONHASHSEED`` runs.
* A string column binds through the catalog's dictionary alone: a known
  value gets its code and an unknown one ``len(dictionary)``, through a
  local ``Database`` and through a ``RemoteBackend`` that holds no rows.
  No shipped dataset has a string column, so the table is built here.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.catalog import Catalog
from repro.catalog.schema import ColumnSchema, Schema, TableSchema
from repro.engine.database import Database, Dataset
from repro.engine.remote import EngineServer, RemoteBackend
from repro.engine.wire import decode_message, encode_message
from repro.optimizer.plans import plan_signature
from repro.storage.database import StorageDatabase
from repro.storage.table import Table

WORKLOADS = ("job_workload", "stack_workload", "tpcds_workload")

#: crc32 of each conftest workload's encoded catalog.
WIRE_CRCS = {
    "job_workload": "de2aa736",
    "stack_workload": "fb868736",
    "tpcds_workload": "f20cac0f",
}


def assert_same_catalog(got: Catalog, want: Catalog) -> None:
    schema, expected = got.schema, want.schema
    assert schema.table_names == expected.table_names
    for name in expected.table_names:
        assert schema.table(name).columns == expected.table(name).columns
    assert schema.foreign_keys == expected.foreign_keys
    assert got.dictionaries == want.dictionaries
    assert got.indexes == want.indexes
    assert got.fingerprint == want.fingerprint
    assert [stats.table_name for stats in got.statistics] == expected.table_names
    for stats in want.statistics:
        other = got.statistics.table(stats.table_name)
        assert other.row_count == stats.row_count
        assert list(other.columns) == list(stats.columns)
        for name, column in stats.columns.items():
            mine = other.columns[name]
            assert (mine.n_distinct, mine.min_value, mine.max_value) == (
                column.n_distinct, column.min_value, column.max_value,
            )
            for field in ("histogram_bounds", "mcv_values", "mcv_fractions"):
                array = getattr(mine, field)
                assert array.dtype == np.float64
                np.testing.assert_array_equal(array, getattr(column, field))


@pytest.mark.parametrize("name", WORKLOADS)
def test_catalog_round_trips_the_wire(request, name):
    catalog = request.getfixturevalue(name).database.catalog
    data = encode_message(catalog.to_wire())
    assert_same_catalog(Catalog.from_wire(decode_message(data)), catalog)


@pytest.mark.parametrize("name", WORKLOADS)
def test_wire_form_is_sorted_and_pinned(request, name):
    wire = request.getfixturevalue(name).database.catalog.to_wire()
    assert wire["indexes"] == sorted(wire["indexes"])
    assert f"{zlib.crc32(encode_message(wire)) & 0xFFFFFFFF:08x}" == WIRE_CRCS[name]


# ----------------------------------------------------------------------
# a string column, bound without rows
# ----------------------------------------------------------------------
LABELS = ["gold", "silver", "bronze", "silver", "gold", "tin"]


@pytest.fixture(scope="module")
def labelled_db():
    storage = StorageDatabase()
    storage.add_table(
        Table.from_arrays("medal", {"id": np.arange(len(LABELS)), "label": np.array(LABELS)})
    )
    storage.declare_index("medal", "id")
    schema = Schema([TableSchema("medal", [ColumnSchema("id", is_primary_key=True), ColumnSchema("label")])])
    return Database(Dataset(name="medals", schema=schema, storage=storage))


@pytest.fixture(scope="module")
def labelled_remote(labelled_db):
    with EngineServer(labelled_db) as server:
        server.start()
        with RemoteBackend(server.url, timeout_s=60.0) as client:
            yield client


def test_string_literals_bind_through_the_dictionary(labelled_db, labelled_remote):
    codes = labelled_db.catalog.dictionaries[("medal", "label")]
    assert codes == {"bronze": 0, "gold": 1, "silver": 2, "tin": 3}
    assert labelled_remote.catalog.dictionaries == labelled_db.catalog.dictionaries
    for backend in (labelled_db, labelled_remote):
        for literal, code in (("silver", 2), ("tin", 3), ("platinum", len(codes))):
            query = backend.sql(f"SELECT COUNT(*) FROM medal AS m WHERE m.label = '{literal}'")
            assert query.filters[0].values == (float(code),)
    # The server binds the same text to the same code, so the plans agree
    # and the answer counts the rows that hold the string.
    for literal, rows in (("silver", 2), ("platinum", 0)):
        sql = f"SELECT COUNT(*) FROM medal AS m WHERE m.label = '{literal}'"
        local, remote = labelled_db.sql(sql), labelled_remote.sql(sql)
        plan = labelled_remote.plan(remote).plan
        assert plan_signature(plan) == plan_signature(labelled_db.plan(local).plan)
        assert labelled_remote.execute(remote, plan).aggregate_values == (float(rows),)
