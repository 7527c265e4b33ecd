"""Storage (tables, indexes) and catalog (schema, stats, datagen) tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_dp import schema_join_graph
from repro.catalog import datagen
from repro.catalog.schema import ColumnSchema, ForeignKey, Schema, TableSchema
from repro.catalog.statistics import StatisticsCatalog, _analyze_column
from repro.storage.database import StorageDatabase
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.table import Table


class TestTable:
    def test_from_arrays_numeric(self):
        table = Table.from_arrays("t", {"a": np.arange(5), "b": np.arange(5) * 2.0})
        assert table.num_rows == 5
        assert set(table.column_names) == {"a", "b"}

    def test_from_arrays_dictionary_encodes_strings(self):
        table = Table.from_arrays("t", {"s": np.array(["x", "y", "x"])})
        codes = table.column("s")
        assert codes.dtype == np.int64
        data = table.column_data("s")
        assert data.decode(codes[0]) == "x"
        assert data.decode(codes[2]) == "x"

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            Table.from_arrays("t", {"a": np.arange(3), "b": np.arange(4)})

    def test_unknown_column_raises(self):
        table = Table.from_arrays("t", {"a": np.arange(3)})
        with pytest.raises(KeyError):
            table.column("b")

    def test_gather(self):
        table = Table.from_arrays("t", {"a": np.array([10, 20, 30])})
        np.testing.assert_array_equal(table.gather("a", np.array([2, 0])), [30, 10])


class TestSortedIndex:
    def test_lookup_eq(self):
        values = np.array([3, 1, 3, 2])
        index = SortedIndex(values)
        assert sorted(index.lookup_eq(3)) == [0, 2]
        assert list(index.lookup_eq(99)) == []

    def test_lookup_range_inclusive_exclusive(self):
        index = SortedIndex(np.array([1, 2, 3, 4, 5]))
        assert sorted(index.lookup_range(2, 4)) == [1, 2, 3]
        assert sorted(index.lookup_range(2, 4, low_inclusive=False, high_inclusive=False)) == [2]

    def test_lookup_range_open_ended(self):
        index = SortedIndex(np.array([1, 2, 3]))
        assert sorted(index.lookup_range(None, 2)) == [0, 1]
        assert sorted(index.lookup_range(2, None)) == [1, 2]

    def test_lookup_in(self):
        index = SortedIndex(np.array([5, 6, 7, 5]))
        assert sorted(index.lookup_in(np.array([5, 7]))) == [0, 2, 3]

    def test_lookup_batch_alignment(self):
        index = SortedIndex(np.array([1, 2, 2, 3]))
        probe_idx, row_ids = index.lookup_batch(np.array([2, 9, 1]))
        # key 2 matches rows {1,2}, key 9 nothing, key 1 row 0
        assert list(probe_idx) == [0, 0, 2]
        assert sorted(row_ids[:2]) == [1, 2]
        assert row_ids[2] == 0

    def test_hash_index_matches_sorted(self):
        values = np.random.default_rng(0).integers(0, 10, size=100)
        sorted_index = SortedIndex(values)
        hash_index = HashIndex(values)
        for key in range(10):
            assert sorted(hash_index.lookup_eq(key)) == sorted(sorted_index.lookup_eq(key))


class TestStorageDatabase:
    def test_index_declared_and_built_lazily(self):
        db = StorageDatabase()
        db.add_table(Table.from_arrays("t", {"a": np.arange(4)}))
        db.declare_index("t", "a")
        assert db.has_index("t", "a")
        assert not db.has_index("t", "b")
        assert sorted(db.index("t", "a").lookup_eq(2)) == [2]

    def test_undeclared_index_raises(self):
        db = StorageDatabase()
        db.add_table(Table.from_arrays("t", {"a": np.arange(4)}))
        with pytest.raises(KeyError):
            db.index("t", "a")

    def test_duplicate_table_raises(self):
        db = StorageDatabase()
        db.add_table(Table.from_arrays("t", {"a": np.arange(4)}))
        with pytest.raises(ValueError):
            db.add_table(Table.from_arrays("t", {"a": np.arange(4)}))


class TestSchema:
    def test_join_graph_edges(self):
        schema = Schema(
            tables=[
                TableSchema("a", [ColumnSchema("id", is_primary_key=True)]),
                TableSchema("b", [ColumnSchema("id", is_primary_key=True), ColumnSchema("a_id")]),
            ],
            foreign_keys=[ForeignKey("b", "a_id", "a", "id")],
        )
        graph = schema_join_graph(schema)
        assert graph.has_edge("a", "b")
        assert schema.join_columns("b", "a") == ("a_id", "id")
        assert schema.join_columns("a", "b") == ("id", "a_id")

    @staticmethod
    def assert_adjacency_matches_graph(schema):
        graph = schema_join_graph(schema)
        assert schema.table_names == list(graph.nodes)
        for table in schema.table_names:
            assert schema.neighbors(table) == list(graph.neighbors(table))
        assert schema.join_keys() == [data["fk"] for _, _, data in graph.edges(data=True)]

    def test_adjacency_iterates_like_the_networkx_graph(self):
        """The workload generators read ``neighbors`` / ``join_keys``; their
        output is pinned to the order ``join_graph()`` used to give them."""
        tables = [
            TableSchema(name, [ColumnSchema("id", is_primary_key=True), ColumnSchema("x"), ColumnSchema("y")])
            for name in ("c", "a", "d", "b", "lonely")
        ]
        schema = Schema(
            tables,
            foreign_keys=[
                ForeignKey("b", "x", "a", "id"),
                ForeignKey("d", "x", "c", "id"),
                ForeignKey("a", "x", "c", "id"),
                ForeignKey("a", "y", "b", "id"),   # second key of a pair, reversed: replaces in place
                ForeignKey("d", "y", "d", "id"),   # self reference
                ForeignKey("b", "y", "d", "id"),
            ],
        )
        self.assert_adjacency_matches_graph(schema)
        assert [(fk.table, fk.column) for fk in schema.join_keys()] == [
            ("d", "x"), ("a", "x"), ("a", "y"), ("d", "y"), ("b", "y")
        ]
        assert schema.neighbors("lonely") == []

    @pytest.mark.parametrize("name", ["job_workload", "stack_workload", "tpcds_workload"])
    def test_adjacency_matches_graph_on_workload_schemas(self, request, name):
        self.assert_adjacency_matches_graph(request.getfixturevalue(name).database.catalog.schema)

    def test_fk_validation(self):
        with pytest.raises(KeyError):
            Schema(
                tables=[TableSchema("a", [ColumnSchema("id")])],
                foreign_keys=[ForeignKey("a", "id", "missing", "id")],
            )

    def test_duplicate_column_raises(self):
        with pytest.raises(ValueError):
            TableSchema("a", [ColumnSchema("x"), ColumnSchema("x")])

    def test_bad_dtype_raises(self):
        with pytest.raises(ValueError):
            ColumnSchema("x", dtype="text")


class TestStatistics:
    def test_eq_selectivity_mcv_exact(self):
        # Value 0 dominates; MCV should capture its frequency exactly.
        sample = np.concatenate([np.zeros(900), np.arange(1, 101)])
        stats = _analyze_column(sample, total_rows=1000, histogram_bins=8, mcv_count=4)
        assert stats.selectivity_eq(0.0) == pytest.approx(0.9)

    def test_eq_selectivity_out_of_range_zero(self):
        stats = _analyze_column(np.arange(100.0), total_rows=100, histogram_bins=8, mcv_count=4)
        assert stats.selectivity_eq(-5.0) == 0.0
        assert stats.selectivity_eq(1000.0) == 0.0

    def test_range_selectivity_uniform(self):
        stats = _analyze_column(np.arange(1000.0), total_rows=1000, histogram_bins=10, mcv_count=0)
        assert stats.selectivity_range(0, 499) == pytest.approx(0.5, abs=0.05)
        assert stats.selectivity_range(None, None) == pytest.approx(1.0, abs=0.01)

    def test_range_empty_interval(self):
        stats = _analyze_column(np.arange(100.0), total_rows=100, histogram_bins=8, mcv_count=0)
        assert stats.selectivity_range(50, 40) == 0.0

    def test_ndv_estimator_close_for_uniform(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 50, size=5000)
        stats = _analyze_column(values, total_rows=5000, histogram_bins=8, mcv_count=4)
        assert 40 <= stats.n_distinct <= 60

    def test_analyze_catalog_covers_all_tables(self):
        db = StorageDatabase()
        db.add_table(Table.from_arrays("t1", {"a": np.arange(10)}))
        db.add_table(Table.from_arrays("t2", {"b": np.arange(20)}))
        catalog = StatisticsCatalog.analyze(db)
        assert catalog.table("t1").row_count == 10
        assert catalog.table("t2").column("b") is not None
        assert "t3" not in catalog


class TestDatagen:
    def test_zipf_weights_normalized_and_decreasing(self):
        weights = datagen.zipf_weights(100, 1.2)
        assert weights.sum() == pytest.approx(1.0)
        assert (np.diff(weights) <= 0).all()

    def test_serial_spec(self):
        spec = datagen.SerialSpec("id")
        out = spec.generate(5, np.random.default_rng(0), {})
        np.testing.assert_array_equal(out, np.arange(5))

    def test_zipf_fk_unshuffled_popularity_at_zero(self):
        spec = datagen.ZipfFKSpec("fk", ref_size=100, skew=1.5, shuffle_ranks=False)
        out = spec.generate(10_000, np.random.default_rng(0), {})
        counts = np.bincount(out, minlength=100)
        assert counts[0] == counts.max()

    def test_correlated_spec_follows_mapping(self):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 10, size=5000)
        spec = datagen.CorrelatedSpec(
            "c", base_column="b", base_domain=10, cardinality=7, noise=0.0, mapping_seed=3
        )
        out = spec.generate(5000, rng, {"b": base})
        mapping = datagen.correlation_mapping(3, 10, 7)
        np.testing.assert_array_equal(out, mapping[base])

    def test_correlated_requires_base(self):
        spec = datagen.CorrelatedSpec("c", base_column="b")
        with pytest.raises(KeyError):
            spec.generate(10, np.random.default_rng(0), {})

    def test_popularity_rank_descending(self):
        spec = datagen.PopularityRankSpec("r", low=0, high=100, noise_std=0.0)
        out = spec.generate(101, np.random.default_rng(0), {})
        assert out[0] == 100 and out[-1] == 0

    def test_generate_tables_deterministic(self):
        specs = [datagen.TableSpec("t", 50, [datagen.SerialSpec("id"), datagen.CategoricalSpec("c", cardinality=5)])]
        a = datagen.generate_tables(specs, seed=9)
        b = datagen.generate_tables(specs, seed=9)
        np.testing.assert_array_equal(a["t"]["c"], b["t"]["c"])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=500), skew=st.floats(min_value=0.1, max_value=3.0))
def test_zipf_weights_property(n, skew):
    weights = datagen.zipf_weights(n, skew)
    assert len(weights) == n
    assert weights.sum() == pytest.approx(1.0)
    assert (weights > 0).all()


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=300))
def test_sorted_index_eq_matches_linear_scan(values):
    arr = np.array(values)
    index = SortedIndex(arr)
    probe = values[0]
    expected = sorted(np.flatnonzero(arr == probe))
    assert sorted(index.lookup_eq(probe)) == expected
