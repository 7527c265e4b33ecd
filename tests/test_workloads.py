"""Workload-construction tests: schemas, counts, splits, planted hazards."""

import numpy as np
import pytest

from repro.workloads.base import build_workload_by_name
from repro.workloads.job import job_schema
from repro.workloads.stack import stack_schema
from repro.workloads.tpcds import tpcds_schema


class TestJobWorkload:
    def test_schema_has_21_relations(self):
        assert len(job_schema()) == 21

    def test_query_counts_match_paper(self, job_workload):
        # 113 queries, 94 train / 19 test (Balsa's random split).
        assert len(job_workload.train) == 94
        assert len(job_workload.test) == 19

    def test_33_templates(self, job_workload):
        assert len(job_workload.queries_by_template()) == 33

    def test_join_count_range_matches_paper(self, job_workload):
        """JOB queries have 3..16 joins (4..17 tables), mean ~8 joins."""
        joins = [wq.query.num_tables - 1 for wq in job_workload.all_queries]
        assert min(joins) >= 3
        assert max(joins) == 16
        assert 6.0 <= np.mean(joins) <= 10.0

    def test_queries_bind_and_plan(self, job_workload):
        db = job_workload.database
        for wq in job_workload.all_queries[:15]:
            plan = db.plan(wq.query).plan
            assert plan.est_costs[-1] > 0

    def test_deterministic_rebuild(self):
        a = build_workload_by_name("job", scale=0.02, seed=9)
        b = build_workload_by_name("job", scale=0.02, seed=9)
        assert [q.sql for q in a.all_queries] == [q.sql for q in b.all_queries]
        ta = a.database.storage.table("title")
        tb = b.database.storage.table("title")
        np.testing.assert_array_equal(ta.column("production_year"), tb.column("production_year"))

    def test_scale_changes_sizes(self):
        small = build_workload_by_name("job", scale=0.02, seed=9)
        big = build_workload_by_name("job", scale=0.04, seed=9)
        assert big.database.storage.total_rows() > small.database.storage.total_rows()

    def test_popularity_correlation_planted(self, job_workload):
        """Old titles (low ids) must receive most cast_info references."""
        storage = job_workload.database.storage
        movie_ids = storage.table("cast_info").column("movie_id")
        n_title = storage.table("title").num_rows
        top_decile_refs = (movie_ids < n_title // 10).mean()
        assert top_decile_refs > 0.3  # far above the uniform 10%


class TestTpcdsWorkload:
    def test_query_counts(self, tpcds_workload):
        # 19 templates x 6 queries, 5 train / 1 test per template.
        assert len(tpcds_workload.train) == 95
        assert len(tpcds_workload.test) == 19
        assert len(tpcds_workload.queries_by_template()) == 19

    def test_templates_match_paper_selection(self, tpcds_workload):
        expected = {f"q{n}" for n in (3, 7, 12, 18, 20, 26, 27, 37, 42, 43,
                                      50, 52, 55, 62, 82, 91, 96, 98, 99)}
        assert set(tpcds_workload.queries_by_template()) == expected

    def test_all_queries_plan(self, tpcds_workload):
        db = tpcds_workload.database
        for wq in tpcds_workload.all_queries[:10]:
            assert db.plan(wq.query).plan.est_costs[-1] > 0

    def test_schema_exists(self):
        assert "store_sales" in tpcds_schema().table_names


class TestStackWorkload:
    def test_query_counts(self, stack_workload):
        # 12 templates x 10 queries, 8 train / 2 test per template.
        assert len(stack_workload.train) == 96
        assert len(stack_workload.test) == 24
        assert len(stack_workload.queries_by_template()) == 12

    def test_templates_match_paper_selection(self, stack_workload):
        expected = {f"q{n}" for n in (1, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16)}
        assert set(stack_workload.queries_by_template()) == expected

    def test_heavy_user_skew_planted(self, stack_workload):
        storage = stack_workload.database.storage
        owners = storage.table("question").column("owner_user_id")
        n_users = storage.table("so_user").num_rows
        top_percentile = (owners < max(n_users // 100, 1)).mean()
        assert top_percentile > 0.10  # >10% of questions from top 1% users

    def test_schema_exists(self):
        assert "so_user" in stack_schema().table_names


class TestDispatch:
    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError):
            build_workload_by_name("tpch")

    def test_dispatch_by_name(self):
        workload = build_workload_by_name("JOB", scale=0.02, seed=4)
        assert workload.name == "job"
