"""Cardinality estimation under uniformity/independence assumptions.

This is a faithful miniature of PostgreSQL's estimator: per-predicate
selectivities from MCVs + equi-depth histograms, combined multiplicatively
(independence), and equi-join selectivity ``1 / max(ndv_left, ndv_right)``
(uniform key distribution).  Both assumptions are violated by the planted
correlations and Zipf skew in the workload data — which is what gives the
plan-doctor headroom.
"""

from __future__ import annotations


import numpy as np

from repro.catalog.statistics import ColumnStatistics, StatisticsCatalog
from repro.sql.ast import FilterPredicate, JoinPredicate, Query

MIN_ROWS = 1.0


class CardinalityEstimator:
    """Estimates scan/join output cardinalities from catalog statistics."""

    def __init__(self, statistics: StatisticsCatalog) -> None:
        self._stats = statistics

    # ------------------------------------------------------------------
    # base statistics access
    # ------------------------------------------------------------------
    def base_rows(self, table: str) -> float:
        return float(self._stats.table(table).row_count)

    def column_stats(self, table: str, column: str) -> ColumnStatistics:
        stats = self._stats.table(table).column(column)
        if stats is None:
            raise KeyError(f"no statistics for {table}.{column}")
        return stats

    # ------------------------------------------------------------------
    # predicate selectivity
    # ------------------------------------------------------------------
    def filter_selectivity(self, query: Query, predicate: FilterPredicate) -> float:
        table = query.tables[predicate.column.alias]
        stats = self.column_stats(table, predicate.column.column)
        op = predicate.op
        if op == "=":
            return stats.selectivity_eq(predicate.value)
        if op == "<>":
            return max(0.0, 1.0 - stats.selectivity_eq(predicate.value))
        if op == "<":
            return stats.selectivity_range(None, predicate.value) - stats.selectivity_eq(predicate.value)
        if op == "<=":
            return stats.selectivity_range(None, predicate.value)
        if op == ">":
            return stats.selectivity_range(predicate.value, None) - stats.selectivity_eq(predicate.value)
        if op == ">=":
            return stats.selectivity_range(predicate.value, None)
        if op == "IN":
            return stats.selectivity_in(np.asarray(predicate.values))
        if op == "BETWEEN":
            low, high = predicate.values
            return stats.selectivity_range(low, high)
        raise ValueError(f"unsupported op {op!r}")

    def scan_selectivity(self, query: Query, alias: str) -> float:
        """Combined selectivity of all filters on ``alias`` (independence)."""
        selectivity = 1.0
        for predicate in query.filters_for(alias):
            selectivity *= max(0.0, min(1.0, self.filter_selectivity(query, predicate)))
        return selectivity

    def scan_rows(self, query: Query, alias: str) -> float:
        table = query.tables[alias]
        return max(MIN_ROWS, self.base_rows(table) * self.scan_selectivity(query, alias))

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def join_selectivity(self, query: Query, predicate: JoinPredicate) -> float:
        """Equi-join selectivity ``1/max(ndv_l, ndv_r)`` (PostgreSQL eqjoinsel)."""
        left_table = query.tables[predicate.left.alias]
        right_table = query.tables[predicate.right.alias]
        ndv_left = self.column_stats(left_table, predicate.left.column).n_distinct
        ndv_right = self.column_stats(right_table, predicate.right.column).n_distinct
        return 1.0 / max(ndv_left, ndv_right, 1.0)
