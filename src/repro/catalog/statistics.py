"""Table statistics for the cost-based optimizer.

Mirrors what PostgreSQL's ANALYZE collects: row counts, per-column NDV,
min/max, most-common values with frequencies, and an equi-depth histogram.
The cardinality estimator consumes these under the standard uniformity and
independence assumptions — which is precisely the source of the estimation
errors FOSS exists to repair.

Statistics are built from a random sample (like ANALYZE), so NDV and
histogram boundaries carry sampling error on skewed data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional

import numpy as np

from repro.storage.database import StorageDatabase

DEFAULT_HISTOGRAM_BINS = 16
DEFAULT_MCV_COUNT = 8
DEFAULT_SAMPLE_ROWS = 2_000


@dataclass
class ColumnStatistics:
    """ANALYZE output for one column."""

    n_distinct: float
    min_value: float
    max_value: float
    histogram_bounds: np.ndarray  # equi-depth bin edges (len = bins + 1)
    mcv_values: np.ndarray
    mcv_fractions: np.ndarray

    @property
    def mcv_total_fraction(self) -> float:
        return float(self.mcv_fractions.sum())

    def selectivity_eq(self, value: float) -> float:
        """Selectivity of ``col = value`` (PostgreSQL eqsel logic)."""
        position = np.searchsorted(self.mcv_values, value)
        if position < len(self.mcv_values) and self.mcv_values[position] == value:
            return float(self.mcv_fractions[position])
        remaining_fraction = max(0.0, 1.0 - self.mcv_total_fraction)
        remaining_distinct = max(1.0, self.n_distinct - len(self.mcv_values))
        if value < self.min_value or value > self.max_value:
            return 0.0
        return remaining_fraction / remaining_distinct

    def selectivity_range(self, low: Optional[float], high: Optional[float]) -> float:
        """Selectivity of ``low <= col <= high`` from the equi-depth histogram."""
        if len(self.histogram_bounds) < 2:
            return 1.0 / 3.0  # PostgreSQL's default range selectivity
        lo = self.min_value if low is None else low
        hi = self.max_value if high is None else high
        if hi < lo:
            return 0.0
        return max(0.0, self._cdf(hi) - self._cdf(lo))

    def _cdf(self, value: float) -> float:
        bounds = self.histogram_bounds
        bins = len(bounds) - 1
        if value <= bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            return 1.0
        bin_idx = int(np.searchsorted(bounds, value, side="right")) - 1
        bin_idx = min(bin_idx, bins - 1)
        left, right = bounds[bin_idx], bounds[bin_idx + 1]
        within = 0.0 if right == left else (value - left) / (right - left)
        # bounds are numpy scalars; estimates downstream stay python floats
        return float((bin_idx + within) / bins)

    def selectivity_in(self, values: np.ndarray) -> float:
        return float(min(1.0, sum(self.selectivity_eq(v) for v in np.unique(values))))


@dataclass
class TableStatistics:
    """ANALYZE output for one table."""

    table_name: str
    row_count: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStatistics]:
        return self.columns.get(name)


class StatisticsCatalog:
    """All table statistics, built by :meth:`analyze`; iteration yields them
    in table order."""

    def __init__(self, tables: Iterable[TableStatistics] = ()) -> None:
        self._tables: Dict[str, TableStatistics] = {stats.table_name: stats for stats in tables}

    def table(self, name: str) -> TableStatistics:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no statistics for table {name!r}; run analyze()") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[TableStatistics]:
        return iter(self._tables.values())

    @classmethod
    def analyze(
        cls,
        storage: StorageDatabase,
        sample_rows: int = DEFAULT_SAMPLE_ROWS,
        histogram_bins: int = DEFAULT_HISTOGRAM_BINS,
        mcv_count: int = DEFAULT_MCV_COUNT,
        seed: int = 31,
    ) -> "StatisticsCatalog":
        """Collect statistics for every table, sampling large tables."""
        rng = np.random.default_rng(seed)
        tables = []
        for name in storage.table_names:
            table = storage.table(name)
            stats = TableStatistics(table_name=name, row_count=table.num_rows)
            for col_name in table.column_names:
                values = table.column(col_name)
                if len(values) > sample_rows:
                    sample = values[rng.choice(len(values), size=sample_rows, replace=False)]
                else:
                    sample = values
                stats.columns[col_name] = _analyze_column(
                    sample,
                    total_rows=table.num_rows,
                    histogram_bins=histogram_bins,
                    mcv_count=mcv_count,
                )
            tables.append(stats)
        return cls(tables)


def _analyze_column(
    sample: np.ndarray,
    total_rows: int,
    histogram_bins: int,
    mcv_count: int,
) -> ColumnStatistics:
    """Build column statistics from a sample (ANALYZE's estimators)."""
    if len(sample) == 0:
        return ColumnStatistics(
            n_distinct=0.0,
            min_value=0.0,
            max_value=0.0,
            histogram_bounds=np.array([0.0, 0.0]),
            mcv_values=np.empty(0),
            mcv_fractions=np.empty(0),
        )
    values, counts = np.unique(sample, return_counts=True)
    sample_n = len(sample)
    distinct_in_sample = len(values)
    # Duj1 estimator (as PostgreSQL): scale distinct count when the sample
    # seems to keep producing new values.
    singletons = int((counts == 1).sum())
    if len(sample) >= total_rows or singletons == 0:
        n_distinct = float(distinct_in_sample)
    else:
        numerator = sample_n * distinct_in_sample
        denominator = sample_n - singletons + singletons * sample_n / total_rows
        n_distinct = float(min(total_rows, max(distinct_in_sample, numerator / max(denominator, 1e-9))))

    order = np.argsort(counts)[::-1]
    top = order[:mcv_count]
    # Keep values sorted for binary-search lookup in selectivity_eq.
    mcv_values = values[np.sort(top)]
    value_to_fraction = {v: c / sample_n for v, c in zip(values[top], counts[top])}
    mcv_fractions = np.array([value_to_fraction[v] for v in mcv_values])

    non_mcv = sample[~np.isin(sample, mcv_values)] if len(mcv_values) else sample
    hist_source = non_mcv if len(non_mcv) >= histogram_bins else sample
    quantiles = np.linspace(0.0, 1.0, histogram_bins + 1)
    histogram_bounds = np.quantile(hist_source, quantiles)

    return ColumnStatistics(
        n_distinct=n_distinct,
        min_value=float(values[0]),
        max_value=float(values[-1]),
        histogram_bounds=np.asarray(histogram_bounds, dtype=np.float64),
        mcv_values=np.asarray(mcv_values, dtype=np.float64),
        mcv_fractions=mcv_fractions,
    )
