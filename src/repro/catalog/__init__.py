"""Catalog: logical schema, table statistics, the metadata snapshot
(:class:`Catalog`) the layers above the engine read, and synthetic data
generation."""

from repro.catalog.schema import ColumnSchema, ForeignKey, Schema, TableSchema
from repro.catalog.statistics import ColumnStatistics, StatisticsCatalog, TableStatistics
from repro.catalog.catalog import Catalog
from repro.catalog import datagen

__all__ = [
    "ColumnSchema",
    "TableSchema",
    "ForeignKey",
    "Schema",
    "ColumnStatistics",
    "TableStatistics",
    "StatisticsCatalog",
    "Catalog",
    "datagen",
]
