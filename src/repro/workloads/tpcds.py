"""TPC-DS-like workload: a snowflake schema with mostly uniform data.

19 templates x 6 queries (5 train / 1 test per template), mirroring the
paper's TPC-DS selection.  Data is kept close to uniform: the expert
optimizer's estimates are mostly right here, so learned optimizers have
little headroom — matching the paper, where FOSS only reaches ~1.15x on
TPC-DS while reaching 6-8x on JOB.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.catalog import datagen
from repro.catalog.schema import ColumnSchema, ForeignKey, Schema, TableSchema
from repro.engine.backend import EngineBackend
from repro.engine.database import Database, Dataset
from repro.storage.database import StorageDatabase
from repro.storage.table import Table
from repro.workloads.base import (
    FilterSlot,
    QueryTemplate,
    Workload,
    WorkloadSpec,
    instantiate_templates,
)

_TABLE_SIZES: Dict[str, int] = {
    "date_dim": 3_000,
    "time_dim": 2_000,
    "item": 6_000,
    "customer": 30_000,
    "customer_demographics": 5_000,
    "household_demographics": 2_000,
    "customer_address": 10_000,
    "store": 60,
    "promotion": 100,
    "warehouse": 20,
    "store_sales": 150_000,
    "catalog_sales": 100_000,
    "web_sales": 60_000,
    "inventory": 80_000,
}

_ALIASES: Dict[str, str] = {
    "date_dim": "d",
    "time_dim": "td",
    "item": "i",
    "customer": "c",
    "customer_demographics": "cd",
    "household_demographics": "hd",
    "customer_address": "ca",
    "store": "s",
    "promotion": "p",
    "warehouse": "w",
    "store_sales": "ss",
    "catalog_sales": "cs",
    "web_sales": "ws",
    "inventory": "inv",
}


def tpcds_schema() -> Schema:
    def table(name: str, *cols: ColumnSchema) -> TableSchema:
        return TableSchema(name=name, columns=[ColumnSchema("id", is_primary_key=True), *cols])

    tables = [
        table("date_dim", ColumnSchema("year"), ColumnSchema("moy"), ColumnSchema("dow")),
        table("time_dim", ColumnSchema("hour")),
        table("item", ColumnSchema("category"), ColumnSchema("brand"), ColumnSchema("class")),
        table(
            "customer",
            ColumnSchema("cdemo_id"),
            ColumnSchema("hdemo_id"),
            ColumnSchema("addr_id"),
            ColumnSchema("birth_year"),
        ),
        table(
            "customer_demographics",
            ColumnSchema("gender"),
            ColumnSchema("education"),
            ColumnSchema("marital_status"),
        ),
        table("household_demographics", ColumnSchema("income_band"), ColumnSchema("dep_count")),
        table("customer_address", ColumnSchema("state"), ColumnSchema("city"), ColumnSchema("gmt")),
        table("store", ColumnSchema("state"), ColumnSchema("market")),
        table("promotion", ColumnSchema("channel")),
        table("warehouse", ColumnSchema("state")),
        table(
            "store_sales",
            ColumnSchema("item_id"),
            ColumnSchema("customer_id"),
            ColumnSchema("store_id"),
            ColumnSchema("date_id"),
            ColumnSchema("time_id"),
            ColumnSchema("promo_id"),
            ColumnSchema("quantity"),
        ),
        table(
            "catalog_sales",
            ColumnSchema("item_id"),
            ColumnSchema("customer_id"),
            ColumnSchema("date_id"),
            ColumnSchema("promo_id"),
            ColumnSchema("warehouse_id"),
            ColumnSchema("quantity"),
        ),
        table(
            "web_sales",
            ColumnSchema("item_id"),
            ColumnSchema("customer_id"),
            ColumnSchema("date_id"),
            ColumnSchema("promo_id"),
            ColumnSchema("quantity"),
        ),
        table(
            "inventory",
            ColumnSchema("item_id"),
            ColumnSchema("warehouse_id"),
            ColumnSchema("date_id"),
            ColumnSchema("quantity_on_hand"),
        ),
    ]
    fk = ForeignKey
    foreign_keys = [
        fk("customer", "cdemo_id", "customer_demographics", "id"),
        fk("customer", "hdemo_id", "household_demographics", "id"),
        fk("customer", "addr_id", "customer_address", "id"),
        fk("store_sales", "item_id", "item", "id"),
        fk("store_sales", "customer_id", "customer", "id"),
        fk("store_sales", "store_id", "store", "id"),
        fk("store_sales", "date_id", "date_dim", "id"),
        fk("store_sales", "time_id", "time_dim", "id"),
        fk("store_sales", "promo_id", "promotion", "id"),
        fk("catalog_sales", "item_id", "item", "id"),
        fk("catalog_sales", "customer_id", "customer", "id"),
        fk("catalog_sales", "date_id", "date_dim", "id"),
        fk("catalog_sales", "promo_id", "promotion", "id"),
        fk("catalog_sales", "warehouse_id", "warehouse", "id"),
        fk("web_sales", "item_id", "item", "id"),
        fk("web_sales", "customer_id", "customer", "id"),
        fk("web_sales", "date_id", "date_dim", "id"),
        fk("web_sales", "promo_id", "promotion", "id"),
        fk("inventory", "item_id", "item", "id"),
        fk("inventory", "warehouse_id", "warehouse", "id"),
        fk("inventory", "date_id", "date_dim", "id"),
    ]
    return Schema(tables, foreign_keys)


def _table_specs(scale: float) -> List[datagen.TableSpec]:
    def rows(name: str) -> int:
        return max(4, int(_TABLE_SIZES[name] * scale))

    ts = datagen.TableSpec
    serial = datagen.SerialSpec
    cat = datagen.CategoricalSpec
    ufk = datagen.UniformFKSpec
    uni = datagen.UniformIntSpec

    return [
        ts("date_dim", rows("date_dim"), [
            serial("id"), uni("year", low=1998, high=2003),
            uni("moy", low=1, high=12), uni("dow", low=0, high=6),
        ]),
        ts("time_dim", rows("time_dim"), [serial("id"), uni("hour", low=0, high=23)]),
        ts("item", rows("item"), [
            serial("id"), cat("category", cardinality=20),
            cat("brand", cardinality=200), cat("class", cardinality=50),
        ]),
        ts("customer", rows("customer"), [
            serial("id"),
            ufk("cdemo_id", ref_size=rows("customer_demographics")),
            ufk("hdemo_id", ref_size=rows("household_demographics")),
            ufk("addr_id", ref_size=rows("customer_address")),
            uni("birth_year", low=1930, high=2000),
        ]),
        ts("customer_demographics", rows("customer_demographics"), [
            serial("id"), cat("gender", cardinality=3),
            cat("education", cardinality=7), cat("marital_status", cardinality=5),
        ]),
        ts("household_demographics", rows("household_demographics"), [
            serial("id"), cat("income_band", cardinality=20), cat("dep_count", cardinality=10),
        ]),
        ts("customer_address", rows("customer_address"), [
            serial("id"), cat("state", cardinality=50),
            cat("city", cardinality=300), cat("gmt", cardinality=10),
        ]),
        ts("store", rows("store"), [serial("id"), cat("state", cardinality=20), cat("market", cardinality=10)]),
        ts("promotion", rows("promotion"), [serial("id"), cat("channel", cardinality=5)]),
        ts("warehouse", rows("warehouse"), [serial("id"), cat("state", cardinality=20)]),
        ts("store_sales", rows("store_sales"), [
            serial("id"),
            ufk("item_id", ref_size=rows("item")),
            ufk("customer_id", ref_size=rows("customer")),
            ufk("store_id", ref_size=rows("store")),
            ufk("date_id", ref_size=rows("date_dim")),
            ufk("time_id", ref_size=rows("time_dim")),
            ufk("promo_id", ref_size=rows("promotion")),
            uni("quantity", low=1, high=100),
        ]),
        ts("catalog_sales", rows("catalog_sales"), [
            serial("id"),
            ufk("item_id", ref_size=rows("item")),
            ufk("customer_id", ref_size=rows("customer")),
            ufk("date_id", ref_size=rows("date_dim")),
            ufk("promo_id", ref_size=rows("promotion")),
            ufk("warehouse_id", ref_size=rows("warehouse")),
            uni("quantity", low=1, high=100),
        ]),
        ts("web_sales", rows("web_sales"), [
            serial("id"),
            ufk("item_id", ref_size=rows("item")),
            ufk("customer_id", ref_size=rows("customer")),
            ufk("date_id", ref_size=rows("date_dim")),
            ufk("promo_id", ref_size=rows("promotion")),
            uni("quantity", low=1, high=100),
        ]),
        ts("inventory", rows("inventory"), [
            serial("id"),
            ufk("item_id", ref_size=rows("item")),
            ufk("warehouse_id", ref_size=rows("warehouse")),
            ufk("date_id", ref_size=rows("date_dim")),
            uni("quantity_on_hand", low=0, high=500),
        ]),
    ]


# The 19 selected templates (paper's numbering: 3, 7, 12, 18, 20, 26, 27,
# 37, 42, 43, 50, 52, 55, 62, 82, 91, 96, 98, 99).  Each entry: the tables
# joined (star shapes around one fact table) and filter slots.
_TEMPLATE_TABLES: List[Tuple[str, List[str]]] = [
    ("q3", ["store_sales", "item", "date_dim"]),
    ("q7", ["store_sales", "customer", "customer_demographics", "date_dim", "item", "promotion"]),
    ("q12", ["web_sales", "item", "date_dim"]),
    ("q18", ["catalog_sales", "customer", "customer_demographics", "customer_address", "date_dim", "item"]),
    ("q20", ["catalog_sales", "item", "date_dim"]),
    ("q26", ["catalog_sales", "customer", "customer_demographics", "date_dim", "item", "promotion"]),
    ("q27", ["store_sales", "customer", "customer_demographics", "date_dim", "store", "item"]),
    ("q37", ["catalog_sales", "inventory", "item", "date_dim", "warehouse"]),
    ("q42", ["store_sales", "item", "date_dim"]),
    ("q43", ["store_sales", "store", "date_dim"]),
    ("q50", ["store_sales", "store", "date_dim", "customer"]),
    ("q52", ["store_sales", "item", "date_dim"]),
    ("q55", ["store_sales", "item", "date_dim"]),
    ("q62", ["web_sales", "customer", "date_dim", "item", "promotion"]),
    ("q82", ["store_sales", "inventory", "item", "date_dim", "warehouse"]),
    ("q91", ["catalog_sales", "customer", "customer_demographics", "household_demographics", "customer_address", "date_dim"]),
    ("q96", ["store_sales", "household_demographics", "time_dim", "store", "customer"]),
    ("q98", ["store_sales", "item", "date_dim"]),
    ("q99", ["catalog_sales", "warehouse", "date_dim", "item"]),
]

_FILTER_PROTOTYPES: Dict[str, List[Tuple[str, str, Dict]]] = {
    "date_dim": [
        ("year", "range", {"low": 1998, "high": 2003, "width": 1}),
        ("moy", "range", {"low": 1, "high": 12, "width": 2}),
    ],
    "item": [
        ("category", "eq", {"domain": 20}),
        ("brand", "in", {"domain": 200, "num_values": 4}),
        ("class", "eq", {"domain": 50}),
    ],
    "customer": [("birth_year", "range", {"low": 1930, "high": 2000, "width": 10})],
    "customer_demographics": [
        ("gender", "eq", {"domain": 3}),
        ("education", "eq", {"domain": 7}),
        ("marital_status", "eq", {"domain": 5}),
    ],
    "household_demographics": [("income_band", "eq", {"domain": 20}), ("dep_count", "eq", {"domain": 10})],
    "customer_address": [("state", "eq", {"domain": 50}), ("gmt", "eq", {"domain": 10})],
    "store": [("state", "eq", {"domain": 20})],
    "promotion": [("channel", "eq", {"domain": 5})],
    "warehouse": [("state", "eq", {"domain": 20})],
    "store_sales": [("quantity", "le", {"low": 1, "high": 100})],
    "catalog_sales": [("quantity", "le", {"low": 1, "high": 100})],
    "web_sales": [("quantity", "le", {"low": 1, "high": 100})],
    "inventory": [("quantity_on_hand", "le", {"low": 0, "high": 500})],
    "time_dim": [("hour", "range", {"low": 0, "high": 23, "width": 4})],
}


def _make_templates(schema: Schema) -> List[QueryTemplate]:
    templates = []
    for template_id, tables in _TEMPLATE_TABLES:
        alias_of = {t: _ALIASES[t] for t in tables}
        joins = []
        chosen = set(tables)
        for fk in schema.join_keys():
            if fk.table in chosen and fk.ref_table in chosen:
                joins.append(
                    (f"{alias_of[fk.table]}.{fk.column}", f"{alias_of[fk.ref_table]}.{fk.ref_column}")
                )
        slots = []
        for table in tables:
            for column, kind, kwargs in _FILTER_PROTOTYPES.get(table, []):
                slots.append(FilterSlot(alias=alias_of[table], column=column, kind=kind, **kwargs))
        templates.append(
            QueryTemplate(
                template_id=template_id,
                tables=[(alias_of[t], t) for t in tables],
                joins=joins,
                filter_slots=slots,
                min_filters=min(2, len(slots)),
            )
        )
    return templates


def build_tpcds_dataset(scale: float = 1.0, seed: int = 2) -> Dataset:
    schema = tpcds_schema()
    arrays = datagen.generate_tables(_table_specs(scale), seed=seed)
    storage = StorageDatabase()
    for name, columns in arrays.items():
        storage.add_table(Table.from_arrays(name, columns))
    for table in schema.table_names:
        storage.declare_index(table, "id")
    for fk in schema.foreign_keys:
        storage.declare_index(fk.table, fk.column)
    return Dataset(name="tpcds", schema=schema, storage=storage)


def build_tpcds_workload(
    scale: float = 1.0, seed: int = 2, backend: Optional[EngineBackend] = None
) -> Workload:
    """19 templates x 6 queries, 5 train / 1 test per template."""
    database = backend if backend is not None else Database(build_tpcds_dataset(scale=scale, seed=seed))
    templates = _make_templates(database.catalog.schema)
    queries = instantiate_templates(database, templates, [6] * len(templates), seed=seed + 50)
    train: List = []
    test: List = []
    for template in templates:
        group = [q for q in queries if q.template_id == template.template_id]
        train.extend(group[:5])
        test.extend(group[5:6])
    return Workload(
        name="tpcds",
        database=database,
        train=train,
        test=test,
        spec=WorkloadSpec(name="tpcds", scale=scale, seed=seed),
    )
