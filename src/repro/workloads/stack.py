"""Stack-like workload: a StackExchange-shaped schema with heavy skew.

12 templates x 10 queries (8 train / 2 test per template), matching the
paper's Stack selection.  User activity is extremely Zipf-skewed (a few
users own most posts/badges/comments), which breaks uniform join-selectivity
estimates on the user/post foreign keys.
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
    "site": 10,
    "account": 15_000,
    "so_user": 30_000,
    "question": 60_000,
    "answer": 90_000,
    "tag": 2_000,
    "tag_question": 120_000,
    "badge": 50_000,
    "comment": 80_000,
    "post_link": 10_000,
}

_ALIASES: Dict[str, str] = {
    "site": "s",
    "account": "acc",
    "so_user": "u",
    "question": "q",
    "answer": "a",
    "tag": "t",
    "tag_question": "tq",
    "badge": "b",
    "comment": "c",
    "post_link": "pl",
}


def stack_schema() -> Schema:
    def table(name: str, *cols: ColumnSchema) -> TableSchema:
        return TableSchema(name=name, columns=[ColumnSchema("id", is_primary_key=True), *cols])

    tables = [
        table("site", ColumnSchema("site_name")),
        table("account", ColumnSchema("website_visits")),
        table(
            "so_user",
            ColumnSchema("account_id"),
            ColumnSchema("site_id"),
            ColumnSchema("reputation"),
            ColumnSchema("upvotes"),
        ),
        table(
            "question",
            ColumnSchema("site_id"),
            ColumnSchema("owner_user_id"),
            ColumnSchema("score"),
            ColumnSchema("view_count"),
            ColumnSchema("creation_year"),
        ),
        table(
            "answer",
            ColumnSchema("site_id"),
            ColumnSchema("question_id"),
            ColumnSchema("owner_user_id"),
            ColumnSchema("score"),
        ),
        table("tag", ColumnSchema("site_id"), ColumnSchema("name")),
        table("tag_question", ColumnSchema("tag_id"), ColumnSchema("question_id"), ColumnSchema("site_id")),
        table("badge", ColumnSchema("user_id"), ColumnSchema("site_id"), ColumnSchema("name")),
        table("comment", ColumnSchema("site_id"), ColumnSchema("post_id"), ColumnSchema("user_id")),
        table("post_link", ColumnSchema("site_id"), ColumnSchema("question_id"), ColumnSchema("link_type")),
    ]
    fk = ForeignKey
    foreign_keys = [
        fk("so_user", "account_id", "account", "id"),
        fk("so_user", "site_id", "site", "id"),
        fk("question", "site_id", "site", "id"),
        fk("question", "owner_user_id", "so_user", "id"),
        fk("answer", "question_id", "question", "id"),
        fk("answer", "owner_user_id", "so_user", "id"),
        fk("tag", "site_id", "site", "id"),
        fk("tag_question", "tag_id", "tag", "id"),
        fk("tag_question", "question_id", "question", "id"),
        fk("badge", "user_id", "so_user", "id"),
        fk("comment", "post_id", "question", "id"),
        fk("comment", "user_id", "so_user", "id"),
        fk("post_link", "question_id", "question", "id"),
    ]
    return Schema(tables, foreign_keys)


def _table_specs(scale: float) -> List[datagen.TableSpec]:
    def rows(name: str) -> int:
        return max(4, int(_TABLE_SIZES[name] * scale))

    ts = datagen.TableSpec
    pop = datagen.PopularityRankSpec
    serial = datagen.SerialSpec
    cat = datagen.CategoricalSpec
    zfk = datagen.ZipfFKSpec
    ufk = datagen.UniformFKSpec
    uni = datagen.UniformIntSpec

    n_user = rows("so_user")
    n_question = rows("question")

    return [
        ts("site", rows("site"), [serial("id"), cat("site_name", cardinality=10)]),
        ts("account", rows("account"), [serial("id"), uni("website_visits", low=0, high=1000)]),
        ts("so_user", n_user, [
            serial("id"),
            ufk("account_id", ref_size=rows("account")),
            cat("site_id", cardinality=rows("site"), zipf=1.4),
            # Reputation falls with popularity rank: user id 0 (the most
            # active poster, via unshuffled Zipf FKs) has the top score.
            pop("reputation", low=0, high=5_000, noise_std=120.0),
            pop("upvotes", low=0, high=2_000, noise_std=80.0),
        ]),
        ts("question", n_question, [
            serial("id"),
            cat("site_id", cardinality=rows("site"), zipf=1.4),
            zfk("owner_user_id", ref_size=n_user, skew=1.4, shuffle_ranks=False),
            pop("score", low=0, high=200, noise_std=8.0),
            pop("view_count", low=0, high=3_000, noise_std=100.0),
            datagen.NormalIntSpec("creation_year", mean=2016, std=3.5, low=2008, high=2023),
        ]),
        ts("answer", rows("answer"), [
            serial("id"),
            cat("site_id", cardinality=rows("site"), zipf=1.4),
            zfk("question_id", ref_size=n_question, skew=1.2, shuffle_ranks=False),
            zfk("owner_user_id", ref_size=n_user, skew=1.5, shuffle_ranks=False),
            cat("score", cardinality=150, zipf=1.7),
        ]),
        ts("tag", rows("tag"), [
            serial("id"),
            cat("site_id", cardinality=rows("site"), zipf=1.0),
            cat("name", cardinality=1_500, zipf=0.6),
        ]),
        ts("tag_question", rows("tag_question"), [
            serial("id"),
            zfk("tag_id", ref_size=rows("tag"), skew=1.3),
            zfk("question_id", ref_size=n_question, skew=1.1, shuffle_ranks=False),
            cat("site_id", cardinality=rows("site"), zipf=1.4),
        ]),
        ts("badge", rows("badge"), [
            serial("id"),
            zfk("user_id", ref_size=n_user, skew=1.5, shuffle_ranks=False),
            cat("site_id", cardinality=rows("site"), zipf=1.4),
            cat("name", cardinality=100, zipf=1.2),
        ]),
        ts("comment", rows("comment"), [
            serial("id"),
            cat("site_id", cardinality=rows("site"), zipf=1.4),
            zfk("post_id", ref_size=n_question, skew=1.2, shuffle_ranks=False),
            zfk("user_id", ref_size=n_user, skew=1.5, shuffle_ranks=False),
        ]),
        ts("post_link", rows("post_link"), [
            serial("id"),
            cat("site_id", cardinality=rows("site"), zipf=1.4),
            zfk("question_id", ref_size=n_question, skew=1.1, shuffle_ranks=False),
            cat("link_type", cardinality=3),
        ]),
    ]


# 12 templates (paper selection: 1, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16).
_TEMPLATE_TABLES: List[Tuple[str, List[str]]] = [
    ("q1", ["question", "so_user", "badge"]),
    ("q4", ["question", "tag_question", "tag", "site"]),
    ("q5", ["question", "answer", "so_user"]),
    ("q6", ["question", "tag_question", "tag", "answer"]),
    ("q7", ["question", "so_user", "account", "badge"]),
    ("q8", ["question", "answer", "so_user", "comment"]),
    ("q11", ["question", "tag_question", "tag", "so_user", "answer"]),
    ("q12", ["question", "comment", "so_user", "badge"]),
    ("q13", ["question", "post_link", "answer", "so_user"]),
    ("q14", ["question", "tag_question", "tag", "comment", "so_user"]),
    ("q15", ["question", "answer", "so_user", "account", "site"]),
    ("q16", ["question", "tag_question", "tag", "answer", "so_user", "badge"]),
]

_FILTER_PROTOTYPES: Dict[str, List[Tuple[str, str, Dict]]] = {
    "question": [
        ("creation_year", "range", {"low": 2008, "high": 2023, "width": 3}),
        ("score", "ge", {"low": 0, "high": 120}),
        ("view_count", "ge", {"low": 0, "high": 500}),
        ("site_id", "eq", {"domain": 10}),
    ],
    "answer": [("score", "ge", {"low": 0, "high": 30}), ("site_id", "eq", {"domain": 10})],
    "so_user": [
        ("reputation", "ge", {"low": 0, "high": 3500}),
        ("upvotes", "ge", {"low": 0, "high": 500}),
    ],
    "tag": [("name", "in", {"domain": 1500, "num_values": 5})],
    "badge": [("name", "eq", {"domain": 100})],
    "site": [("id", "eq", {"domain": 10})],
    "account": [("website_visits", "le", {"low": 0, "high": 1000})],
    "comment": [("site_id", "eq", {"domain": 10})],
    "post_link": [("link_type", "eq", {"domain": 3})],
    "tag_question": [],
}


def _make_templates(schema: Schema) -> List[QueryTemplate]:
    templates = []
    for template_id, tables in _TEMPLATE_TABLES:
        alias_of = {t: _ALIASES[t] for t in tables}
        chosen = set(tables)
        joins = []
        for fk in schema.join_keys():
            if fk.table in chosen and fk.ref_table in chosen:
                joins.append(
                    (f"{alias_of[fk.table]}.{fk.column}", f"{alias_of[fk.ref_table]}.{fk.ref_column}")
                )
        slots = []
        required = []
        for table in tables:
            for column, kind, kwargs in _FILTER_PROTOTYPES.get(table, []):
                # Popularity-correlated predicates appear in every instance.
                if (table, column) in (
                    ("question", "score"),
                    ("so_user", "reputation"),
                ):
                    required.append(len(slots))
                slots.append(FilterSlot(alias=alias_of[table], column=column, kind=kind, **kwargs))
        templates.append(
            QueryTemplate(
                template_id=template_id,
                tables=[(alias_of[t], t) for t in tables],
                joins=joins,
                filter_slots=slots,
                min_filters=min(1, len(slots)),
                required_slots=required,
            )
        )
    return templates


def build_stack_dataset(scale: float = 1.0, seed: int = 3) -> Dataset:
    schema = stack_schema()
    arrays = datagen.generate_tables(_table_specs(scale), seed=seed)
    storage = StorageDatabase()
    for name, columns in arrays.items():
        storage.add_table(Table.from_arrays(name, columns))
    for table in schema.table_names:
        storage.declare_index(table, "id")
    for fk in schema.foreign_keys:
        storage.declare_index(fk.table, fk.column)
    return Dataset(name="stack", schema=schema, storage=storage)


def build_stack_workload(
    scale: float = 1.0, seed: int = 3, backend: Optional[EngineBackend] = None
) -> Workload:
    """12 templates x 10 queries, 8 train / 2 test per template."""
    database = backend if backend is not None else Database(build_stack_dataset(scale=scale, seed=seed))
    templates = _make_templates(database.catalog.schema)
    queries = instantiate_templates(database, templates, [10] * len(templates), seed=seed + 50)
    train: List = []
    test: List = []
    for template in templates:
        group = [q for q in queries if q.template_id == template.template_id]
        train.extend(group[:8])
        test.extend(group[8:10])
    return Workload(
        name="stack",
        database=database,
        train=train,
        test=test,
        spec=WorkloadSpec(name="stack", scale=scale, seed=seed),
    )
