"""JOB-like workload: an IMDb-shaped schema with planted skew/correlation.

21 relations mirroring the IMDb schema used by the Join Order Benchmark,
33 query templates and 113 queries (94 train / 19 test, random split as in
Balsa).  Data sizes are laptop-scale; ``scale`` shrinks or grows every
table proportionally.

The generators plant exactly the estimation hazards that make JOB hard:
Zipf-skewed foreign keys into ``title``/``name`` and correlated attribute
pairs (``movie_info.info`` ~ ``info_type_id``, ``cast_info.note`` ~
``role_id``, ``title.production_year`` ~ ``kind_id``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

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
    random_connected_subgraph,
    split_train_test,
)

# (alias, rows at scale=1.0)
_TABLE_SIZES: Dict[str, int] = {
    "kind_type": 7,
    "company_type": 4,
    "comp_cast_type": 4,
    "link_type": 18,
    "role_type": 12,
    "info_type": 113,
    "title": 40_000,
    "name": 50_000,
    "char_name": 30_000,
    "company_name": 8_000,
    "keyword": 12_000,
    "aka_name": 20_000,
    "aka_title": 15_000,
    "person_info": 60_000,
    "movie_companies": 80_000,
    "movie_info": 100_000,
    "movie_info_idx": 40_000,
    "movie_keyword": 90_000,
    "movie_link": 8_000,
    "cast_info": 150_000,
    "complete_cast": 15_000,
}

_ALIASES: Dict[str, str] = {
    "kind_type": "kt",
    "company_type": "ct",
    "comp_cast_type": "cct",
    "link_type": "lt",
    "role_type": "rt",
    "info_type": "it",
    "title": "t",
    "name": "n",
    "char_name": "chn",
    "company_name": "cn",
    "keyword": "k",
    "aka_name": "an",
    "aka_title": "at",
    "person_info": "pi",
    "movie_companies": "mc",
    "movie_info": "mi",
    "movie_info_idx": "mi_idx",
    "movie_keyword": "mk",
    "movie_link": "ml",
    "cast_info": "ci",
    "complete_cast": "cc",
}


def job_schema() -> Schema:
    """The 21-relation IMDb-like logical schema."""
    def table(name: str, *cols: ColumnSchema) -> TableSchema:
        return TableSchema(name=name, columns=[ColumnSchema("id", is_primary_key=True), *cols])

    tables = [
        table("kind_type", ColumnSchema("kind")),
        table("company_type", ColumnSchema("kind")),
        table("comp_cast_type", ColumnSchema("kind")),
        table("link_type", ColumnSchema("link")),
        table("role_type", ColumnSchema("role")),
        table("info_type", ColumnSchema("info")),
        table(
            "title",
            ColumnSchema("kind_id"),
            ColumnSchema("production_year"),
            ColumnSchema("phonetic_code"),
            ColumnSchema("season_nr"),
        ),
        table("name", ColumnSchema("gender"), ColumnSchema("name_pcode")),
        table("char_name", ColumnSchema("name_pcode")),
        table("company_name", ColumnSchema("country_code"), ColumnSchema("name_pcode")),
        table("keyword", ColumnSchema("phonetic_code")),
        table("aka_name", ColumnSchema("person_id"), ColumnSchema("name_pcode")),
        table("aka_title", ColumnSchema("movie_id"), ColumnSchema("kind_id")),
        table("person_info", ColumnSchema("person_id"), ColumnSchema("info_type_id")),
        table(
            "movie_companies",
            ColumnSchema("movie_id"),
            ColumnSchema("company_id"),
            ColumnSchema("company_type_id"),
        ),
        table(
            "movie_info",
            ColumnSchema("movie_id"),
            ColumnSchema("info_type_id"),
            ColumnSchema("info"),
        ),
        table(
            "movie_info_idx",
            ColumnSchema("movie_id"),
            ColumnSchema("info_type_id"),
            ColumnSchema("info"),
        ),
        table("movie_keyword", ColumnSchema("movie_id"), ColumnSchema("keyword_id")),
        table(
            "movie_link",
            ColumnSchema("movie_id"),
            ColumnSchema("linked_movie_id"),
            ColumnSchema("link_type_id"),
        ),
        table(
            "cast_info",
            ColumnSchema("movie_id"),
            ColumnSchema("person_id"),
            ColumnSchema("person_role_id"),
            ColumnSchema("role_id"),
            ColumnSchema("note"),
        ),
        table(
            "complete_cast",
            ColumnSchema("movie_id"),
            ColumnSchema("subject_id"),
            ColumnSchema("status_id"),
        ),
    ]
    fk = ForeignKey
    foreign_keys = [
        fk("title", "kind_id", "kind_type", "id"),
        fk("aka_title", "movie_id", "title", "id"),
        fk("aka_title", "kind_id", "kind_type", "id"),
        fk("aka_name", "person_id", "name", "id"),
        fk("person_info", "person_id", "name", "id"),
        fk("person_info", "info_type_id", "info_type", "id"),
        fk("movie_companies", "movie_id", "title", "id"),
        fk("movie_companies", "company_id", "company_name", "id"),
        fk("movie_companies", "company_type_id", "company_type", "id"),
        fk("movie_info", "movie_id", "title", "id"),
        fk("movie_info", "info_type_id", "info_type", "id"),
        fk("movie_info_idx", "movie_id", "title", "id"),
        fk("movie_info_idx", "info_type_id", "info_type", "id"),
        fk("movie_keyword", "movie_id", "title", "id"),
        fk("movie_keyword", "keyword_id", "keyword", "id"),
        fk("movie_link", "movie_id", "title", "id"),
        fk("movie_link", "link_type_id", "link_type", "id"),
        fk("cast_info", "movie_id", "title", "id"),
        fk("cast_info", "person_id", "name", "id"),
        fk("cast_info", "person_role_id", "char_name", "id"),
        fk("cast_info", "role_id", "role_type", "id"),
        fk("complete_cast", "movie_id", "title", "id"),
        fk("complete_cast", "subject_id", "comp_cast_type", "id"),
        fk("complete_cast", "status_id", "comp_cast_type", "id"),
    ]
    return Schema(tables, foreign_keys)


def _table_specs(scale: float) -> List[datagen.TableSpec]:
    """Column generators for every table, skew and correlations included."""
    def rows(name: str) -> int:
        return max(4, int(_TABLE_SIZES[name] * scale))

    ts = datagen.TableSpec
    serial = datagen.SerialSpec
    cat = datagen.CategoricalSpec
    zfk = datagen.ZipfFKSpec
    ufk = datagen.UniformFKSpec
    corr = datagen.CorrelatedSpec
    derived = datagen.DerivedSpec

    n_title = rows("title")
    n_name = rows("name")

    # Popularity correlation: movie FKs use *unshuffled* Zipf ranks, so
    # id 0 is the most-referenced title.  production_year rises with id
    # (old titles are the popular classics), so year predicates silently
    # select popular or unpopular movies and break the estimator's uniform
    # join-frequency assumption.
    pop = datagen.PopularityRankSpec

    return [
        ts("kind_type", rows("kind_type"), [serial("id"), cat("kind", cardinality=7)]),
        ts("company_type", rows("company_type"), [serial("id"), cat("kind", cardinality=4)]),
        ts("comp_cast_type", rows("comp_cast_type"), [serial("id"), cat("kind", cardinality=4)]),
        ts("link_type", rows("link_type"), [serial("id"), cat("link", cardinality=18)]),
        ts("role_type", rows("role_type"), [serial("id"), cat("role", cardinality=12)]),
        ts("info_type", rows("info_type"), [serial("id"), cat("info", cardinality=113)]),
        ts(
            "title",
            n_title,
            [
                serial("id"),
                cat("kind_id", cardinality=7, zipf=1.0),
                pop("production_year", low=1880, high=2020, noise_std=7.0, descending=False),
                pop("phonetic_code", low=0, high=299, noise_std=25.0),
                cat("season_nr", cardinality=30, zipf=1.2),
            ],
        ),
        ts(
            "name",
            n_name,
            [
                serial("id"),
                cat("gender", cardinality=3, zipf=0.7),
                pop("name_pcode", low=0, high=799, noise_std=40.0),
            ],
        ),
        ts("char_name", rows("char_name"), [serial("id"), cat("name_pcode", cardinality=600)]),
        ts(
            "company_name",
            rows("company_name"),
            [serial("id"), cat("country_code", cardinality=60, zipf=1.3), cat("name_pcode", cardinality=500)],
        ),
        ts("keyword", rows("keyword"), [serial("id"), cat("phonetic_code", cardinality=400, zipf=0.6)]),
        ts(
            "aka_name",
            rows("aka_name"),
            [serial("id"), zfk("person_id", ref_size=n_name, skew=1.35, shuffle_ranks=False), cat("name_pcode", cardinality=800)],
        ),
        ts(
            "aka_title",
            rows("aka_title"),
            [serial("id"), zfk("movie_id", ref_size=n_title, skew=1.35, shuffle_ranks=False), cat("kind_id", cardinality=7, zipf=1.0)],
        ),
        ts(
            "person_info",
            rows("person_info"),
            [
                serial("id"),
                zfk("person_id", ref_size=n_name, skew=1.35, shuffle_ranks=False),
                cat("info_type_id", cardinality=113, zipf=1.1),
            ],
        ),
        ts(
            "movie_companies",
            rows("movie_companies"),
            [
                serial("id"),
                zfk("movie_id", ref_size=n_title, skew=1.25, shuffle_ranks=False),
                zfk("company_id", ref_size=rows("company_name"), skew=1.4),
                cat("company_type_id", cardinality=4, zipf=0.9),
            ],
        ),
        ts(
            "movie_info",
            rows("movie_info"),
            [
                serial("id"),
                zfk("movie_id", ref_size=n_title, skew=1.25, shuffle_ranks=False),
                cat("info_type_id", cardinality=113, zipf=1.1),
                corr("info", base_column="info_type_id", base_domain=113, cardinality=500, noise=0.05, mapping_seed=11),
            ],
        ),
        ts(
            "movie_info_idx",
            rows("movie_info_idx"),
            [
                serial("id"),
                zfk("movie_id", ref_size=n_title, skew=1.2, shuffle_ranks=False),
                cat("info_type_id", cardinality=113, zipf=1.3),
                corr("info", base_column="info_type_id", base_domain=113, cardinality=100, noise=0.08, mapping_seed=13),
            ],
        ),
        ts(
            "movie_keyword",
            rows("movie_keyword"),
            [
                serial("id"),
                zfk("movie_id", ref_size=n_title, skew=1.25, shuffle_ranks=False),
                zfk("keyword_id", ref_size=rows("keyword"), skew=1.3),
            ],
        ),
        ts(
            "movie_link",
            rows("movie_link"),
            [
                serial("id"),
                zfk("movie_id", ref_size=n_title, skew=1.2, shuffle_ranks=False),
                datagen.UniformFKSpec("linked_movie_id", ref_size=n_title),
                cat("link_type_id", cardinality=18, zipf=0.8),
            ],
        ),
        ts(
            "cast_info",
            rows("cast_info"),
            [
                serial("id"),
                zfk("movie_id", ref_size=n_title, skew=1.35, shuffle_ranks=False),
                zfk("person_id", ref_size=n_name, skew=1.35, shuffle_ranks=False),
                ufk("person_role_id", ref_size=rows("char_name")),
                cat("role_id", cardinality=12, zipf=1.1),
                corr("note", base_column="role_id", base_domain=12, cardinality=40, noise=0.1, mapping_seed=17),
            ],
        ),
        ts(
            "complete_cast",
            rows("complete_cast"),
            [
                serial("id"),
                zfk("movie_id", ref_size=n_title, skew=1.2, shuffle_ranks=False),
                cat("subject_id", cardinality=4, zipf=0.5),
                cat("status_id", cardinality=4, zipf=0.5),
            ],
        ),
    ]


# Per-table filterable-column prototypes: (column, kind, kwargs)
_FILTER_PROTOTYPES: Dict[str, List[Tuple[str, str, Dict]]] = {
    "title": [
        ("production_year", "range", {"low": 1880, "high": 2020, "width": 45}),
        ("kind_id", "eq", {"domain": 7}),
        ("season_nr", "le", {"low": 0, "high": 29}),
    ],
    "name": [
        ("gender", "eq", {"domain": 3}),
        ("name_pcode", "in", {"domain": 800, "num_values": 4}),
    ],
    "char_name": [("name_pcode", "in", {"domain": 600, "num_values": 4})],
    "company_name": [
        ("country_code", "eq", {"domain": 60}),
        ("name_pcode", "in", {"domain": 500, "num_values": 4}),
    ],
    "keyword": [("phonetic_code", "in", {"domain": 400, "num_values": 5})],
    "info_type": [("id", "eq", {"domain": 113})],
    "kind_type": [("id", "eq", {"domain": 7})],
    "company_type": [("id", "eq", {"domain": 4})],
    "role_type": [("id", "eq", {"domain": 12})],
    "link_type": [("id", "eq", {"domain": 18})],
    "comp_cast_type": [("id", "eq", {"domain": 4})],
    "movie_info": [
        ("info_type_id", "corr_pair",
         {"domain": 113, "column2": "info", "domain2": 500, "mapping_seed": 11, "base_zipf": 1.1}),
        ("info", "in", {"domain": 500, "num_values": 4}),
    ],
    "movie_info_idx": [
        ("info_type_id", "corr_pair",
         {"domain": 113, "column2": "info", "domain2": 100, "mapping_seed": 13, "base_zipf": 1.3}),
        ("info", "le", {"low": 0, "high": 99}),
    ],
    "cast_info": [
        ("role_id", "corr_pair",
         {"domain": 12, "column2": "note", "domain2": 40, "mapping_seed": 17, "base_zipf": 1.1}),
        ("note", "eq", {"domain": 40}),
    ],
    "movie_companies": [("company_type_id", "eq", {"domain": 4})],
    "aka_title": [("kind_id", "eq", {"domain": 7})],
    "aka_name": [("name_pcode", "in", {"domain": 800, "num_values": 4})],
    "person_info": [("info_type_id", "eq", {"domain": 113})],
    "complete_cast": [
        ("subject_id", "eq", {"domain": 4}),
        ("status_id", "eq", {"domain": 4}),
    ],
    "movie_link": [("link_type_id", "eq", {"domain": 18})],
    "movie_keyword": [],
}


def _make_templates(schema: Schema, seed: int) -> List[QueryTemplate]:
    """33 templates whose join counts span 3..16 with a mean near 8."""
    rng = np.random.default_rng(seed)
    # Table counts per template (join count = tables - 1): spans 4..17 tables.
    sizes = [4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 8, 9, 9, 9, 9, 10, 10,
             10, 11, 11, 12, 12, 13, 13, 14, 15, 16, 17, 17]
    templates: List[QueryTemplate] = []
    seen_shapes = set()
    template_no = 0
    while len(templates) < len(sizes):
        size = sizes[len(templates)]
        tables = random_connected_subgraph(schema, size, rng, start="title")
        shape = frozenset(tables)
        if shape in seen_shapes and size < 12:
            continue
        seen_shapes.add(shape)
        template_no += 1
        templates.append(_template_from_tables(schema, f"q{template_no}", tables))
    return templates


def _template_from_tables(schema: Schema, template_id: str, tables: List[str]) -> QueryTemplate:
    alias_of = {table: _ALIASES[table] for table in tables}
    joins: List[Tuple[str, str]] = []
    chosen = set(tables)
    for fk in schema.join_keys():
        if fk.table in chosen and fk.ref_table in chosen:
            joins.append(
                (f"{alias_of[fk.table]}.{fk.column}", f"{alias_of[fk.ref_table]}.{fk.ref_column}")
            )
    slots: List[FilterSlot] = []
    required: List[int] = []
    for table in tables:
        for column, kind, kwargs in _FILTER_PROTOTYPES.get(table, []):
            # Estimation-hazard predicates appear in every instance: the
            # popularity-correlated year range and the correlated pairs.
            if kind == "corr_pair" or (table == "title" and column == "production_year"):
                required.append(len(slots))
            slots.append(FilterSlot(alias=alias_of[table], column=column, kind=kind, **kwargs))
    return QueryTemplate(
        template_id=template_id,
        tables=[(alias_of[table], table) for table in tables],
        joins=joins,
        filter_slots=slots,
        min_filters=min(1, len(slots)),
        required_slots=required,
    )


def build_job_dataset(scale: float = 1.0, seed: int = 1) -> Dataset:
    """Generate and load the IMDb-like database."""
    schema = job_schema()
    specs = _table_specs(scale)
    arrays = datagen.generate_tables(specs, seed=seed)
    storage = StorageDatabase()
    for name, columns in arrays.items():
        storage.add_table(Table.from_arrays(name, columns))
    for table in schema.table_names:
        storage.declare_index(table, "id")
    for fk in schema.foreign_keys:
        storage.declare_index(fk.table, fk.column)
    return Dataset(name="job", schema=schema, storage=storage)


def build_job_workload(
    scale: float = 1.0, seed: int = 1, backend: Optional[EngineBackend] = None
) -> Workload:
    """The full JOB-like workload: dataset + 113 queries split 94/19."""
    database = backend if backend is not None else Database(build_job_dataset(scale=scale, seed=seed))
    templates = _make_templates(database.catalog.schema, seed=seed + 100)
    # 14 templates x 4 queries + 19 x 3 = 113, matching the paper's count.
    counts = [4] * 14 + [3] * 19
    queries = instantiate_templates(database, templates, counts, seed=seed + 200)
    train, test = split_train_test(queries, num_test=19, seed=seed + 300)
    return Workload(
        name="job",
        database=database,
        train=train,
        test=test,
        spec=WorkloadSpec(name="job", scale=scale, seed=seed),
    )
