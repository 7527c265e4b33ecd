"""Shared workload machinery: templates, instantiation, train/test splits."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalog.schema import Schema
from repro.engine.backend import EngineBackend
from repro.engine.database import Database, Dataset
from repro.sql.ast import Query


@dataclass
class FilterSlot:
    """A parameterized predicate in a template.

    ``kind`` picks the constant generator:
      * "eq": ``col = <draw from [0, domain)>``
      * "in": ``col IN (<m draws>)``
      * "range": ``col BETWEEN a AND b`` with a window of ``width`` over
        [low, high]
      * "le" / "ge": one-sided comparisons over [low, high]
      * "corr_pair": ``col = v AND column2 = w`` where ``column2`` was
        generated by :class:`~repro.catalog.datagen.CorrelatedSpec`; with
        probability ``consistent_prob`` the pair is *consistent* with the
        planted mapping (true selectivity ~= sel(col = v), while the
        independence assumption estimates sel(v) * sel(w) — a large
        underestimate), otherwise inconsistent (true selectivity ~= 0,
        an overestimate).
    """

    alias: str
    column: str
    kind: str
    domain: int = 0
    num_values: int = 3
    low: int = 0
    high: int = 100
    width: int = 10
    column2: str = ""
    domain2: int = 0
    mapping_seed: int = 7
    consistent_prob: float = 0.75
    base_zipf: float = 0.0  # corr_pair: draw the base value from this Zipf

    def render(self, rng: np.random.Generator) -> str:
        col = f"{self.alias}.{self.column}"
        if self.kind == "eq":
            return f"{col} = {int(rng.integers(0, self.domain))}"
        if self.kind == "in":
            count = int(rng.integers(2, self.num_values + 1))
            values = rng.choice(self.domain, size=min(count, self.domain), replace=False)
            return f"{col} IN ({', '.join(str(int(v)) for v in sorted(values))})"
        if self.kind == "range":
            start = int(rng.integers(self.low, max(self.low + 1, self.high - self.width)))
            return f"{col} BETWEEN {start} AND {start + self.width}"
        if self.kind == "le":
            return f"{col} <= {int(rng.integers(self.low, self.high + 1))}"
        if self.kind == "ge":
            return f"{col} >= {int(rng.integers(self.low, self.high + 1))}"
        if self.kind == "corr_pair":
            from repro.catalog.datagen import correlation_mapping, zipf_weights

            if self.base_zipf > 0:
                weights = zipf_weights(self.domain, self.base_zipf)
                base_value = int(rng.choice(self.domain, p=weights))
            else:
                base_value = int(rng.integers(0, self.domain))
            mapping = correlation_mapping(self.mapping_seed, self.domain, self.domain2)
            if rng.random() < self.consistent_prob:
                corr_value = int(mapping[base_value])
            else:
                corr_value = int(rng.integers(0, self.domain2))
            return (
                f"{col} = {base_value} AND "
                f"{self.alias}.{self.column2} = {corr_value}"
            )
        raise ValueError(f"unknown filter kind {self.kind!r}")


@dataclass
class QueryTemplate:
    """A join shape plus parameterized filters.

    ``required_slots`` indexes into ``filter_slots``; those predicates are
    emitted by every instance (workloads use this to guarantee each query
    touches at least one estimation-hazard column).
    """

    template_id: str
    tables: List[Tuple[str, str]]  # (alias, table)
    joins: List[Tuple[str, str]]  # ("a.col", "b.col") textual column refs
    filter_slots: List[FilterSlot] = field(default_factory=list)
    min_filters: int = 1
    required_slots: List[int] = field(default_factory=list)

    def render_sql(self, rng: np.random.Generator) -> str:
        from_clause = ", ".join(f"{table} AS {alias}" for alias, table in self.tables)
        conditions = [f"{left} = {right}" for left, right in self.joins]
        if self.filter_slots:
            hazards = [i for i in self.required_slots if i < len(self.filter_slots)]
            chosen = []
            if hazards:
                # One estimation-hazard predicate per instance.
                chosen.append(int(rng.choice(hazards)))
            optional = [i for i in range(len(self.filter_slots)) if i not in chosen]
            remaining = max(0, self.min_filters - len(chosen))
            upper = min(3, len(optional))
            count = int(rng.integers(min(remaining, upper), upper + 1)) if upper else 0
            if count:
                chosen.extend(int(i) for i in rng.choice(optional, size=count, replace=False))
            conditions.extend(self.filter_slots[i].render(rng) for i in sorted(chosen))
        where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        return f"SELECT COUNT(*) FROM {from_clause}{where};"

    @property
    def num_tables(self) -> int:
        return len(self.tables)


@dataclass
class WorkloadQuery:
    """A bound query with provenance metadata."""

    query: Query
    template_id: str
    query_id: str
    sql: str


@dataclass(frozen=True)
class WorkloadSpec:
    """A picklable recipe that rebuilds a workload's dataset deterministically.

    A ``repro-engine`` server (:func:`repro.engine.remote.serve`) rebuilds
    an identical :class:`Database` from it (same datagen seed, same
    statistics, same plans) in its own process, and advertises it in its
    handshake.
    """

    name: str
    scale: float = 1.0
    seed: int = 1

    def build_dataset(self) -> Dataset:
        return build_dataset_by_name(self.name, scale=self.scale, seed=self.seed)

    def build_database(self) -> Database:
        return Database(self.build_dataset())


@dataclass
class Workload:
    """A train/test query split and the engine that bound it: a fresh
    local :class:`Database`, or an injected backend."""

    name: str
    database: EngineBackend
    train: List[WorkloadQuery]
    test: List[WorkloadQuery]
    spec: Optional[WorkloadSpec] = None

    @property
    def all_queries(self) -> List[WorkloadQuery]:
        return self.train + self.test

    @property
    def max_query_tables(self) -> int:
        return max(wq.query.num_tables for wq in self.all_queries)

    def queries_by_template(self) -> Dict[str, List[WorkloadQuery]]:
        grouped: Dict[str, List[WorkloadQuery]] = {}
        for wq in self.all_queries:
            grouped.setdefault(wq.template_id, []).append(wq)
        return grouped


def instantiate_templates(
    database: EngineBackend,
    templates: Sequence[QueryTemplate],
    queries_per_template: Sequence[int],
    seed: int,
) -> List[WorkloadQuery]:
    """Draw the requested number of instances from each template."""
    if len(templates) != len(queries_per_template):
        raise ValueError("templates and counts must align")
    queries: List[WorkloadQuery] = []
    for template, count in zip(templates, queries_per_template):
        # NB: a process-stable hash — builtin hash() of a str varies with
        # PYTHONHASHSEED, which silently made every process generate a
        # different workload (and the test suite flaky).
        template_key = zlib.crc32(template.template_id.encode("utf-8"))
        rng = np.random.default_rng(seed + template_key % 100_000)
        for i in range(count):
            sql = template.render_sql(rng)
            query_id = f"{template.template_id}{chr(ord('a') + i)}"
            bound = database.sql(sql, name=query_id)
            queries.append(
                WorkloadQuery(query=bound, template_id=template.template_id, query_id=query_id, sql=sql)
            )
    return queries


def random_connected_subgraph(
    schema: Schema,
    size: int,
    rng: np.random.Generator,
    start: Optional[str] = None,
) -> List[str]:
    """Grow a random set of ``size`` tables connected by foreign keys."""
    nodes = schema.table_names
    if size > len(nodes):
        raise ValueError(f"requested {size} nodes from a {len(nodes)}-node graph")
    current = start if start is not None else nodes[int(rng.integers(len(nodes)))]
    chosen = [current]
    frontier = set(schema.neighbors(current))
    while len(chosen) < size:
        frontier -= set(chosen)
        if not frontier:
            # Dead end (graph smaller than requested from this seed): restart.
            return random_connected_subgraph(schema, size, rng)
        pick = sorted(frontier)[int(rng.integers(len(frontier)))]
        chosen.append(pick)
        frontier |= set(schema.neighbors(pick))
    return chosen


def split_train_test(
    queries: Sequence[WorkloadQuery],
    num_test: int,
    seed: int,
) -> Tuple[List[WorkloadQuery], List[WorkloadQuery]]:
    """Random split (Balsa-style random partitioning, as the paper uses for JOB)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(queries))
    test_idx = set(order[:num_test].tolist())
    train = [q for i, q in enumerate(queries) if i not in test_idx]
    test = [q for i, q in enumerate(queries) if i in test_idx]
    return train, test


# name -> (workload builder, dataset builder) attribute names; one table
# so a new workload cannot register one dispatch path and miss the other.
_BUILDER_NAMES: Dict[str, Tuple[str, str]] = {
    "job": ("build_job_workload", "build_job_dataset"),
    "tpcds": ("build_tpcds_workload", "build_tpcds_dataset"),
    "stack": ("build_stack_workload", "build_stack_dataset"),
}


def _resolve_builder(name: str, dataset_only: bool) -> Callable:
    import importlib

    try:
        workload_builder, dataset_builder = _BUILDER_NAMES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {sorted(_BUILDER_NAMES)}"
        ) from None
    module = importlib.import_module(f"repro.workloads.{name.lower()}")
    return getattr(module, dataset_builder if dataset_only else workload_builder)


def build_workload_by_name(
    name: str, scale: float = 1.0, seed: int = 1, backend: Optional[EngineBackend] = None
) -> Workload:
    """Dispatch helper: "job", "tpcds" or "stack".

    The queries are bound through ``backend`` when one is given, which
    generates no rows; otherwise through a fresh local :class:`Database`.
    """
    return _resolve_builder(name, dataset_only=False)(scale=scale, seed=seed, backend=backend)



def build_dataset_by_name(name: str, scale: float = 1.0, seed: int = 1) -> Dataset:
    """Dataset-only dispatch (what :class:`WorkloadSpec` rebuilds)."""
    return _resolve_builder(name, dataset_only=True)(scale=scale, seed=seed)
