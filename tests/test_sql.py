"""SQL frontend tests: lexer, parser, binder, AST helpers."""

import zlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_dp import joins_between, query_join_graph
from repro.catalog.schema import ColumnSchema, ForeignKey, Schema, TableSchema
from repro.sql.ast import Aggregate, ColumnRef, FilterPredicate, JoinPredicate, Query
from repro.sql.binder import BindError, bind_query
from repro.sql.lexer import LexError, tokenize
from repro.sql.parser import ParseError, parse_query
from repro.storage.database import StorageDatabase
from repro.storage.table import Table


@pytest.fixture()
def schema():
    return Schema(
        tables=[
            TableSchema("users", [ColumnSchema("id", is_primary_key=True), ColumnSchema("age")]),
            TableSchema("orders", [ColumnSchema("id", is_primary_key=True), ColumnSchema("user_id"), ColumnSchema("total")]),
        ],
        foreign_keys=[ForeignKey("orders", "user_id", "users", "id")],
    )


@pytest.fixture()
def storage():
    db = StorageDatabase()
    db.add_table(Table.from_arrays("users", {"id": np.arange(5), "age": np.array([20, 30, 40, 50, 60])}))
    db.add_table(
        Table.from_arrays(
            "orders",
            {"id": np.arange(6), "user_id": np.array([0, 0, 1, 2, 3, 4]), "total": np.arange(6) * 10},
        )
    )
    return db


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT COUNT(*) FROM users AS u;")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "KEYWORD"
        assert "SYMBOL" in kinds

    def test_keywords_case_insensitive(self):
        tokens = tokenize("select from")
        assert [t.value for t in tokens] == ["SELECT", "FROM"]

    def test_numbers_including_negative(self):
        tokens = tokenize("1 -2 3.5")
        assert [t.value for t in tokens] == ["1", "-2", "3.5"]

    def test_string_literal(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].kind == "STRING"
        assert tokens[0].value == "hello world"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_not_equal_normalized(self):
        tokens = tokenize("a.b != 3")
        assert any(t.value == "<>" for t in tokens)

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a ~ b")


# crc32 over repr([(kind, value, position), ...]) of every workload query's
# tokens (conftest's scales and seeds), and the error each malformed text
# raises, both recorded from the commit before Token became a NamedTuple.
TOKEN_DIGESTS = {
    "job": (113, 15046, "d8b2e9e5"),
    "tpcds": (114, 7966, "898db981"),
    "stack": (120, 8668, "bbbf39f1"),
}
# (text, message, whether the lexer already rejects it)
MALFORMED = [
    ("SELECT COUNT(*) FROM title AS t WHERE t.title = 'oops", "unterminated string literal at 48", True),
    ("SELECT COUNT(*) FROM title AS t WHERE t.id ~ 3", "unexpected character '~' at position 43", True),
    ("SELECT COUNT(*) FROM title AS t WHERE t.id = -", "unexpected character '-' at position 45", True),
    ("SELECT COUNT(*) FROM title AS t; SELECT", "trailing input at position 33", False),
    (
        "SELECT COUNT(*) FROM title AS t, movie_info AS mi WHERE t.id < mi.movie_id",
        "only equi-joins are supported between columns",
        False,
    ),
    ("SELECT COUNT(*) FROM title AS t WHERE", "unexpected end of input", False),
]


class TestTokenParity:
    @pytest.mark.parametrize("name", sorted(TOKEN_DIGESTS))
    def test_workload_token_streams_match_recorded_digest(self, request, name):
        workload = request.getfixturevalue(f"{name}_workload")
        crc = tokens = 0
        for wq in workload.all_queries:
            lexed = tokenize(wq.sql)
            stream = [(t.kind, t.value, t.position) for t in lexed]
            assert stream == [tuple(t) for t in lexed]  # same fields, same order
            tokens += len(stream)
            crc = zlib.crc32(repr(stream).encode(), crc)
        assert (len(workload.all_queries), tokens, f"{crc:08x}") == TOKEN_DIGESTS[name]

    @pytest.mark.parametrize("text, message, lexer_rejects", MALFORMED)
    def test_malformed_input_raises_the_recorded_error(self, text, message, lexer_rejects):
        with pytest.raises(ParseError) as caught:
            parse_query(text)
        assert str(caught.value) == message
        if lexer_rejects:
            with pytest.raises(LexError) as lexed:
                tokenize(text)
            assert str(lexed.value) == message
        else:
            tokenize(text)


class TestParser:
    def test_single_table(self):
        raw = parse_query("SELECT COUNT(*) FROM users AS u WHERE u.age > 30")
        assert raw.tables == {"u": "users"}
        assert len(raw.filters) == 1
        assert raw.filters[0].op == ">"

    def test_join_and_filters(self):
        raw = parse_query(
            "SELECT COUNT(*) FROM users AS u, orders AS o "
            "WHERE o.user_id = u.id AND u.age <= 40 AND o.total IN (10, 20)"
        )
        assert len(raw.joins) == 1
        assert len(raw.filters) == 2
        assert raw.filters[1].op == "IN"
        assert raw.filters[1].values == (10.0, 20.0)

    def test_between(self):
        raw = parse_query("SELECT COUNT(*) FROM users u WHERE u.age BETWEEN 20 AND 40")
        assert raw.filters[0].op == "BETWEEN"
        assert raw.filters[0].values == (20.0, 40.0)

    def test_alias_without_as(self):
        raw = parse_query("SELECT COUNT(*) FROM users u")
        assert raw.tables == {"u": "users"}

    def test_no_alias_defaults_to_table(self):
        raw = parse_query("SELECT COUNT(*) FROM users")
        assert raw.tables == {"users": "users"}

    def test_multiple_aggregates(self):
        raw = parse_query("SELECT COUNT(*), SUM(u.age), MIN(u.age) FROM users u")
        assert [a.function for a in raw.aggregates] == ["COUNT", "SUM", "MIN"]

    def test_duplicate_alias_raises(self):
        with pytest.raises(ParseError):
            parse_query("SELECT COUNT(*) FROM users u, orders u")

    def test_non_equi_column_comparison_raises(self):
        with pytest.raises(ParseError):
            parse_query("SELECT COUNT(*) FROM users u, orders o WHERE u.id < o.user_id")

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_query("SELECT COUNT(*) FROM users u extra")

    def test_missing_from_raises(self):
        with pytest.raises(ParseError):
            parse_query("SELECT COUNT(*) users")


class TestBinder:
    def test_bind_resolves_names(self, schema, storage):
        raw = parse_query(
            "SELECT COUNT(*) FROM users AS u, orders AS o WHERE o.user_id = u.id AND u.age > 25"
        )
        query = bind_query(raw, schema, storage, name="q1")
        assert query.num_tables == 2
        assert query.join_predicates[0].left.column == "user_id"
        assert query.name == "q1"

    def test_unknown_table_raises(self, schema, storage):
        raw = parse_query("SELECT COUNT(*) FROM nope n")
        with pytest.raises(BindError):
            bind_query(raw, schema, storage)

    def test_unknown_column_raises(self, schema, storage):
        raw = parse_query("SELECT COUNT(*) FROM users u WHERE u.nope = 1")
        with pytest.raises(BindError):
            bind_query(raw, schema, storage)

    def test_disconnected_join_graph_raises(self, schema, storage):
        raw = parse_query("SELECT COUNT(*) FROM users u, orders o WHERE u.age > 1")
        with pytest.raises(BindError):
            bind_query(raw, schema, storage)

    def test_self_join_predicate_raises(self, schema, storage):
        raw = parse_query("SELECT COUNT(*) FROM users u, orders o WHERE u.id = u.id AND o.user_id = u.id")
        with pytest.raises(BindError):
            bind_query(raw, schema, storage)


class TestQueryAst:
    def _query(self, schema, storage):
        raw = parse_query(
            "SELECT COUNT(*) FROM users AS u, orders AS o WHERE o.user_id = u.id AND u.age > 25"
        )
        return bind_query(raw, schema, storage)

    def test_join_graph_connected(self, schema, storage):
        query = self._query(schema, storage)
        assert query.is_connected()

    @pytest.mark.parametrize("name", ["job", "tpcds", "stack"])
    def test_is_connected_matches_networkx_on_workload_queries(self, request, name):
        for wq in request.getfixturevalue(f"{name}_workload").all_queries:
            assert wq.query.is_connected() == nx.is_connected(query_join_graph(wq.query))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_is_connected_matches_networkx_on_drawn_predicates(self, data):
        aliases = [f"a{i}" for i in range(data.draw(st.integers(1, 7), label="tables"))]
        pairs = [(a, b) for a in aliases for b in aliases if a != b]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=10), label="edges") if pairs else []
        query = Query(
            tables={alias: "t" for alias in aliases},
            join_predicates=[JoinPredicate(ColumnRef(a, "x"), ColumnRef(b, "y")) for a, b in edges],
            filters=[],
        )
        assert query.is_connected() == nx.is_connected(query_join_graph(query))

    def test_is_connected_without_tables(self):
        assert not Query(tables={}, join_predicates=[], filters=[]).is_connected()

    def test_disconnected_join_graph_is_a_bind_error(self, schema, storage):
        raw = parse_query("SELECT COUNT(*) FROM users AS u, orders AS o WHERE u.age > 25")
        with pytest.raises(BindError, match="query join graph is not connected"):
            bind_query(raw, schema, storage)
        bind_query(parse_query("SELECT COUNT(*) FROM users AS u WHERE u.age > 25"), schema, storage)

    def test_filters_for(self, schema, storage):
        query = self._query(schema, storage)
        assert len(query.filters_for("u")) == 1
        assert query.filters_for("o") == []

    def test_joins_between(self, schema, storage):
        query = self._query(schema, storage)
        assert len(joins_between(query, ["u"], ["o"])) == 1
        assert joins_between(query, ["u"], ["u"]) == []

    def test_to_sql_round_trips(self, schema, storage):
        query = self._query(schema, storage)
        reparsed = bind_query(parse_query(query.to_sql()), schema, storage)
        assert reparsed.tables == query.tables
        assert len(reparsed.filters) == len(query.filters)

    def test_filter_predicate_validation(self):
        with pytest.raises(ValueError):
            FilterPredicate(ColumnRef("a", "x"), "BETWEEN", (1.0,))
        with pytest.raises(ValueError):
            FilterPredicate(ColumnRef("a", "x"), "=", (1.0, 2.0))
        with pytest.raises(ValueError):
            FilterPredicate(ColumnRef("a", "x"), "LIKE", (1.0,))


@settings(max_examples=40, deadline=None)
@given(
    age=st.integers(min_value=-100, max_value=100),
    op=st.sampled_from(["=", "<", "<=", ">", ">=", "<>"]),
)
def test_parse_bind_roundtrip_property(age, op):
    """Any simple comparison parses and binds without loss."""
    schema = Schema(
        tables=[TableSchema("users", [ColumnSchema("id", is_primary_key=True), ColumnSchema("age")])]
    )
    raw = parse_query(f"SELECT COUNT(*) FROM users u WHERE u.age {op} {age}")
    query = bind_query(raw, schema)
    assert query.filters[0].op == op
    assert query.filters[0].value == float(age)
