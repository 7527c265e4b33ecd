"""SQL frontend tests: lexer, parser, binder, AST helpers."""

import random
import string
import time
import zlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_lexer
from reference_dp import joins_between, query_join_graph
from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnSchema, ForeignKey, Schema, TableSchema
from repro.catalog.statistics import StatisticsCatalog
from repro.sql.ast import ColumnRef, FilterPredicate, JoinPredicate, Query
from repro.sql.binder import BindError, bind_query
from repro.sql.lexer import LexError, tokenize
from repro.sql.parser import ParseError, parse_query
from repro.storage.database import StorageDatabase
from repro.storage.table import Table
from sql_mutations import MUTATIONS, NON_ASCII, mutate


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
def catalog(schema):
    db = StorageDatabase()
    db.add_table(Table.from_arrays("users", {"id": np.arange(5), "age": np.array([20, 30, 40, 50, 60])}))
    db.add_table(
        Table.from_arrays(
            "orders",
            {"id": np.arange(6), "user_id": np.array([0, 0, 1, 2, 3, 4]), "total": np.arange(6) * 10},
        )
    )
    return Catalog.of(schema, db, StatisticsCatalog.analyze(db), "crc32:00000000:rows=11")


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

    def test_long_runs_scan_in_linear_time(self):
        # A pattern that skips whitespace inside each match (``\s*(...)``)
        # retries a whitespace run from every offset: 8,000 trailing spaces
        # took 2.9 s that way, against 0.6 ms here.
        for text in ("a" + " " * 20_000, "'" * 20_001, "1" + "." * 20_000):
            start = time.perf_counter()
            with pytest.raises(ParseError):
                parse_query(text)
            assert time.perf_counter() - start < 1.0


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
    ("SELECT COUNT(*) FROM title AS t WHERE t.title = '", "unterminated string literal at 48", True),
    ("SELECT COUNT(*) FROM title AS t WHERE t.id ~ 3", "unexpected character '~' at position 43", True),
    ("SELECT COUNT(*) FROM title AS t WHERE t.id = -", "unexpected character '-' at position 45", True),
    ("SELECT COUNT(*) FROM title AS t; SELECT", "trailing input at position 33", False),
    (
        "SELECT COUNT(*) FROM title AS t, movie_info AS mi WHERE t.id < mi.movie_id",
        "only equi-joins are supported between columns",
        False,
    ),
    ("SELECT COUNT(*) FROM title AS t WHERE", "unexpected end of input", False),
    # Number lexemes float() cannot read are refused as literals, with a
    # position (the token parser let float()'s bare ValueError escape).
    ("SELECT COUNT(*) FROM title AS t WHERE t.id = 1.2.3", "expected literal at position 45", False),
    ("SELECT COUNT(*) FROM title AS t WHERE t.id = \u00b2", "expected literal at position 45", False),
]
# crc32 over repr((name, to_sql(), signature())) of every bound workload
# query (conftest's scales and seeds), recorded from the commit before the
# scanner: the parser that walks lexeme strings binds every query the
# token parser did, value for value.
BOUND_DIGESTS = {
    "job": (113, "ef39e192"),
    "tpcds": (114, "3bbb680b"),
    "stack": (120, "f75b88c4"),
}


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

    @pytest.mark.parametrize("name", sorted(BOUND_DIGESTS))
    def test_workload_bound_queries_match_recorded_digest(self, request, name):
        workload = request.getfixturevalue(f"{name}_workload")
        crc = 0
        for wq in workload.all_queries:
            query = wq.query
            crc = zlib.crc32(repr((query.name, query.to_sql(), query.signature())).encode(), crc)
        assert (len(workload.all_queries), f"{crc:08x}") == BOUND_DIGESTS[name]


def _lexed(lex, text):
    try:
        return [tuple(token) for token in lex(text)]
    except LexError as exc:
        return str(exc)


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


# The ASCII SQL alphabet, Unicode whitespace and Unicode decimal digits:
# on these characters a regex class and the str predicates the character
# loop used agree, so the scanner must reproduce it exactly.
SQL_CHARS = sorted(set(string.ascii_letters + string.digits + " '!-~\x00<>=(),;*._\t\n"))
UNICODE_CHARS = ["\u00a0", "\u2003", "\x1c", "\u0663", "\uff15"]
FRAGMENTS = [
    "SELECT", "select", "COUNT", "Sum", "FROM", "WHERE", "and", "AS", "IN", "BETWEEN",
    "t", "t.id", "mi.info", "title", "'x y'", "''", "1", "-2", "3.5", "1.2.3", "-",
    "=", "!=", "<>", "<=", ">", "(", ")", "(*)", ",", ";", ".",
]
SQL_TEXT = st.lists(
    st.sampled_from(SQL_CHARS + UNICODE_CHARS) | st.sampled_from(FRAGMENTS), max_size=24
).map("".join)
SQL_WORDS = st.lists(st.sampled_from(FRAGMENTS + SQL_CHARS), max_size=24).map(" ".join)

# Characters that are numeric but not decimal digits, where no regex class
# matches the loop's isalpha / isdigit: (text, old tokens or error, new).
# A lexeme is a run of word characters that does not start with a decimal
# digit, and its first character gives the kind, so "\u00b2" still opens a
# NUMBER (which no literal accepts) and "\u00bd" / "\u216b" are still
# unexpected, but a lexeme they open now runs to the end of the word.
NUMERIC_LETTERS = [
    ("\u00bd", "unexpected character '\u00bd' at position 0", "unexpected character '\u00bd' at position 0"),
    ("\u216b", "unexpected character '\u216b' at position 0", "unexpected character '\u216b' at position 0"),
    ("a\u00bd\u216b\u00b2", [("IDENT", "a\u00bd\u216b\u00b2", 0)], [("IDENT", "a\u00bd\u216b\u00b2", 0)]),
    ("\u00b2", [("NUMBER", "\u00b2", 0)], [("NUMBER", "\u00b2", 0)]),
    ("\u00b2a", [("NUMBER", "\u00b2", 0), ("IDENT", "a", 1)], [("NUMBER", "\u00b2a", 0)]),
    ("\u00b2\u00bd", "unexpected character '\u00bd' at position 1", [("NUMBER", "\u00b2\u00bd", 0)]),
    ("\u00b2.5", [("NUMBER", "\u00b2.5", 0)], [("NUMBER", "\u00b2", 0), ("SYMBOL", ".", 1), ("NUMBER", "5", 2)]),
    ("-\u00b2", [("NUMBER", "-\u00b2", 0)], "unexpected character '-' at position 0"),
]


#: The characters of NUMERIC_LETTERS that the mutations insert.
NUMERIC_CHARS = {c for c in NON_ASCII if c.isnumeric() and not c.isdecimal()}


def _assert_parses_as_before(text):
    new = _parsed(parse_query, text)
    try:
        old = _parsed(reference_lexer.parse_query, text)
    except ValueError as exc:  # float() on a number lexeme: typed and placed now
        assert "could not convert string to float" in str(exc)
        assert isinstance(new, str), text
        if not NUMERIC_CHARS.intersection(text):
            assert new.startswith("expected literal at position "), text
        return
    if new != old:  # NUMERIC_LETTERS: where the lexemes differ, both sides refuse the text
        assert NUMERIC_CHARS.intersection(text), text
        assert isinstance(new, str) and isinstance(old, str), text


#: One text per grammar branch, each of which the token parser accepted.
GRAMMAR_CASES = [
    "select count(*) from users u where u.age != 3;",
    "SELECT COUNT(*), SUM(u.age), Min(u.age), MAX(o.total), avg(o.total) FROM users AS u, orders o "
    "WHERE o.user_id = u.id AND u.age BETWEEN -5 AND 4.5 AND o.total IN (1, -2, 3.25)",
    "SELECT COUNT(*) FROM users WHERE users.name IN ('a b', '', 'x') AND users.age <> 7",
    "SELECT COUNT(*) FROM users AS u WHERE u.age <= \u0663\u0663 AND u.age >= 1 AND u.age < 9 AND u.age > 0",
    "SELECT COUNT(*) FROM users AS \u00e9t\u00e9, t_2 AS _x WHERE \u00e9t\u00e9.a\u0663 = _x.b",
]


class TestAgainstReferenceLexer:
    """The scanner and the string parser against the loop and token parser they replaced."""

    @pytest.mark.parametrize("text", GRAMMAR_CASES)
    def test_every_grammar_branch_parses_as_before(self, text):
        assert parse_query(text) == reference_lexer.parse_query(text)

    @settings(max_examples=400, deadline=None)
    @given(text=SQL_TEXT)
    def test_tokens_or_lex_error_match(self, text):
        assert _lexed(tokenize, text) == _lexed(reference_lexer.tokenize, text)

    @settings(max_examples=300, deadline=None)
    @given(text=SQL_WORDS | SQL_TEXT)
    def test_parse_result_or_error_matches(self, text):
        _assert_parses_as_before(text)

    @pytest.mark.parametrize("name", ["job", "stack"])
    def test_mutated_workload_text_parses_as_before(self, request, name):
        rng = random.Random(name)
        for wq in request.getfixturevalue(f"{name}_workload").all_queries:
            assert parse_query(wq.sql) == reference_lexer.parse_query(wq.sql)
            for mutation in MUTATIONS:
                _assert_parses_as_before(mutate(wq.sql, mutation, rng.randrange))

    @pytest.mark.parametrize("text, old, new", NUMERIC_LETTERS)
    def test_numeric_characters_outside_the_alphabet(self, text, old, new):
        assert _lexed(reference_lexer.tokenize, text) == old
        assert _lexed(tokenize, text) == new


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
    def test_bind_resolves_names(self, catalog):
        raw = parse_query(
            "SELECT COUNT(*) FROM users AS u, orders AS o WHERE o.user_id = u.id AND u.age > 25"
        )
        query = bind_query(raw, catalog, name="q1")
        assert query.num_tables == 2
        assert query.join_predicates[0].left.column == "user_id"
        assert query.name == "q1"

    def test_unknown_table_raises(self, catalog):
        raw = parse_query("SELECT COUNT(*) FROM nope n")
        with pytest.raises(BindError):
            bind_query(raw, catalog)

    def test_unknown_column_raises(self, catalog):
        raw = parse_query("SELECT COUNT(*) FROM users u WHERE u.nope = 1")
        with pytest.raises(BindError):
            bind_query(raw, catalog)

    def test_disconnected_join_graph_raises(self, catalog):
        raw = parse_query("SELECT COUNT(*) FROM users u, orders o WHERE u.age > 1")
        with pytest.raises(BindError):
            bind_query(raw, catalog)

    def test_self_join_predicate_raises(self, catalog):
        raw = parse_query("SELECT COUNT(*) FROM users u, orders o WHERE u.id = u.id AND o.user_id = u.id")
        with pytest.raises(BindError):
            bind_query(raw, catalog)


class TestQueryAst:
    def _query(self, catalog):
        raw = parse_query(
            "SELECT COUNT(*) FROM users AS u, orders AS o WHERE o.user_id = u.id AND u.age > 25"
        )
        return bind_query(raw, catalog)

    def test_join_graph_connected(self, catalog):
        query = self._query(catalog)
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

    def test_disconnected_join_graph_is_a_bind_error(self, catalog):
        raw = parse_query("SELECT COUNT(*) FROM users AS u, orders AS o WHERE u.age > 25")
        with pytest.raises(BindError, match="query join graph is not connected"):
            bind_query(raw, catalog)
        bind_query(parse_query("SELECT COUNT(*) FROM users AS u WHERE u.age > 25"), catalog)

    def test_filters_for(self, catalog):
        query = self._query(catalog)
        assert len(query.filters_for("u")) == 1
        assert query.filters_for("o") == []

    def test_joins_between(self, catalog):
        query = self._query(catalog)
        assert len(joins_between(query, ["u"], ["o"])) == 1
        assert joins_between(query, ["u"], ["u"]) == []

    def test_to_sql_round_trips(self, catalog):
        query = self._query(catalog)
        reparsed = bind_query(parse_query(query.to_sql()), catalog)
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
    query = bind_query(raw, Catalog(schema, {}, StatisticsCatalog(), frozenset(), ""))
    assert query.filters[0].op == op
    assert query.filters[0].value == float(age)
