"""A hostile peer on the engine port: it gets ``err`` replies, never a foothold.

Frames carry plain-data JSON (:mod:`repro.engine.wire`), so whatever a TCP
peer sends, the server may only answer it.  Drawn here, each inside a
valid frame on a raw socket:

* arbitrary payload bytes;
* well-formed requests with one value swapped for another JSON type, or
  with a body of the wrong arity;
* unknown op kinds;
* a protocol-3 pickle, including one that would run code when unpickled;
* a deeply nested array and a 5,000-digit integer;

and, separately, corrupt frames.  The other way round, a hostile server
whose handshake hello carries a malformed catalog (a missing key, a wrong
type, NaN, a histogram that is not a list, an index declared twice, absurd
nesting) is refused at connect with a typed error, and the client closes
its socket: no half-built client is left.  Every request gets an ``err`` reply on a
connection that then still answers ``ping``; a corrupt frame drops only
its own connection.  In every case no backend method runs, and a second
client keeps being served.

Mutated workload SQL (:mod:`sql_mutations`) also goes in as the query
text of a well-formed ``plan_many``.  Text a local bind refuses gets the
same typed error as an ``err`` reply, and only the bind runs; text that
binds is planned.
"""

from __future__ import annotations

import copy
import json
import pickle
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.remote import EngineServer, RemoteBackend, RemoteEngineError
from repro.engine.remote import server as server_module
from repro.engine.wire import (
    OPS,
    FrameCorruptionError,
    decode_reply,
    encode_frame,
    encode_message,
    encode_request,
    plan_to_wire,
    query_to_wire,
    read_frame,
    write_frame,
)
from repro.sql import BindError, ParseError
from sql_mutations import MUTATIONS, huge, mutate

TIMEOUT_S = 30.0
FUZZ = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: The request-path methods of an engine backend.
BACKEND_METHODS = (
    "sql", "plan", "plan_many", "plan_with_hints", "plan_with_hints_many",
    "execute", "execute_many", "original_latency", "clear_caches", "stats",
)


class SpyBackend:
    """An engine that records every request-path method called on it."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name not in BACKEND_METHODS:
            return attr

        def spied(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)

        return spied


@pytest.fixture(scope="module")
def spy(job_workload):
    return SpyBackend(job_workload.spec.build_database())


@pytest.fixture(scope="module")
def server(spy):
    with EngineServer(spy) as server:
        server.start()
        yield server


@pytest.fixture(scope="module")
def bystander(server, job_workload):
    """A well-behaved second client sharing the server with the attacker."""
    with RemoteBackend(server.url, timeout_s=TIMEOUT_S) as client:
        yield client


@pytest.fixture(scope="module")
def templates(job_workload):
    """One valid request per op with a body, over a real query and plan.

    Only ``plan_many`` carries contexts: any other op is refused for them,
    so a mutation of its body would never reach the body check."""
    db = job_workload.database
    query = next(wq.query for wq in job_workload.all_queries if wq.query.num_tables >= 3)
    plan = plan_to_wire(db.plan(query).plan)
    wire_query = query_to_wire(query)
    order = plan[0]
    methods = plan[1]
    ctxs = [{"id": "hostile-1", "ttl_s": 30.0}]
    return [
        ["plan_many", [[wire_query], [["merge"], [], 15]], ctxs],
        ["hint_many", [[wire_query, order, methods]], None],
        ["execute_many", [[wire_query, plan, 500.0]], None],
    ]


def _exchange(server, payload: bytes):
    """Send one frame on a fresh connection; the reply, then whether ping still works."""
    with socket.create_connection((server.host, server.port), timeout=TIMEOUT_S) as sock:
        with sock.makefile("rwb") as stream:
            write_frame(stream, payload)
            reply = decode_reply(read_frame(stream))
            write_frame(stream, encode_request("ping", None, None))
            pong = decode_reply(read_frame(stream))
    return reply, pong


def _assert_refused(server, spy, bystander, payload: bytes) -> str:
    spy.calls.clear()
    (status, message), pong = _exchange(server, payload)
    assert status == "err", message
    assert pong[0] == "ok"
    assert spy.calls == []
    assert bystander.ping()
    return message


def _is_known_request(payload: bytes) -> bool:
    try:
        message = json.loads(payload)
    except (ValueError, RecursionError):
        return False
    return (
        type(message) is list and len(message) == 3 and message[0] in OPS
    )


def _category(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _paths(value, path=()):
    """Every position inside a JSON value that holds something other than null."""
    if value is not None:
        yield path
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))


def _replace(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, list):
        copy = list(value)
    else:
        copy = dict(value)
    copy[head] = _replace(value[head], rest, new)
    return copy


def _get(value, path):
    for step in path:
        value = value[step]
    return value


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


class TestHostilePayloads:
    @FUZZ
    @given(payload=st.binary(max_size=256))
    def test_arbitrary_bytes(self, server, spy, bystander, payload):
        if _is_known_request(payload):
            return
        _assert_refused(server, spy, bystander, payload)

    @FUZZ
    @given(data=st.data())
    def test_values_of_the_wrong_type(self, server, spy, bystander, templates, data):
        """One non-null value anywhere in a valid request — the kind, a
        query's text, a plan's estimate, a context field — replaced by a
        non-null value of another JSON type."""
        request = data.draw(st.sampled_from(templates))
        path = data.draw(st.sampled_from(list(_paths(request))))
        old = _category(_get(request, path))
        new = data.draw(JSON.filter(lambda v: _category(v) not in ("null", old)))
        payload = json.dumps(_replace(request, path, new)).encode()
        _assert_refused(server, spy, bystander, payload)

    @FUZZ
    @given(data=st.data())
    def test_bodies_of_the_wrong_arity(self, server, spy, bystander, templates, data):
        """A ``plan_many`` body, or an ``execute_many`` row, cut short or grown."""
        kind, body, ctxs = data.draw(
            st.sampled_from([t for t in templates if t[0] in ("plan_many", "execute_many")])
        )
        row = body if kind == "plan_many" else body[0]
        if data.draw(st.booleans()):
            row = row[: data.draw(st.integers(0, len(row) - 1))]
        else:
            row = row + data.draw(st.lists(JSON, min_size=1, max_size=2))
        body = row if kind == "plan_many" else [row]
        _assert_refused(server, spy, bystander, json.dumps([kind, body, ctxs]).encode())

    @FUZZ
    @given(kind=st.text(max_size=12).filter(lambda k: k not in OPS), body=JSON)
    def test_unknown_kinds(self, server, spy, bystander, kind, body):
        message = _assert_refused(server, spy, bystander, encode_request(kind, body, None))
        assert "unknown engine RPC" in message

    def test_contexts_misaligned_with_the_batch(self, server, spy, bystander, templates):
        kind, body, _ctxs = templates[0]
        ctxs = [{"id": "a"}, {"id": "b"}]
        message = _assert_refused(server, spy, bystander, encode_request(kind, body, ctxs))
        assert "2 contexts for a batch of 1" in message

    def test_contexts_on_an_op_that_takes_none(self, server, spy, bystander, templates):
        """Aligned contexts on a well-formed ``hint_many`` or ``execute_many``:
        only ``plan_many`` takes contexts, so the request is refused whole."""
        for kind, body, _ctxs in templates[1:]:
            ctxs = [{"id": "aligned", "ttl_s": 30.0}] * len(body)
            message = _assert_refused(server, spy, bystander, encode_request(kind, body, ctxs))
            assert "takes no request contexts" in message

    def test_protocol_3_pickles(self, server, spy, bystander, job_workload):
        query = job_workload.all_queries[0].query
        request = pickle.dumps(("plan_many", ([query], None), None), protocol=3)
        _assert_refused(server, spy, bystander, request)
        _PICKLE_RAN.clear()
        exploit = pickle.dumps(("ping", _Exploit(), None), protocol=3)
        _assert_refused(server, spy, bystander, exploit)
        assert _PICKLE_RAN == [], "the server unpickled a peer's payload"

    def test_deep_nesting_and_huge_integers(self, server, spy, bystander):
        depth = 200_000
        nested = b'["ping",' + b"[" * depth + b"]" * depth + b",null]"
        _assert_refused(server, spy, bystander, nested)
        digits = b"9" * 5000
        _assert_refused(server, spy, bystander, b'["ping",null,null,' + digits + b"]")
        _assert_refused(server, spy, bystander, b'["plan_many",[[],' + digits + b"],null]")


class TestHostileSqlText:
    """SQL text a local bind refuses gets that error, typed, as an ``err``
    reply; text that binds gets a plan.  No plan runs for a refused text."""

    def _assert_bound_as_locally(self, server, spy, bystander, database, text):
        try:
            database.sql(text)
            expected = None
        except (ParseError, BindError) as exc:
            expected = f"plan_many failed: {exc!r}"
        spy.calls.clear()
        request = encode_request("plan_many", [[[text, ""]], None], [{"id": "hostile-sql", "ttl_s": 30.0}])
        (status, body), pong = _exchange(server, request)
        assert pong[0] == "ok"
        assert bystander.ping()
        if expected is None:
            assert status == "ok", body
            assert spy.calls == ["sql", "plan_many"]
        else:
            assert (status, body) == ("err", expected)
            assert spy.calls == ["sql"]

    @FUZZ
    @given(data=st.data())
    def test_mutated_workload_sql(self, server, spy, bystander, job_workload, data):
        text = data.draw(st.sampled_from(job_workload.all_queries), label="query").sql
        for mutation in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2)):
            text = mutate(text, mutation, lambda n: data.draw(st.integers(0, n - 1)))
        self._assert_bound_as_locally(server, spy, bystander, job_workload.database, text)

    def test_size_attacks_and_malformed_numbers(self, server, spy, bystander, job_workload):
        sql = job_workload.test[0].sql
        texts = huge(sql) + [
            "SELECT COUNT(*) FROM title AS t WHERE t.id = 1.2.3",
            "SELECT COUNT(*) FROM title AS t WHERE t.id = \u00b2",
            "SELECT COUNT(*) FROM t\u00edtulo AS \u00bd",
        ]
        for text in texts:
            self._assert_bound_as_locally(server, spy, bystander, job_workload.database, text)


_PICKLE_RAN = []


def _first_column(catalog) -> list:
    """The statistics row of the first table's first column."""
    return catalog["statistics"][0][2][0]


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


#: Edits of a valid hello's catalog, each one malformed.
CATALOG_EDITS = {
    "missing_key": lambda catalog: catalog.pop("indexes"),
    "wrong_type": lambda catalog: catalog.update(fingerprint=7),
    "nan": lambda catalog: _first_column(catalog).__setitem__(1, float("nan")),
    "non_list_histogram": lambda catalog: _first_column(catalog).__setitem__(4, "0,1,2"),
    "infinite_bound": lambda catalog: _first_column(catalog)[4].__setitem__(0, float("-inf")),
    "nested_histogram": lambda catalog: _first_column(catalog).__setitem__(4, _nested(60)),
    "duplicate_index": lambda catalog: catalog["indexes"].append(catalog["indexes"][0]),
    "unknown_index_column": lambda catalog: catalog["indexes"].append(["title", "nope"]),
}


def _connect_to_stub(reply: bytes) -> RemoteBackend:
    """A client connected to a one-connection server whose every reply is
    ``reply``; asserts the server saw one connection, and its close."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(TIMEOUT_S)
    seen = {"connections": 0, "closed": False}

    def serve():
        try:
            sock, _addr = listener.accept()
        except OSError:
            return
        seen["connections"] += 1
        sock.settimeout(TIMEOUT_S)
        with sock, sock.makefile("rwb") as stream:
            while read_frame(stream) is not None:
                write_frame(stream, reply)
            seen["closed"] = True  # EOF: the client closed its socket

    stub = threading.Thread(target=serve, daemon=True)
    stub.start()
    url = f"tcp://127.0.0.1:{listener.getsockname()[1]}"
    try:
        try:
            client = RemoteBackend(url, pool_size=1, timeout_s=TIMEOUT_S, max_reconnects=0)
        except BaseException:
            stub.join(timeout=TIMEOUT_S)
            assert seen == {"connections": 1, "closed": True}
            raise
        client.close()
        stub.join(timeout=TIMEOUT_S)
        return client
    finally:
        listener.close()


class TestHostileHellos:
    @pytest.fixture(scope="class")
    def hello(self, server):
        status, (hello, _executions, _spans) = server._dispatch(
            encode_request("fingerprint", None, None)
        )
        assert status == "ok"
        return hello

    def test_the_stub_serves_a_valid_hello(self, hello, server):
        client = _connect_to_stub(encode_message(("ok", (hello, 0, ()))))
        assert client.catalog.fingerprint == server.catalog.fingerprint

    @pytest.mark.parametrize("edit", sorted(CATALOG_EDITS))
    def test_a_malformed_catalog_is_refused(self, hello, edit):
        hostile = copy.deepcopy(hello)
        CATALOG_EDITS[edit](hostile["catalog"])
        with pytest.raises(RemoteEngineError, match="malformed catalog"):
            _connect_to_stub(encode_message(("ok", (hostile, 0, ()))))

    def test_absurd_nesting_is_corruption(self, hello):
        depth = 200_000
        catalog = b"[" * depth + b"]" * depth
        reply = encode_message(("ok", (dict(hello, catalog=None), 0, ())))
        reply = reply.replace(b'"catalog":null', b'"catalog":' + catalog)
        with pytest.raises(FrameCorruptionError, match="nests too deeply"):
            _connect_to_stub(reply)


def _ran() -> None:
    _PICKLE_RAN.append("ran")


class _Exploit:
    def __reduce__(self):
        return (_ran, ())


class TestCorruptFrames:
    @FUZZ
    @given(position=st.integers(0, 10_000), flip=st.integers(1, 255))
    def test_a_corrupt_frame_drops_only_its_connection(
        self, server, spy, bystander, position, flip
    ):
        frame = bytearray(encode_frame(encode_request("ping", None, None)))
        frame[position % len(frame)] ^= flip
        spy.calls.clear()
        with socket.create_connection((server.host, server.port), timeout=TIMEOUT_S) as sock:
            sock.sendall(bytes(frame))
            sock.shutdown(socket.SHUT_WR)  # a grown length field must not wait forever
            with sock.makefile("rb") as stream:
                assert stream.read() == b"", "a corrupt frame gets no reply"
        assert spy.calls == []
        assert bystander.ping()


class TestExposure:
    class _Server:
        url = "tcp://0.0.0.0:0"

        class catalog:
            fingerprint = "crc32:00000000:rows=0"

        def serve_forever(self):
            pass

        def close(self):
            pass

    @pytest.mark.parametrize(
        "host, warned",
        [("127.0.0.1", False), ("localhost", False), ("::1", False),
         ("0.0.0.0", True), ("10.1.2.3", True), ("engine.example", True)],
    )
    def test_non_loopback_host_warns_loudly(self, monkeypatch, capsys, host, warned):
        monkeypatch.setattr(server_module, "serve", lambda *args, **kwargs: self._Server())
        assert server_module.main(["job", "--host", host, "--port", "0"]) == 0
        err = capsys.readouterr().err
        assert ("WARNING" in err) == warned
        if warned:
            assert err.count("WARNING") == 1
            assert "unauthenticated" in err and host in err
