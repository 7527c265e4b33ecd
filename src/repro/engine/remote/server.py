"""``EngineServer`` and the ``repro-engine`` console entry point.

The server wraps one in-process engine
(:class:`~repro.engine.backend.LocalBackend`, or any ``EngineBackend``
handed to :class:`EngineServer`) and serves the ``EngineBackend`` surface
over TCP as the batch ops ``plan_many`` / ``hint_many`` / ``execute_many``,
plus ``stats``, cache control, ``ping`` and the ``fingerprint`` handshake.
Every op is one entry of :data:`repro.engine.wire.OPS` — body shape and
handler — so dispatch is a lookup.  One length-prefixed crc32-checksummed
frame per message, each a plain-data JSON message in the shapes
:mod:`repro.engine.wire` tabulates: queries arrive as SQL text, bound here
through the backend's statement cache, and plans leave as descriptors.  A
request is checked whole — envelope, contexts, body shape — before any
query is bound or any backend method runs, and a malformed one gets an
``err`` reply.

Data-only frames mean a peer cannot make the server run code, but the
port is still unauthenticated: anyone who reaches it may plan, execute
and clear caches.  Bind to loopback or a private network (``repro-engine``
warns on any other ``--host``).

Responses carry the backend's cumulative execution count alongside every
result — the client aggregates cache-miss statistics without an extra
round trip.

Each client connection is served by its own thread against the one shared
backend; that is safe because the engine request path is thread-safe
(``Database`` serializes its entry points).  A client that disconnects
mid-request — a truncated frame, a dropped socket — costs only its own
connection: the dispatch either never starts (the frame never
checksummed) or runs to completion against the backend, and the failed
response write tears down that handler alone, never the engine.
"""

from __future__ import annotations

import argparse
import ipaddress
import socket
import sys
import threading
from typing import Dict, Optional, Tuple

from repro import obs
from repro.engine.database import dataset_fingerprint
from repro.engine.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    OPS,
    FrameCorruptionError,
    check_body,
    decode_request,
    encode_message,
    read_frame,
    write_frame,
)


class EngineServer:
    """Serve one engine backend to many framed-RPC TCP clients."""

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        workload_info: Optional[Dict] = None,
        owns_backend: bool = False,
        metrics_endpoint: bool = False,
    ) -> None:
        self.backend = backend
        self.max_frame_bytes = max_frame_bytes
        self.workload_info = dict(workload_info or {})
        self._owns_backend = owns_backend
        # Opt-in plain-HTTP ``/metrics`` on the same listener (no extra
        # port, no new RPC kind): frame clients always open with the
        # ``FOSW`` magic, so a ``GET `` prefix is unambiguous.
        self._metrics_endpoint = bool(metrics_endpoint)
        self._m_requests = obs.get_registry().counter(
            "engine_requests_total",
            "engine RPCs dispatched by op kind",
            ("kind",),
        )
        # Computed once: the handshake must not pay a full-table crc per
        # connection, and the dataset is immutable.
        self._fingerprint = dataset_fingerprint(backend.dataset)
        self.backend_name = backend.stats().get("backend")
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()  # guards _clients/_closed
        # client id -> (socket, handler thread); the handler prunes its own
        # entry on exit, so the registry tracks live connections only.
        self._clients: Dict[int, Tuple[socket.socket, threading.Thread]] = {}
        self._next_client = 0
        self._accept_thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def url(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def start(self) -> "EngineServer":
        """Accept clients on a background thread; returns immediately."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-engine-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve until :meth:`close` (or KeyboardInterrupt in ``main``)."""
        self._accept_loop()

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed — shutdown
            with self._lock:
                if self._closed:
                    sock.close()
                    return
                client_id = self._next_client
                self._next_client += 1
                thread = threading.Thread(
                    target=self._serve_client,
                    args=(client_id, sock),
                    name=f"repro-engine-client-{client_id}",
                    daemon=True,
                )
                self._clients[client_id] = (sock, thread)
                # Started under the lock: close() must never snapshot a
                # thread that exists but has not been started (join would
                # raise and skip the owned-backend shutdown).
                thread.start()

    def _serve_client(self, client_id: int, sock: socket.socket) -> None:
        stream = None
        try:
            try:
                # close() may have raced the accept and shut the socket.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self._metrics_endpoint:
                    # Peek (not read) the first bytes: a framed client opens
                    # with the FOSW magic, an HTTP scraper with ``GET ``.
                    # The peeked bytes stay in the kernel buffer, so the
                    # frame path below is untouched for RPC clients.
                    prefix = sock.recv(4, socket.MSG_PEEK)
                    if prefix == b"GET ":
                        self._serve_metrics_http(sock)
                        return
                stream = sock.makefile("rwb")
            except OSError:
                return
            while True:
                try:
                    # Deliberately lock-free: the handler blocks on its own
                    # client's socket only, so repro-lint's lock-blocking
                    # rule has nothing to flag here — never wrap this read
                    # (or the response write below) in the registry lock.
                    payload = read_frame(stream, max_frame_bytes=self.max_frame_bytes)
                except (FrameCorruptionError, OSError):
                    # Truncated/corrupt/dropped mid-frame: the stream can't
                    # be resynchronized; drop this client, keep serving the
                    # rest.  The backend was never touched by the bad frame.
                    return
                if payload is None:
                    return  # clean disconnect at a frame boundary
                blob = self._encode_reply(self._dispatch(payload))
                try:
                    write_frame(stream, blob, max_frame_bytes=self.max_frame_bytes)
                except (OSError, ValueError):
                    return  # client went away while we were answering
        finally:
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
            try:
                sock.close()
            except OSError:
                pass
            with self._lock:
                self._clients.pop(client_id, None)

    def _serve_metrics_http(self, sock: socket.socket) -> None:
        """Answer one plain-HTTP scrape (``/metrics`` | ``/metrics.json``).

        One request per connection, HTTP/1.0 style: read the request line,
        write the response, close.  Scrapers (curl, Prometheus) are happy
        with that, and it keeps the handler trivially stateless.
        """
        try:
            sock.settimeout(5.0)
            data = b""
            while b"\r\n" not in data and len(data) < 4096:
                chunk = sock.recv(1024)
                if not chunk:
                    return
                data += chunk
            request_line = data.split(b"\r\n", 1)[0].decode("latin-1", "replace")
            parts = request_line.split()
            path = parts[1] if len(parts) >= 2 else "/"
            response = obs.metrics_http_response(path)
            if response is None:
                body = b"not found\n"
                response = (
                    b"HTTP/1.0 404 Not Found\r\n"
                    b"Content-Type: text/plain; charset=utf-8\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                    + body
                )
            sock.sendall(response)
        except OSError:
            pass

    def _encode_reply(self, response) -> bytes:
        """The frame payload of a reply, or of an ``err`` saying why it cannot be sent."""
        try:
            blob = encode_message(response)
        except (TypeError, ValueError) as exc:
            return encode_message(("err", f"reply is not plain data: {exc!r}"))
        if len(blob) > self.max_frame_bytes:
            # Report the overflow as a normal error frame instead of
            # letting the write raise: dropping the socket would make the
            # client retry (and the backend re-execute) the same oversized
            # batch, and hide the real cause.
            blob = encode_message(
                (
                    "err",
                    f"response frame too large: {len(blob)} bytes > "
                    f"max_frame_bytes={self.max_frame_bytes}; split the batch "
                    f"into smaller *_many calls",
                )
            )
        return blob

    def _dispatch(self, payload: bytes):
        """One request → ``("ok", (result, executions, spans))`` or ``("err", msg)``.

        A request is ``[kind, body, contexts]``; its contexts are
        re-anchored on this machine's clock, so deadlines are enforced
        server-side.  The op comes from :data:`~repro.engine.wire.OPS`;
        the body is checked against its shape
        (:func:`~repro.engine.wire.check_body`), and the contexts against
        the batch length, before any query is bound or any backend method
        runs.  ``spans`` piggybacks the server-side spans of any traced
        context back to the client, and is empty otherwise.  An op is
        counted under its own name only when it is one the server knows;
        everything else shares one ``kind="unknown"`` series, so a peer
        cannot grow the metric set.
        """
        try:
            kind, body, ctxs = decode_request(payload)
        except Exception as exc:
            self._m_requests.labels(kind="unknown").inc()
            return ("err", f"undecodable request: {exc!r}")
        counted = kind if kind in OPS else "unknown"
        # Traced contexts grow a ``server.dispatch`` span; every span
        # recorded under these trace ids while the op runs is drained
        # afterwards and shipped back in the reply, so the client can join
        # them onto the caller's tree.
        trace_ids = {ctx.trace_id for ctx in ctxs or () if ctx is not None and ctx.trace_id}
        span = obs.span_for_ctxs("server.dispatch", ctxs, attrs={"kind": kind})
        if span.span_id is not None:
            ctxs = [
                ctx.with_parent_span(span.span_id)
                if ctx is not None and ctx.trace_id
                else ctx
                for ctx in ctxs
            ]
        try:
            op = check_body(kind, body)
            if ctxs is not None and op.batch is not None:
                items = op.batch(body)
                if len(ctxs) != len(items):
                    raise ValueError(f"{len(ctxs)} contexts for a batch of {len(items)}")
            result = op.handle(self, body, ctxs)
            span.end()
            spans = obs.get_tracer().drain(trace_ids) if trace_ids else ()
            return ("ok", (result, self.backend.executions, spans))
        except Exception as exc:
            span.end(status="error")
            if trace_ids:
                # err replies carry no spans; drain so the tracer's ring is
                # not left holding this trace's server-side spans.
                obs.get_tracer().drain(trace_ids)
            return ("err", f"{kind} failed: {exc!r}")
        finally:
            self._m_requests.labels(kind=counted).inc()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting, drop clients, release the backend; idempotent.

        Safe while handlers are mid-request: closing a client socket makes
        that handler's next read/write fail and exit; an owned backend is
        only closed after every handler thread has been joined (bounded).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            clients = list(self._clients.values())
        # shutdown() before close(): a thread blocked in accept() holds a
        # kernel reference that keeps the LISTEN socket alive (and the
        # port unbindable) even after close(); shutdown wakes it first.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for sock, _thread in clients:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for _sock, thread in clients:
            thread.join(timeout=5)
        if self._owns_backend:
            close = getattr(self.backend, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "EngineServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _is_loopback(host: str) -> bool:
    """Whether ``host`` names a loopback address (no name is resolved)."""
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def serve(
    workload: str,
    *,
    scale: float = 1.0,
    seed: int = 1,
    host: str = "127.0.0.1",
    port: int = 0,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    metrics: bool = False,
) -> EngineServer:
    """Build the dataset and engine for ``workload`` and return a server.

    The engine runs in the server process; the server owns it and releases
    it on :meth:`EngineServer.close`.  The returned server is *not*
    started.
    """
    from repro.workloads.base import WorkloadSpec

    database = WorkloadSpec(name=workload, scale=scale, seed=seed).build_database()
    return EngineServer(
        database,
        host=host,
        port=port,
        max_frame_bytes=max_frame_bytes,
        workload_info={"name": workload, "scale": scale, "seed": seed},
        owns_backend=True,
        metrics_endpoint=metrics,
    )


def main(argv=None) -> int:
    """The ``repro-engine`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-engine",
        description=(
            "Serve a FOSS expert engine over TCP: build the named workload's "
            "dataset and engine, and answer framed "
            "EngineBackend RPCs from repro clients (FossConfig.engine_url)."
        ),
    )
    parser.add_argument("workload", help="workload name: job | tpcds | stack")
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=1, help="datagen seed")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7733, help="bind port (0 = OS-assigned)"
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="serve plain-HTTP GET /metrics (Prometheus) and /metrics.json "
        "snapshots on the same listener",
    )
    parser.add_argument(
        "--max-frame-mb",
        type=float,
        default=DEFAULT_MAX_FRAME_BYTES / (1024 * 1024),
        help="reject frames above this size",
    )
    args = parser.parse_args(argv)
    if not _is_loopback(args.host):
        print(
            f"repro-engine: WARNING: --host {args.host} is not a loopback address. "
            f"Frames carry plain data, so no peer can run code here, but the port "
            f"is unauthenticated: anyone who can reach it can plan, execute and "
            f"clear caches on this engine. Expose it only on a private network.",
            file=sys.stderr,
            flush=True,
        )

    print(
        f"repro-engine: building workload {args.workload!r} "
        f"(scale={args.scale}, seed={args.seed})...",
        flush=True,
    )
    server = serve(
        args.workload,
        scale=args.scale,
        seed=args.seed,
        host=args.host,
        port=args.port,
        max_frame_bytes=int(args.max_frame_mb * 1024 * 1024),
        metrics=args.metrics,
    )
    # The listening line is machine-readable on purpose: launchers (CI, the
    # serve_remote example) wait for it and parse the url out of it.
    print(
        f"repro-engine: listening on {server.url} "
        f"(dataset_fingerprint={server.fingerprint})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
