"""Length-prefixed crc32 wire format, shared by fingerprints and sockets.

The repo has one integrity convention: fields are *length-prefixed* before
they enter a crc32 (bare concatenation would let distinct byte sequences
collide — ``["ab", "c"]`` vs ``["a", "bc"]``), and crc32 — never builtin
``hash()``, which varies with ``PYTHONHASHSEED`` — is the checksum.  Two
things build on it:

* :func:`crc32_chain` — the chaining step behind the session manifest's
  dataset fingerprint (:func:`repro.engine.database.dataset_fingerprint`);
* the **frame format** of the remote engine subsystem
  (:mod:`repro.engine.remote`): every message on the wire is one frame ::

      MAGIC (4 bytes) | payload length (u32 BE) | crc32(payload) (u32 BE) | payload

  A reader can therefore detect a truncated stream (short header or
  payload), a foreign/desynchronized stream (bad magic), a corrupted
  payload (crc mismatch → :class:`FrameCorruptionError`) and an abusive or
  garbage length (:class:`FrameTooLargeError`) before a single payload
  byte is interpreted.

The frames carry one request/reply protocol, :data:`PROTOCOL_VERSION`.  A
request payload is the pickle of ``(kind, body, wire_ctxs)``, where
``wire_ctxs`` is the aligned :func:`contexts_to_wire` list, or ``None``
for a call without contexts.  A reply is ``("ok", (result, executions,
spans))`` or ``("err", message)``; ``spans`` holds the server-side spans
of the request's traces and is empty when the request is untraced.  The
fingerprint handshake advertises the version, and a client refuses a
server that speaks any other: client and server ship from one tree.

Streams are file-like objects (``socket.makefile("rwb")`` on sockets):
``read(n)`` returning fewer than ``n`` bytes means EOF.  A clean EOF *at a
frame boundary* is reported as ``None`` from :func:`read_frame`; EOF
inside a frame is corruption — the peer died mid-message.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional

from repro.engine.context import RequestContext

#: The request/reply shape above; the fingerprint handshake advertises it.
PROTOCOL_VERSION = 3

MAGIC = b"FOSW"  # FOSS wire
_HEADER = struct.Struct(">4sII")  # magic, payload length, crc32(payload)
HEADER_SIZE = _HEADER.size

# Generous for batched plan/execute pickles at bench scales, small enough
# that a corrupted length field cannot make a reader try to buffer
# gigabytes before the crc check would catch it.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameCorruptionError(RuntimeError):
    """The stream does not contain a well-formed, checksum-valid frame."""


class FrameTooLargeError(FrameCorruptionError):
    """A frame's declared payload length exceeds the configured cap."""


def crc32_chain(crc: int, data: bytes) -> int:
    """Fold one length-prefixed field into a running crc32."""
    return zlib.crc32(data, zlib.crc32(f"{len(data)}:".encode("ascii"), crc))


def encode_frame(payload: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """One wire frame for ``payload``; rejects oversized payloads sender-side."""
    if len(payload) > max_frame_bytes:
        raise FrameTooLargeError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(max_frame_bytes={max_frame_bytes})"
        )
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def write_frame(
    stream, payload: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> None:
    """Write one frame to a file-like stream and flush it."""
    stream.write(encode_frame(payload, max_frame_bytes=max_frame_bytes))
    stream.flush()


def read_frame(
    stream, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[bytes]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`FrameCorruptionError` for truncation mid-frame, a bad
    magic, or a crc mismatch, and :class:`FrameTooLargeError` for a
    declared length above ``max_frame_bytes`` — in every case before any
    payload byte is handed to the caller.
    """
    header = stream.read(HEADER_SIZE)
    if not header:
        return None
    if len(header) < HEADER_SIZE:
        raise FrameCorruptionError(
            f"truncated frame header: got {len(header)} of {HEADER_SIZE} bytes"
        )
    magic, length, expected_crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameCorruptionError(
            f"bad frame magic {magic!r} (stream is not speaking the engine wire "
            f"protocol, or has desynchronized)"
        )
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame declares a {length}-byte payload "
            f"(max_frame_bytes={max_frame_bytes})"
        )
    payload = stream.read(length)
    if len(payload) < length:
        raise FrameCorruptionError(
            f"truncated frame payload: got {len(payload)} of {length} bytes"
        )
    actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if actual_crc != expected_crc:
        raise FrameCorruptionError(
            f"frame crc mismatch: header says {expected_crc:08x}, payload "
            f"checksums to {actual_crc:08x}"
        )
    return payload


# ----------------------------------------------------------------------
# request contexts on the wire
# ----------------------------------------------------------------------
# Contexts cross the socket as compact plain dicts, not pickled
# RequestContext instances: monotonic clocks do not transfer across
# machines, so the dict carries the *remaining* budget (``ttl_s``) and the
# receiver re-anchors it on its own clock.


def contexts_to_wire(ctxs, now: Optional[float] = None):
    """Encode an aligned context sequence for a request frame (``None`` → ``None``)."""
    if ctxs is None:
        return None
    return [None if ctx is None else ctx.to_wire(now) for ctx in ctxs]


def contexts_from_wire(wire_ctxs) -> Optional[List[Optional[RequestContext]]]:
    """Rebuild contexts from a request frame, re-anchored on this machine's clock."""
    if wire_ctxs is None:
        return None
    return [RequestContext.from_wire(data) for data in wire_ctxs]
