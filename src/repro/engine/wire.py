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

Streams are file-like objects (``socket.makefile("rwb")`` on sockets):
``read(n)`` returning fewer than ``n`` bytes means EOF.  A clean EOF *at a
frame boundary* is reported as ``None`` from :func:`read_frame`; EOF
inside a frame is corruption — the peer died mid-message.
"""

from __future__ import annotations

import dataclasses
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional

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
# request-context wire form (protocol v2)
# ----------------------------------------------------------------------
# Contexts cross the socket as compact plain dicts, not pickled
# RequestContext instances: monotonic clocks do not transfer across
# machines, so the dict carries the *remaining* budget (``ttl_s``) and the
# receiver re-anchors it on its own clock.
#
# Layering: wire is the bottom of the engine stack and never imports the
# serving package.  Encoding is duck-typed (anything with ``to_wire``);
# decoding goes through a registered codec — :mod:`repro.api.context`
# registers ``RequestContext.from_wire`` when it is imported, so processes
# that run the serving layer decode full ``RequestContext`` objects —
# with :class:`WireContext` below as the engine-level fallback, so a
# standalone ``repro-engine`` server enforces deadlines without ever
# importing ``repro.api``.

#: Registered decoder: ``fn(data: dict) -> context``.  ``None`` until a
#: higher layer registers one; the fallback is :meth:`WireContext.from_wire`.
_context_decoder: Optional[Callable[[Dict], object]] = None


def register_context_decoder(decoder: Callable[[Dict], object]) -> None:
    """Install the codec used to rebuild contexts from v2 frames.

    Called by :mod:`repro.api.context` at import time (the dependency
    inversion that keeps the engine layer below the serving layer).  The
    decoder receives the plain dict from the wire and returns a context
    object re-anchored on this machine's clock.
    """
    global _context_decoder
    _context_decoder = decoder


@dataclass(frozen=True)
class WireContext:
    """An engine-level view of a request context rebuilt from the wire.

    Mirrors the deadline surface the engine consumes
    (``request_id``/``tenant``/``priority``/``expired()``/``remaining_s()``
    /``to_wire()``) without importing :mod:`repro.api`: ``anchored_at`` is
    this machine's monotonic clock at decode time and ``deadline_s`` is
    the remaining budget the frame carried, so expiry arithmetic matches
    :class:`repro.api.context.RequestContext` exactly.
    """

    request_id: str = ""
    tenant: str = ""
    anchored_at: float = 0.0
    deadline_s: Optional[float] = None
    priority: int = 0
    #: ``repro.obs`` trace membership (``None`` = untraced); carried so a
    #: standalone server still joins its spans onto the caller's trace.
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    def with_parent_span(self, span_id: Optional[str]) -> "WireContext":
        """A copy whose downstream spans parent on ``span_id``."""
        if span_id == self.parent_span_id:
            return self
        return dataclasses.replace(self, parent_span_id=span_id)

    @property
    def deadline_at(self) -> Optional[float]:
        if self.deadline_s is None:
            return None
        return self.anchored_at + self.deadline_s

    def remaining_s(self, now: Optional[float] = None) -> Optional[float]:
        deadline_at = self.deadline_at
        if deadline_at is None:
            return None
        if now is None:
            now = time.monotonic()  # repro-lint: allow[clock-monotonic]
        return max(0.0, deadline_at - now)

    def expired(self, now: Optional[float] = None) -> bool:
        deadline_at = self.deadline_at
        if deadline_at is None:
            return False
        if now is None:
            now = time.monotonic()  # repro-lint: allow[clock-monotonic]
        return now >= deadline_at

    def to_wire(self, now: Optional[float] = None) -> Dict:
        """Re-encode (for forwarding); same dict shape as the api codec."""
        data: Dict = {"id": self.request_id}
        if self.tenant:
            data["tenant"] = self.tenant
        if self.priority:
            data["priority"] = self.priority
        remaining = self.remaining_s(now)
        if remaining is not None:
            data["ttl_s"] = remaining
        # Trace keys only when tracing is live: untraced frames stay
        # byte-identical to the pre-obs wire format.
        if self.trace_id:
            data["trace"] = self.trace_id
            if self.parent_span_id:
                data["span"] = self.parent_span_id
        return data

    @classmethod
    def from_wire(cls, data: Optional[Dict]) -> Optional["WireContext"]:
        if data is None:
            return None
        return cls(
            request_id=str(data.get("id", "")),
            tenant=str(data.get("tenant", "")),
            anchored_at=time.monotonic(),  # repro-lint: allow[clock-monotonic]
            deadline_s=data.get("ttl_s"),
            priority=int(data.get("priority", 0)),
            trace_id=data.get("trace"),
            parent_span_id=data.get("span"),
        )


def decode_wire_context(data: Optional[Dict]):
    """One wire dict → a context, via the registered codec or the fallback."""
    if data is None:
        return None
    if _context_decoder is not None:
        return _context_decoder(data)
    return WireContext.from_wire(data)


def contexts_to_wire(ctxs, now: Optional[float] = None):
    """Encode an aligned context sequence for a v2 frame (``None`` → ``None``)."""
    if ctxs is None:
        return None
    return [None if ctx is None else ctx.to_wire(now) for ctx in ctxs]


def contexts_from_wire(wire_ctxs):
    """Rebuild contexts from a v2 frame, re-anchored on this machine's clock."""
    if wire_ctxs is None:
        return None
    return [decode_wire_context(data) for data in wire_ctxs]
