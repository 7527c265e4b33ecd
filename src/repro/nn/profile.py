"""Op-level profiling counters for the nn hot path.

:meth:`repro.nn.tensor.Function.apply`, the one op dispatch point, is
the only writer.  Two kinds of instrumentation, with very different costs:

* ``COUNTERS.tape_nodes`` is **always on**: every autograd tape node built
  (a tensor carrying its op's context) increments it.  This is one
  attribute increment per *training* op — negligible next to the context
  it counts — and it is what lets tests assert inference never builds a
  tape: under ``no_grad`` a full policy + AAM forward must leave the
  counter untouched.

* Per-op call counts, output bytes and wall time are recorded only inside
  a :func:`profile` block.  Outside it an op pays a single module-global
  bool check.

Typical use::

    from repro.nn import profile

    with profile.profile() as prof:
        model.forward(batch)
    assert prof.tape_nodes == 0          # inference never taped
    print(prof.summary())                # per-op calls / bytes / ms
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

__all__ = ["COUNTERS", "OpCounters", "profile", "record"]


class OpCounters:
    """Mutable counter block written by ``Function.apply``."""

    __slots__ = ("calls", "bytes", "seconds", "tape_nodes", "inference_tensors")

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        # Autograd tape nodes built (always counted, see module docstring).
        self.tape_nodes = 0
        # Graph-free tensors built by ops (counted only while profiling is
        # enabled).
        self.inference_tensors = 0

    def reset(self) -> None:
        self.calls.clear()
        self.bytes.clear()
        self.seconds.clear()
        self.tape_nodes = 0
        self.inference_tensors = 0

    # ------------------------------------------------------------------
    def total_calls(self) -> int:
        return sum(self.calls.values())

    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def top_ops(self, n: int = 10, by: str = "calls") -> List[Tuple[str, int]]:
        source = getattr(self, by)
        return sorted(source.items(), key=lambda kv: kv[1], reverse=True)[:n]

    def as_dict(self) -> Dict:
        """JSON-friendly snapshot (op maps sorted by call count)."""
        order = sorted(self.calls, key=self.calls.__getitem__, reverse=True)
        return {
            "tape_nodes": self.tape_nodes,
            "inference_tensors": self.inference_tensors,
            "total_calls": self.total_calls(),
            "total_bytes": self.total_bytes(),
            "ops": {
                op: {
                    "calls": self.calls[op],
                    "bytes": self.bytes[op],
                    "ms": round(self.seconds[op] * 1000.0, 3),
                }
                for op in order
            },
        }

    def summary(self, n: int = 12) -> str:
        lines = [
            f"tape_nodes={self.tape_nodes} inference_tensors={self.inference_tensors} "
            f"calls={self.total_calls()} bytes={self.total_bytes()}"
        ]
        for op, calls in self.top_ops(n):
            lines.append(
                f"  {op:<16} calls={calls:<8} bytes={self.bytes[op]:<12} "
                f"ms={self.seconds[op] * 1000.0:.3f}"
            )
        return "\n".join(lines)


COUNTERS = OpCounters()

# Checked by ``Function.apply`` before timing and recording an op;
# flipping it is the only cost profiling imposes on un-profiled runs.
ENABLED = False


def record(op: str, nbytes: int = 0, seconds: float = 0.0) -> None:
    """Record one op invocation (call under ``if profile.ENABLED`` only)."""
    COUNTERS.calls[op] += 1
    if nbytes:
        COUNTERS.bytes[op] += nbytes
    if seconds:
        COUNTERS.seconds[op] += seconds


def observability_snapshot() -> Dict:
    """The nn-profiler's contribution to a ``repro.obs`` snapshot.

    Registered as a snapshot source by ``FossSession.observability()``;
    deliberately free of any ``repro.obs`` import so the nn layer stays at
    the bottom of the dependency DAG.
    """
    return {"enabled": ENABLED, **COUNTERS.as_dict()}


@contextlib.contextmanager
def profile() -> Iterator[OpCounters]:
    """Reset the counters and enable per-op recording for the block."""
    global ENABLED
    COUNTERS.reset()
    previous = ENABLED
    ENABLED = True
    try:
        yield COUNTERS
    finally:
        ENABLED = previous
