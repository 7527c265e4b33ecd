"""Clock-discipline rules.

The repo's deadline machinery is anchored on one monotonic clock
(``repro.engine.context.MonotonicClock``); wall-clock time in request logic
would make budgets jump under NTP steps and differ across machines, and
ad-hoc ``monotonic()`` calls scattered through layers would fork the
clock the deadline contract reasons about.  ``perf_counter`` is the
profiling clock and stays inside profiling/latency-measurement code.

Contracts previously stated in prose: ``repro.engine.context`` module
docstring ("Timestamps are time.monotonic seconds"), enforced by
``tests/test_request_context.py`` only for paths those tests happen to
execute.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.core import Finding, SourceFile, path_matches, path_under
from repro.analysis.registry import rule

WALL_CLOCKS: Set[str] = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
MONOTONIC_CLOCKS: Set[str] = {"time.monotonic", "time.monotonic_ns"}
PERF_CLOCKS: Set[str] = {"time.perf_counter", "time.perf_counter_ns"}


def _clock_references(sf: SourceFile) -> Iterator[tuple]:
    """Maximal Name/Attribute chains that resolve to a clock callable.

    References count, not just calls: ``field(default_factory=time.time)``
    is as wall-clocked as ``time.time()``.
    """
    for node in ast.walk(sf.tree):
        if not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        parent = sf.parents.get(node)
        if isinstance(parent, ast.Attribute) and parent.value is node:
            continue  # inner part of a longer chain; the chain head reports
        resolved = sf.resolve(node)
        if resolved is None:
            continue
        yield node, resolved


@rule(
    "clock-wall",
    contract="no wall-clock reads (time.time / datetime.now) anywhere in src",
)
def check_wall_clock(sf: SourceFile, project) -> Iterator[Finding]:
    if not path_under(sf.path, project.config.enforced_roots):
        return
    for node, resolved in _clock_references(sf):
        if resolved in WALL_CLOCKS:
            yield Finding(
                "clock-wall",
                sf.path,
                node.lineno,
                f"wall clock {resolved} is forbidden: deadline and timing "
                f"logic must use the monotonic clock (repro.engine.context)",
            )


@rule(
    "clock-monotonic",
    contract="time.monotonic only inside engine/context.py's MonotonicClock",
)
def check_monotonic_clock(sf: SourceFile, project) -> Iterator[Finding]:
    config = project.config
    if not path_under(sf.path, config.enforced_roots):
        return
    if path_matches(sf.path, config.monotonic_allow):
        return
    for node, resolved in _clock_references(sf):
        if resolved in MONOTONIC_CLOCKS:
            yield Finding(
                "clock-monotonic",
                sf.path,
                node.lineno,
                f"{resolved} outside the sanctioned clock module: take "
                f"timestamps from repro.engine.context (MonotonicClock / "
                f"RequestContext) so every layer shares one clock",
            )


@rule(
    "clock-perf-counter",
    contract="perf_counter only in allowlisted profiling/latency code",
)
def check_perf_counter(sf: SourceFile, project) -> Iterator[Finding]:
    config = project.config
    if not path_under(sf.path, config.enforced_roots):
        return
    if path_matches(sf.path, config.perf_counter_allow):
        return
    for node, resolved in _clock_references(sf):
        if resolved in PERF_CLOCKS:
            yield Finding(
                "clock-perf-counter",
                sf.path,
                node.lineno,
                f"{resolved} outside the profiling allowlist "
                f"([tool.repro-lint.clock] perf-counter-allow): the "
                f"profiling clock must not leak into request logic",
            )
