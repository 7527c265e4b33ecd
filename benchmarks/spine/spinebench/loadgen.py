"""The open-loop load generator: requests on a fixed schedule.

Independent users make an open loop — the next request is due whether
or not the last one came back — so each request is timed from when it
was *due*, which charges a stall to every request it delayed.  (Callers
that each wait for a reply make a closed loop; a slow system receives
less load, so it measures capacity, not latency.  The closed loops of
this benchmark are plain ``for`` loops in ``workloads.py``.)

``send(item)`` returns a handle, ``wait(handle)`` blocks for its outcome;
clock and sleep are injectable so the schedule arithmetic is testable
without threads or real time.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence


@dataclass
class Sent:
    item: object
    intended: float  # when the schedule said to send
    sent: float  # when the generator actually got to it
    handle: object  # what send() returned, or the exception it raised
    done: float = 0.0
    outcome: object = None  # what wait() returned, or the exception from send/wait

    @property
    def latency_ms(self) -> float:
        """From the intended send time, so generator stalls are not omitted."""
        return (self.done - self.intended) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.intended) * 1000.0


def run_threads(bodies: Sequence[Callable[[], None]], name: str) -> None:
    """Run each body on its own thread; re-raise the first failure here."""
    errors: List[BaseException] = []

    def guarded(body: Callable[[], None]) -> None:
        try:
            body()
        except BaseException as exc:  # re-raised on the calling thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(body,), name=f"{name}-{index}")
        for index, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def dispatch(send: Callable[[object], object], item: object, intended: float, sent: float) -> Sent:
    """Call ``send``; a refused request is an outcome, not a crash."""
    try:
        handle = send(item)
    except Exception as exc:
        handle = exc
    return Sent(item, intended, sent, handle)


def generate(
    send: Callable[[object], object],
    items: Iterable[object],
    rate_rps: float,
    emit: Callable[[Sent], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Send ``items`` at ``rate_rps`` on a schedule fixed at the first send.

    A late generator does not slide the schedule: it sends at once and
    the request's ``intended`` time stays where it was due.
    """
    interval = 1.0 / rate_rps
    start = clock()
    for index, item in enumerate(items):
        intended = start + index * interval
        delay = intended - clock()
        if delay > 0:
            sleep(delay)
        emit(dispatch(send, item, intended, clock()))


def collect(
    wait: Callable[[object], object],
    record: Sent,
    clock: Callable[[], float] = time.perf_counter,
) -> Sent:
    """Block for one request's outcome and stamp when the caller had it."""
    if isinstance(record.handle, Exception):
        record.outcome = record.handle
    else:
        try:
            record.outcome = wait(record.handle)
        except Exception as exc:
            record.outcome = exc
    record.done = clock()
    return record


def open_loop(
    send: Callable[[object], object],
    wait: Callable[[object], object],
    items: Sequence[object],
    rate_rps: float,
) -> List[Sent]:
    """One generator thread on the schedule, one collector thread."""
    handoff: "queue.SimpleQueue" = queue.SimpleQueue()
    records: List[Sent] = []

    def generator() -> None:
        try:
            generate(send, items, rate_rps, handoff.put)
        finally:
            handoff.put(None)

    def collector() -> None:
        while True:
            record = handoff.get()
            if record is None:
                return
            records.append(collect(wait, record))

    run_threads([generator, collector], "spine-open-loop")
    return records
