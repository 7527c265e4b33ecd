import pytest

import spine_paths  # noqa: F401  (puts the harness and src/ on sys.path)

from spinebench import loadgen


class FakeTime:
    """A clock that only moves when someone sleeps or works on it."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_a_generator_stall_is_charged_to_the_requests_it_delayed():
    time = FakeTime()

    def send(item):
        time.now += 0.050 if item == 3 else 0.0002  # request 3 stalls the generator
        return item

    def wait(handle):
        time.now += 0.001
        return "plan"

    records = []
    loadgen.generate(send, range(10), 100.0, records.append, clock=time, sleep=time.sleep)

    # the schedule does not slide: request i stays due at start + i * 10 ms
    assert [r.intended for r in records] == pytest.approx([100.0 + 0.01 * i for i in range(10)])
    late = [r.late_ms for r in records]
    assert late[:4] == pytest.approx([0.0] * 4, abs=1e-6)
    # the stall ends 80 ms in; 4..8 were due before that and go out back to back
    assert late[4] == pytest.approx(40.0) and late[5] == pytest.approx(30.2)
    assert late[4] > late[5] > late[6] > late[7] > late[8] > 0
    assert late[9] == pytest.approx(0.0, abs=1e-6)  # caught up

    done = loadgen.collect(wait, records[4], clock=time)
    # measured from when it was due, not from when the generator got to it
    assert done.latency_ms == pytest.approx((time.now - records[4].intended) * 1000.0)
    assert done.latency_ms > done.late_ms > 39.9
    assert done.outcome == "plan"


def test_a_refused_request_is_an_outcome():
    def send(item):
        if item == 1:
            raise RuntimeError("queue full")
        return item

    records = loadgen.open_loop(send, lambda handle: handle * 2, [0, 1, 2], 10_000.0)
    assert [r.item for r in records] == [0, 1, 2]
    assert [r.outcome for r in records if not isinstance(r.outcome, Exception)] == [0, 4]
    assert isinstance(records[1].outcome, RuntimeError)
    assert all(r.done >= r.sent >= r.intended for r in records)


def test_a_failing_wait_is_an_outcome_too():
    def wait(handle):
        raise TimeoutError("never resolved")

    (record,) = loadgen.open_loop(lambda item: item, wait, ["q"], 1000.0)
    assert isinstance(record.outcome, TimeoutError)


def test_a_crash_in_a_loadgen_thread_surfaces():
    def send(item):
        raise KeyboardInterrupt  # not an Exception: must not be swallowed as an outcome

    with pytest.raises(KeyboardInterrupt):
        loadgen.open_loop(send, lambda handle: handle, ["a"], 1000.0)
