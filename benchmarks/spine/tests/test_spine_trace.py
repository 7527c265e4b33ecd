import inspect
import threading

import pytest

import spine_paths  # noqa: F401  (puts the harness and src/ on sys.path)

from spinebench import settings
from spinebench.trace import Span, Tracer, covered_time, instrumented, layer_budget, self_times, targets


def span(id, name, start, end, parent=None, thread=1):
    made = Span(id, name, start, parent, thread)
    made.end = end
    return made


def fake_clock(*times):
    return iter(times).__next__


def test_nested_span_takes_its_time_out_of_the_parent():
    totals = self_times([span(0, "a", 0.0, 10.0), span(1, "b", 2.0, 5.0, parent=0)])
    assert totals == {"a": (7.0, 1), "b": (3.0, 1)}


def test_siblings_and_grandchildren():
    spans = [
        span(0, "a", 0.0, 10.0),
        span(1, "b", 1.0, 3.0, parent=0),
        span(2, "b", 4.0, 8.0, parent=0),
        span(3, "c", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == {"a": (4.0, 1), "b": (5.0, 2), "c": (1.0, 1)}
    assert sum(seconds for seconds, _ in self_times(spans).values()) == 10.0


def test_raising_span_is_closed_and_counted():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 4.0, 6.0))
    with pytest.raises(KeyError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise KeyError("boom")
    assert self_times(tracer.spans) == {"outer": (3.0, 1), "inner": (3.0, 1)}
    assert tracer._stack() == []  # nothing left open for the next span to parent on


def test_a_layer_calling_itself_is_one_span():
    tracer = Tracer(clock=fake_clock(0.0, 5.0))
    with tracer.span("engine.plan"):
        with tracer.span("engine.plan"):
            pass
    assert self_times(tracer.spans) == {"engine.plan": (5.0, 1)}


def test_threads_keep_their_own_parents():
    tracer = Tracer()
    ready = threading.Barrier(2)

    def body(name):
        with tracer.span(name):
            ready.wait(timeout=5)  # both outer spans are open at once
            with tracer.span("leaf"):
                pass

    threads = [threading.Thread(target=body, args=(name,)) for name in ("left", "right")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 2
    for leaf in leaves:
        assert by_id[leaf.parent].thread == leaf.thread
    assert {by_id[leaf.parent].name for leaf in leaves} == {"left", "right"}


def test_overlapping_threads_are_covered_once():
    spans = [
        span(0, "a", 0.0, 4.0, thread=1),
        span(1, "b", 3.0, 6.0, thread=2),
        span(2, "c", 8.0, 9.0, thread=1),
        span(3, "d", 3.5, 3.8, parent=1, thread=2),  # not a root: ignored
    ]
    assert covered_time(spans) == 7.0
    # self times still add per thread: 4 + (3 - 0.3) + 1 + 0.3
    assert sum(seconds for seconds, _ in self_times(spans).values()) == pytest.approx(8.0)


def test_layer_budget_rows_add_up_to_the_wall():
    spans = [
        span(0, "api.session.load", -5.0, -1.0),  # opened by the harness, outside the wall
        span(1, "api.service.sync", 0.0, 8.0),
        span(2, "engine.plan", 1.0, 7.0, parent=1),
    ]
    row = layer_budget(spans, 10.0, 1, settings.LAYERS)
    assert row["engine.plan.self_s"] == 6.0 and row["engine.plan.calls"] == 1
    per_pass = layer_budget(spans, 10.0, 2, settings.LAYERS)  # the same spans over two passes
    assert per_pass["engine.plan.self_s"] == 3.0 and per_pass["engine.plan.calls"] == 0.5
    assert per_pass["engine.plan.share"] == row["engine.plan.share"]
    assert row["engine.plan.share"] == pytest.approx(0.6)
    assert row["api.service.sync.share"] == pytest.approx(0.2)
    assert row["api.session.load.self_s"] == 4.0
    assert row["trace.unattributed_share"] == pytest.approx(0.2)
    assert row["core.aam.train.calls"] == 0
    timed_shares = sum(
        row[f"{layer}.share"] for layer in settings.LAYERS if layer != "api.session.load"
    )
    assert timed_shares + row["trace.unattributed_share"] == pytest.approx(1.0)
    assert set(row) <= {name for name, *_ in settings.PER_LAYER}


def test_instrumented_wraps_every_layer_and_restores():
    from repro.core.inference import FossOptimizer

    assert {layer for *_, layer in targets()} | {"api.session.load"} == set(settings.LAYERS)
    before = {(cls, method): cls.__dict__[method] for cls, method, _ in targets()}
    with instrumented(Tracer()):
        for (cls, method), original in before.items():
            assert cls.__dict__[method] is not original
        # the service looks for this parameter before it passes contexts down
        assert "ctxs" in inspect.signature(FossOptimizer.optimize_many).parameters
    for (cls, method), original in before.items():
        assert cls.__dict__[method] is original
