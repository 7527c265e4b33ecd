"""repro.obs: metrics registry, tracer, exporters, and the serving views.

The contracts under test (see :mod:`repro.obs`):

* typed metrics — ``Counter`` rejects negative and non-finite
  increments, ``Gauge`` supports callback-backed values, ``Histogram``
  keeps a fixed bucket vector plus a *bounded* ring window (constant
  memory no matter how many observations pass through — the regression
  guard for the old list-append/slice latency windows);
* an observation is pure Python: it puts every value, NaN and ±inf
  included, in the slot the old ``np.searchsorted`` rule chose, and
  neither it nor a memo-hit ``optimize_sql`` touches numpy;
* one process-global registry — re-registration returns the same metric,
  type/labelname mismatches are loud, snapshots are plain JSON data;
* the tracer joins spans into trees by ``trace_id``, round-trips spans
  through their wire dicts (``ingest``/``drain``), and is bounded;
* exporters render the Prometheus text format (cumulative ``le`` buckets
  ending at ``+Inf``; non-finite values as ``NaN`` / ``+Inf`` / ``-Inf``)
  and a JSON snapshot, atomically via ``dump``;
* the ``REPRO_OBS`` gate: with tracing disabled, no trace ids are
  minted, contexts carry no trace keys on the wire, and span helpers
  return inert null spans — the exact pre-obs code path;
* ``OptimizerService`` telemetry: the registry's counters read the
  service's own tallies, the stats keys are unchanged, the latency window
  is bounded, a memo hit touches no metric but one observation in 64, and
  a collected service's series leave the registry.
"""

from __future__ import annotations

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.api import FossConfig, FossSession, OptimizedPlan, RequestContext
from repro.api.service import _HIT_SAMPLE_EVERY, _LATENCY_WINDOW, OptimizerService
from repro.core.aam import AAMConfig
from repro.obs import metrics as metrics_module
from repro.obs.export import render_json, render_prometheus, snapshot
from repro.obs.metrics import DEFAULT_BUCKETS_MS, Histogram, MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture()
def registry() -> MetricsRegistry:
    """A private registry so tests do not disturb the process-global one."""
    return MetricsRegistry()


@pytest.fixture()
def tracer() -> Tracer:
    return Tracer()


@pytest.fixture()
def obs_disabled():
    """Tracing off for the duration of the test; always restored."""
    previous = obs.set_enabled(False)
    try:
        yield
    finally:
        obs.set_enabled(previous)


@pytest.fixture()
def obs_enabled():
    previous = obs.set_enabled(True)
    try:
        yield
    finally:
        obs.set_enabled(previous)


_EDGE_VALUES = (
    math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310,
)


class _NoNumpy:
    """Stands in for numpy where a write path must not reach it."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used on a write path")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("t_requests_total", "requests")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_negative_increment_is_loud(self, registry):
        c = registry.counter("t_neg_total", "x")
        with pytest.raises(ValueError):
            c.inc(-1)

    @pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
    def test_non_finite_increment_is_loud(self, registry, amount):
        c = registry.counter("t_nonfinite_total", "x")
        c.inc(2)
        with pytest.raises(ValueError):
            c.inc(amount)
        c.inc()
        assert c.value == 3

    def test_labels_create_independent_series(self, registry):
        metric = registry.counter("t_by_tenant_total", "x", ("tenant",))
        metric.labels(tenant="a").inc()
        metric.labels(tenant="b").inc(3)
        assert metric.labels(tenant="a").value == 1
        assert metric.labels(tenant="b").value == 3

    def test_same_labels_return_same_child(self, registry):
        metric = registry.counter("t_same_total", "x", ("k",))
        assert metric.labels(k="v") is metric.labels(k="v")

    def test_callback_backed_value(self, registry):
        tally = {"hits": 0}
        child = registry.counter("t_read_total", "x", ("k",)).labels(k="v")
        child.set_function(lambda: tally["hits"])
        tally["hits"] = 7
        assert child.value == 7.0

    def test_remove_drops_one_series(self, registry):
        metric = registry.histogram("t_gone_ms", "x", ("k",))
        metric.labels(k="a").observe(1.0)
        kept = metric.labels(k="b")
        metric.remove(k="a")
        metric.remove(k="never")  # a missing series is ignored
        assert [(labels, child) for labels, child in metric.series()] == [({"k": "b"}, kept)]
        assert metric.labels(k="a").count == 0  # a fresh series
        with pytest.raises(ValueError):
            metric.remove(j="a")

    def test_remove_under_the_metric_lock_waits_for_the_next_read(self, registry):
        # What a finalizer does when the collector runs it inside a metric
        # method: it must neither block nor show the series again.
        metric = registry.counter("t_finalized_total", "x", ("k",))
        metric.labels(k="a").inc()
        with metric._lock:
            metric.remove(k="a")
        assert metric.series() == []


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("t_depth", "x")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == 4

    def test_callback_backed_value(self, registry):
        g = registry.gauge("t_cb", "x")
        g.set_function(lambda: 41 + 1)
        assert g.value == 42


class TestHistogram:
    def test_observe_count_sum_percentile(self, registry):
        h = registry.histogram("t_latency_ms", "x")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(10.0)
        assert h.percentile(50) == pytest.approx(2.5)
        assert h.mean() == pytest.approx(2.5)

    def test_window_is_bounded_ring(self, registry):
        h = registry.histogram("t_ring_ms", "x", window=100)
        for i in range(1000):
            h.observe(float(i))
        window = h.window_values()
        assert window.size == 100
        # The ring keeps the most recent observations.
        assert window.min() >= 900.0
        assert h.count == 1000  # cumulative count is not windowed
        assert h.window_nbytes() == 100 * np.dtype(np.float64).itemsize

    def test_fifty_thousand_observations_stay_constant_memory(self, registry):
        """The regression guard for the old list-append latency windows."""
        h = registry.histogram("t_mem_ms", "x", window=_LATENCY_WINDOW)
        for i in range(50_000):
            h.observe(float(i % 997))
        assert h.window_values().size == _LATENCY_WINDOW
        assert h.window_nbytes() == _LATENCY_WINDOW * 8
        assert h.count == 50_000

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_observe_matches_the_searchsorted_rule(self, data):
        """Slot, count, sum and window equal the old numpy update's."""
        uppers = data.draw(
            st.just(DEFAULT_BUCKETS_MS)
            | st.lists(st.floats(allow_nan=False), min_size=1, max_size=8),
            label="buckets",
        )
        window = data.draw(st.integers(0, 6), label="window")
        h = Histogram("t_parity_ms", buckets=uppers, window=window)
        oracle_uppers = np.asarray(h.buckets, dtype=np.float64)
        values = data.draw(
            st.lists(
                st.floats() | st.sampled_from(_EDGE_VALUES + tuple(uppers)), max_size=30
            ),
            label="values",
        )
        counts = np.zeros(oracle_uppers.size + 1, dtype=np.int64)
        total = 0.0
        ring = np.zeros(window, dtype=np.float64)
        for count, value in enumerate(values, start=1):
            # The old rule, kept as the oracle.
            slot = int(np.searchsorted(oracle_uppers, value, side="left"))
            counts[slot] += 1
            total += value
            if window:
                ring[(count - 1) % window] = value
            before = h.bucket_counts()
            h.observe(value)
            moved = h.bucket_counts() - before
            assert moved[slot] == 1 and moved.sum() == 1, (value, uppers)
            assert h.count == count
            assert h.sum.hex() == total.hex()
            assert h.window_values().tobytes() == ring[: min(count, window)].tobytes()
        assert h.bucket_counts().tolist() == counts.tolist()

    def test_observe_needs_no_numpy(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "np", _NoNumpy())
        h = Histogram("t_no_numpy_ms", buckets=(1.0, 10.0), window=3)
        for value in (0.5, 5.0, 50.0, math.nan, math.inf, -0.0):
            h.observe(value)
        assert h.count == 6


class TestRegistry:
    def test_reregistration_returns_same_metric(self, registry):
        a = registry.counter("t_dup_total", "x")
        b = registry.counter("t_dup_total", "x")
        assert a is b

    def test_type_mismatch_is_loud(self, registry):
        registry.counter("t_kind_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("t_kind_total", "x")

    def test_labelname_mismatch_is_loud(self, registry):
        registry.counter("t_lbl_total", "x", ("a",))
        with pytest.raises(ValueError):
            registry.counter("t_lbl_total", "x", ("b",))

    def test_snapshot_is_plain_data(self, registry):
        registry.counter("t_snap_total", "x").inc(2)
        registry.histogram("t_snap_ms", "x").observe(7.0)
        snap = registry.snapshot()
        json.dumps(snap)  # must be JSON-serializable as-is
        assert snap["t_snap_total"]["series"][0]["value"] == 2
        hist = snap["t_snap_ms"]["series"][0]
        assert hist["count"] == 1 and hist["sum"] == pytest.approx(7.0)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_begin_end_records_and_parents(self, tracer, obs_enabled):
        tid = obs.new_trace_id()
        root = tracer.begin("root", trace_id=tid)
        child = tracer.begin("child", trace_id=tid, parent_id=root.span_id)
        child.end()
        root.end()
        spans = tracer.spans(tid)
        assert [s.name for s in spans] == ["child", "root"]
        tree = tracer.tree(tid)
        assert len(tree) == 1 and tree[0]["name"] == "root"
        assert tree[0]["children"][0]["name"] == "child"

    def test_span_end_is_idempotent(self, tracer, obs_enabled):
        tid = obs.new_trace_id()
        span = tracer.begin("once", trace_id=tid)
        span.end()
        span.end()
        assert len(tracer.spans(tid)) == 1

    def test_wire_round_trip_via_ingest_and_drain(self, tracer, obs_enabled):
        tid = obs.new_trace_id()
        with tracer.begin("op", trace_id=tid, attrs={"k": "v"}):
            pass
        drained = tracer.drain({tid})
        assert len(drained) == 1 and tracer.spans(tid) == []
        assert drained[0]["name"] == "op" and drained[0]["attrs"] == {"k": "v"}
        other = Tracer()
        other.ingest(drained)
        spans = other.spans(tid)
        assert len(spans) == 1 and spans[0].attrs == {"k": "v"}

    def test_capacity_is_bounded(self, obs_enabled):
        small = Tracer(capacity=8)
        tid = obs.new_trace_id()
        for i in range(100):
            small.add(f"s{i}", trace_id=tid, start_s=0.0, end_s=1.0)
        assert len(small) == 8

    def test_orphan_spans_surface_as_roots(self, tracer, obs_enabled):
        tid = obs.new_trace_id()
        tracer.add("lost-parent", trace_id=tid, parent_id="s-missing", start_s=0.0, end_s=1.0)
        tree = tracer.tree(tid)
        assert len(tree) == 1 and tree[0]["name"] == "lost-parent"


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_prometheus_text_format(self, registry):
        registry.counter("t_exp_total", "help text", ("op",)).labels(op="plan").inc(3)
        h = registry.histogram("t_exp_ms", "x", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        text = render_prometheus(registry)
        assert "# HELP t_exp_total help text" in text
        assert "# TYPE t_exp_total counter" in text
        assert 't_exp_total{op="plan"} 3' in text
        # Cumulative le buckets ending at +Inf, plus _sum/_count.
        assert 't_exp_ms_bucket{le="1"} 1' in text
        assert 't_exp_ms_bucket{le="10"} 2' in text
        assert 't_exp_ms_bucket{le="+Inf"} 3' in text
        assert "t_exp_ms_count 3" in text

    def test_non_finite_values_scrape(self, registry):
        h = registry.histogram("t_inf_ms", "x", buckets=(1.0,))
        h.observe(math.inf)
        registry.gauge("t_nan", "x").set(math.nan)
        registry.gauge("t_neg_inf", "x").set(-math.inf)
        text = render_prometheus(registry)
        assert "t_inf_ms_sum +Inf" in text
        assert 't_inf_ms_bucket{le="+Inf"} 1' in text
        assert "t_nan NaN" in text
        assert "t_neg_inf -Inf" in text

    def test_json_snapshot_with_sources_and_errors(self, registry, tracer):
        registry.counter("t_js_total", "x").inc()

        def broken():
            raise RuntimeError("boom")

        snap = snapshot(registry, tracer, sources={"good": lambda: {"a": 1}, "bad": broken})
        assert snap["sources"]["good"] == {"a": 1}
        assert "boom" in snap["sources"]["bad"]["error"]
        parsed = json.loads(render_json(registry, tracer))
        assert "t_js_total" in parsed["metrics"]

    def test_dump_writes_atomically(self, registry, tmp_path):
        registry.counter("t_dump_total", "x").inc()
        path = tmp_path / "metrics.json"
        obs.dump(str(path), registry=registry, fmt="json")
        data = json.loads(path.read_text())
        assert "t_dump_total" in data["metrics"]
        prom = tmp_path / "metrics.prom"
        obs.dump(str(prom), registry=registry, fmt="prometheus")
        assert "t_dump_total" in prom.read_text()

    def test_metrics_http_response_paths(self):
        ok = obs.metrics_http_response("/metrics")
        assert ok is not None and ok.startswith(b"HTTP/1.0 200")
        js = obs.metrics_http_response("/metrics.json")
        assert js is not None and b"application/json" in js
        assert obs.metrics_http_response("/nope") is None


# ----------------------------------------------------------------------
# the REPRO_OBS gate
# ----------------------------------------------------------------------
class TestEnableGate:
    def test_disabled_mints_no_trace_ids(self, obs_disabled):
        assert obs.new_trace_id() is None
        ctx = RequestContext.mint(tenant="t", traced=True)
        assert ctx.trace_id is None
        assert set(ctx.to_wire()) == {"id", "tenant"}

    def test_disabled_span_helpers_are_inert(self, obs_disabled):
        ctx = RequestContext.mint(tenant="t", traced=True)
        span = obs.span_for_ctxs("x", [ctx])
        assert span.span_id is None
        with span:  # no-op context manager, records nothing
            pass

    def test_enabled_traced_context_carries_trace_keys(self, obs_enabled):
        ctx = RequestContext.mint(tenant="t", traced=True)
        assert ctx.trace_id is not None
        wire = ctx.with_parent_span("s-1").to_wire()
        assert wire["trace"] == ctx.trace_id and wire["span"] == "s-1"
        back = RequestContext.from_wire(wire)
        assert back.trace_id == ctx.trace_id and back.parent_span_id == "s-1"

    def test_untraced_wire_form_is_byte_identical(self, obs_enabled):
        ctx = RequestContext.mint(tenant="t")
        assert "trace" not in ctx.to_wire() and "span" not in ctx.to_wire()

    def test_set_enabled_returns_previous(self):
        previous = obs.set_enabled(False)
        try:
            assert obs.set_enabled(True) is False
        finally:
            obs.set_enabled(previous)


# ----------------------------------------------------------------------
# serving telemetry as registry views
# ----------------------------------------------------------------------
class TestServiceObsViews:
    def _service(self, **kwargs) -> OptimizerService:
        # No optimizer/backend needed: these tests drive the telemetry
        # surfaces directly, never a flush.
        return OptimizerService(None, None, **kwargs)

    def test_stats_keys_include_legacy_and_obs(self):
        stats = self._service().stats()
        for key in (
            "requests",
            "served",
            "failures",
            "expired",
            "rejected",
            "pending",
            "cache_hits",
            "cache_misses",
            "results_evicted",
            "batches",
        ):
            assert key in stats, key

    def test_latency_window_is_bounded_over_50k_requests(self):
        service = self._service()
        for i in range(50_000):
            service._latency.observe(float(i % 1009))
        window = service._latency.window_values()
        assert window.size == _LATENCY_WINDOW
        assert service._latency.window_nbytes() == _LATENCY_WINDOW * 8
        stats = service.stats()
        assert stats["latency_p50_ms"] > 0.0

    def test_tenant_label_lands_on_the_series(self, job_workload):
        service = OptimizerService(_ExpertOptimizer(job_workload.database),
                                   job_workload.database, tenant="acme")
        sql = job_workload.train[0].sql
        service.optimize_sql(sql)
        service.optimize_sql(sql)  # a memo hit
        hits = obs.get_registry().get("serving_cache_hits_total")
        acme = [child.value for labels, child in hits.series() if labels["tenant"] == "acme"]
        assert service.stats()["cache_hits"] == 1 and 1.0 in acme

    def test_a_collected_service_takes_its_series_along(self, job_workload):
        registry = obs.get_registry()
        serving = [metric for metric in registry.metrics() if metric.name.startswith("serving_")]

        def service_labels():
            return {labels["service"] for metric in serving for labels, _ in metric.series()}

        live = OptimizerService(_ExpertOptimizer(job_workload.database),
                                job_workload.database, tenant="live")
        sql = job_workload.train[0].sql
        live.optimize_sql(sql)
        live.optimize_sql(sql)
        before = service_labels()
        services = [OptimizerService(None, None, tenant="dropped") for _ in range(50)]
        added = service_labels() - before
        assert len(added) == 50
        del services
        gc.collect()
        assert not service_labels() & added
        assert service_labels() >= before
        hits = registry.get("serving_cache_hits_total")
        assert [child.value for labels, child in hits.series() if labels["tenant"] == "live"] \
            == [1.0]
        latency = registry.get("serving_latency_ms")
        assert [child.count for labels, child in latency.series() if labels["tenant"] == "live"] \
            == [1]


def test_memo_hit_needs_no_numpy(job_workload, monkeypatch):
    config = FossConfig(
        max_steps=2, seed=33,
        aam=AAMConfig(
            d_model=16, d_embed=8, d_state=16, num_heads=2, num_layers=1,
            ff_hidden=16, epochs=1,
        ),
    )
    with FossSession.open(workload=job_workload, config=config) as session:
        service = session.service()
        sql = job_workload.train[0].sql
        first = service.optimize_sql(sql)  # the miss fills the memo
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(metrics_module, "np", _NoNumpy())
            for cls in (metrics_module._CounterChild, metrics_module._HistogramChild):
                for name, member in list(vars(cls).items()):
                    if callable(member) or isinstance(member, property):
                        patch.setattr(cls, name, _spied(member, f"{cls.__name__}.{name}", calls))
            hits = [service.optimize_sql(sql) for _ in range(_HIT_SAMPLE_EVERY - 1)]
            assert calls == []
            hits.append(service.optimize_sql(sql))
            assert calls == ["_HistogramChild.observe"]
        assert all(hit is first for hit in hits)
        assert service.stats()["cache_hits"] == _HIT_SAMPLE_EVERY


def _spied(member, name: str, calls: list):
    """``member`` (a method or a property) logging ``name`` on every call."""
    if isinstance(member, property):
        return property(_spied(member.fget, name, calls))

    def spy(*args, **kwargs):
        calls.append(name)
        return member(*args, **kwargs)

    return spy


class _ExpertOptimizer:
    """Serves the expert's plan: enough optimizer for a service to miss and hit."""

    def __init__(self, database) -> None:
        self.database = database

    def optimize_many(self, queries, ctxs=None):
        return [OptimizedPlan(self.database.plan(query).plan, 0.0, 1, 0) for query in queries]


def test_observability_facade_renders_both_formats():
    facade = obs.get_observability()
    text = facade.prometheus()
    assert "# TYPE" in text or text == ""
    json.loads(facade.json())
