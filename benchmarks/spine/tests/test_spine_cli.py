import io
import json
import os
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import spine_paths  # noqa: F401  (puts the harness and src/ on sys.path)

from spinebench import cli, rig, settings, workloads

SPINE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(SPINE))


def test_benchmark_json_is_the_settings_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/spine"]
    assert contract["command"] == ["python3", "benchmarks/spine/run.py"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == settings.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == settings.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == settings.PER_LAYER
    assert len(contract["per_layer"]) <= 128 and all(len(w["why"]) <= 200 for w in contract["workloads"])
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}


def test_the_request_order_is_a_pure_function_of_the_seed():
    def draws(seed):
        bench = rig.Bench(seed=seed, seconds=1.0, traced=False, smoke=True, started=time.perf_counter())
        try:
            return (
                bench.rng.permutation(113).tolist(),
                workloads.zipf_draws(bench.rng, settings.HOT_QUERIES, 500).tolist(),
            )
        finally:
            assert bench.close() == []

    assert draws(7) == draws(7)
    assert draws(7) != draws(8)
    order, hot = draws(7)
    assert sorted(order) == list(range(113))
    counts = np.bincount(hot, minlength=settings.HOT_QUERIES)
    assert counts[0] == counts.max() and counts.min() > 0  # Zipf: rank one is the hot one


def run(argv):
    captured = io.StringIO()
    with redirect_stdout(captured):
        code = cli.main(argv)
    return code, captured.getvalue().strip().splitlines()


def test_smoke_run_of_all_five_checks_parity_and_schema(tmp_path):
    begin = time.perf_counter()
    for name, _why in settings.WORKLOADS:
        out = tmp_path / "runs.jsonl"
        code, lines = run(
            ["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke",
             "--out", str(out)]
        )
        assert code == 0
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m for m, *_ in settings.END_TO_END]
        for metric, (_, unit, *_rest) in zip(result["metrics"].values(), settings.END_TO_END):
            assert metric["unit"] == unit and metric["value"] > 0
        record = json.loads(out.read_text().splitlines()[-1])
        assert record["workload"] == name and record["stamp"]["smoke"] is True
        assert {"git_revision", "python", "platform", "nproc", "seed", "threads", "samples"} <= set(
            record["stamp"]
        )
        assert record["plan_digest"]
    assert time.perf_counter() - begin < 20.0
    assert not os.path.exists(rig.WORK_ROOT) or os.listdir(rig.WORK_ROOT) == []


def test_smoke_traced_run_prints_every_layer(tmp_path):
    spans = tmp_path / "spans.json"
    code, lines = run(
        ["--workload", "stack_cold", "--seed", "1", "--seconds", "0.2", "--trace", "1", "--smoke",
         "--trace-out", str(spans)]
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [m for m, *_ in settings.PER_LAYER]
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert values["trace.spans"] == len(json.loads(spans.read_text())) > 0
    for layer in ("api.service.submit", "api.service.flush", "sql.bind", "engine.plan",
                  "engine.hints", "core.aam.state", "rl.policy.act", "api.session.load"):
        assert values[f"{layer}.calls"] > 0 and values[f"{layer}.self_s"] > 0
    assert values["core.aam.train.calls"] == 0  # serving never trains
    assert 0.0 <= values["trace.unattributed_share"] < 0.5
    assert values["trace.overhead_x"] > 0


def test_unknown_workload_is_refused():
    with pytest.raises(SystemExit):
        run(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
