import json

import pytest

import spine_paths  # noqa: F401  (puts the harness and src/ on sys.path)

from spinebench.compare import compare, verdict


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [103.0, 104.0, 102.0], "lower", 0.10)[0] == "ok"
    result, worse_by = verdict(steady, [120.0, 121.0, 119.0], "lower", 0.10)
    assert result == "regression" and worse_by == pytest.approx(0.1970, abs=1e-3)
    # the same numbers are a gain when higher is better
    assert verdict(steady, [120.0, 121.0, 119.0], "higher", 0.10)[0] == "ok"
    assert verdict(steady, [80.0, 81.0, 79.0], "higher", 0.10)[0] == "regression"


def test_a_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [100.0, 140.0, 80.0, 120.0, 95.0]
    assert verdict(noisy, [101.0, 99.0, 100.0], "lower", 0.10)[0] == "unresolved"
    assert verdict([101.0, 99.0, 100.0], noisy, "lower", 0.10)[0] == "unresolved"
    assert verdict(noisy, [70.0, 75.0, 72.0], "lower", 0.10)[0] == "ok"


def record(workload, **metrics):
    return json.dumps(
        {"workload": workload, "trace": 0,
         "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()}}
    )


def test_compare_prints_a_row_per_workload_and_fails_only_on_regression(tmp_path):
    a, b, slow = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "slow.jsonl"
    a.write_text("\n".join(
        [record("job_cold", plans_per_s=v, setup_s=13.0) for v in (40.0, 41.0, 39.5)]
        + [record("job_hot", plans_per_s=v, setup_s=9.0) for v in (2500.0, 2480.0, 2510.0)]
    ))
    b.write_text("\n".join(
        [record("job_cold", plans_per_s=v, setup_s=13.1) for v in (40.2, 40.8, 39.9)]
        + [record("job_hot", plans_per_s=v, setup_s=9.1) for v in (2490.0, 2505.0, 2470.0)]
    ))
    slow.write_text("\n".join(
        [record("job_cold", plans_per_s=v, setup_s=13.0) for v in (27.0, 28.0, 27.5)]
        + [record("job_hot", plans_per_s=v, setup_s=9.0) for v in (2495.0, 2485.0, 2500.0)]
    ))
    lines = []
    assert compare(str(a), str(b), out=lines.append) == 0
    assert sum("job_cold" in line for line in lines) == 2 and sum("job_hot" in line for line in lines) == 2
    assert all(line.endswith("ok") for line in lines[1:])

    lines = []
    assert compare(str(a), str(slow), out=lines.append) == 1
    flagged = [line for line in lines if line.endswith("regression")]
    assert len(flagged) == 1 and flagged[0].startswith("job_cold") and "plans_per_s" in flagged[0]
    assert any(line.startswith("job_hot") and line.endswith("ok") for line in lines)


def test_compare_refuses_fewer_than_three_runs(tmp_path):
    a = tmp_path / "a.jsonl"
    a.write_text(record("job_cold", plans_per_s=40.0) + "\n" + record("job_cold", plans_per_s=41.0))
    assert compare(str(a), str(a), out=lambda line: None) == 2
