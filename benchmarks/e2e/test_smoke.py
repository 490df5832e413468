"""Smoke tests: each workload runs, names match the contract, checks can fail.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (about two
minutes; not part of tier-1, whose ``testpaths`` is ``tests``).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import cli, spec

RUNNER = Path(__file__).with_name("run.py")


def run_benchmark(*args: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(RUNNER), *args],
        capture_output=True, text=True, cwd=spec.ROOT, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return proc.returncode, result, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", spec.workload_names())
def test_workload_runs_and_prints_the_declared_names(workload):
    code, result, output = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "0"
    )
    assert code == 0, output
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(spec.declared("end_to_end"))
    for name, entry in result["metrics"].items():
        assert entry["unit"] == spec.declared("end_to_end")[name]["unit"]
        assert entry["value"] > 0
    assert "plan_digest" in output


def test_traced_run_prints_every_per_layer_name_and_writes_the_trace():
    code, result, output = run_benchmark(
        "--workload", "serve_delta_mix", "--seed", "3", "--seconds", "2", "--trace", "1"
    )
    assert code == 0, output
    assert list(result["metrics"]) == list(spec.declared("per_layer"))
    trace = spec.ROOT / ".bench_e2e" / "trace-serve_delta_mix.jsonl"
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    assert {"id", "parent", "lane", "name", "start", "end", "op"} <= set(spans[0])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["serve.app.keepalive_bellwether_ms"] == pytest.approx(
        values["serve.state.bellwether_warm_ms"] + values["serve.app.http_overhead_ms"]
    )
    assert "bench.tracing_overhead_share" in values
    assert "self times sum to" in output


@pytest.mark.parametrize("workload", spec.workload_names())
def test_corrupt_hook_raises_failed_and_the_exit_code(workload):
    code, result, output = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "2", "--corrupt", "3"
    )
    assert code == 1, output
    assert result["failed"] == 3 and result["correct"] is False


def test_same_seed_same_plan_other_seed_other_plan():
    from benchmarks.e2e import inputs

    ids = list(range(1, 301))
    assert inputs.cold_plan(5, ids, 40) == inputs.cold_plan(5, ids, 40)
    assert inputs.cold_plan(5, ids, 40) != inputs.cold_plan(6, ids, 40)
    # dealt: every block of five holds each size once, whatever the seed
    for seed in (5, 6):
        sizes = [len(q[2]) for q in inputs.cold_plan(seed, ids, 40)]
        assert all(sorted(sizes[i:i + 5]) == sorted(sizes[:5]) for i in range(0, 40, 5))


def test_only_processor_time_is_converted_to_reference_units():
    from benchmarks.e2e.harness import to_reference

    assert to_reference(100.0, 40.0, 2.0) == pytest.approx(70.0)   # 40 waited, 60 computed
    assert to_reference(43.6, 43.6, 1.8) == pytest.approx(43.6)    # all waiting: as measured
    assert to_reference(2.0, 40.0, 1.8) == pytest.approx(2.0)      # under the floor: as measured
    assert to_reference(220.0, 0.0, 1.1) == pytest.approx(200.0)   # all computing
    assert to_reference(0.5, -0.1, 2.0) == pytest.approx(0.25)     # more CPU than wall: all computing


def test_spec_agrees_with_benchmark_json():
    assert set(spec.WORKLOADS) == set(spec.workload_names())
    assert set(spec.LAYER_MOVES) == set(spec.declared("per_layer"))
    for name, w in spec.WORKLOADS.items():
        beyond = w.floor_samples * (1 - w.tail_q)
        assert beyond >= 10 - 1e-9, name
        higher = [q for q in (0.75, 0.90, 0.95, 0.99) if q > w.tail_q]
        assert all(w.floor_samples * (1 - q) < 10 for q in higher), name
    with pytest.raises(ValueError):
        spec.metrics_payload({"not_declared": 1.0}, trace=False)


def test_compare_tells_regression_from_unresolved(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    noisy = [80.0, 120.0, 70.0, 130.0, 100.0, 90.0, 110.0, 60.0, 140.0, 100.0]

    def write(name, p50, tail):
        path = tmp_path / name
        path.write_text(json.dumps({"serve_warm": {"op_p50_ms": p50, "op_tail_ms": tail}}))
        return str(path)

    a = write("a.json", steady, noisy)
    b = write("b.json", [v * 1.5 for v in steady], [v * 1.02 for v in noisy])
    assert cli.main(["compare", a, b]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out.split("op_p50_ms")[1].splitlines()[0]
    assert "unresolved" in out.split("op_tail_ms")[1].splitlines()[0]
