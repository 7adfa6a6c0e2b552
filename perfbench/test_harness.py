"""Quick self-check of the benchmark harness; run with `python -m pytest perfbench`.

Runs every workload at tiny size through run.py, untraced and traced, and
checks that each metric BENCHMARK.json names is emitted with its unit, that
no op fails, and that traced self times add up to the traced wall time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
from workload import REF_MS, latency_metrics, scaled_by_op  # noqa: E402
from workloads import WORKLOADS, Op, check_output  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_all(trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def _check_result(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {f"{w}.{s['name']}": s["unit"] for w in WORKLOADS for s in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(layertrace.PER_LAYER)


def test_end_to_end_metrics_emitted():
    result, text = _run_all(0)
    _check_result(result, SPEC["end_to_end"])
    # the report prints each metric by name for every workload, failed_frac too
    for name in [s["name"] for s in SPEC["end_to_end"]] + ["failed_frac"]:
        assert text.count(f"  {name} ") == len(WORKLOADS)


def test_per_layer_metrics_emitted_and_self_times_add_up():
    result, _ = _run_all(1)
    _check_result(result, SPEC["per_layer"])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    for w in WORKLOADS:
        own = sum(values[f"{w}.{f}.self_ms"] for f in layertrace.FUNCTIONS)
        total = own + values[f"{w}.uninstrumented.self_ms"]
        assert total == pytest.approx(values[f"{w}.traced_wall_ms"], rel=1e-9)
        assert values[f"{w}.cli.main.calls"] == 1.0
        assert values[f"{w}.cli.dumps_json.calls"] <= 1.0  # recursion folds into one span


def test_each_op_counts_once_and_tail_has_ten_beyond():
    by_op = {i: [i / 1000, 2 * i / 1000] for i in range(1, 41)}  # op i: i ms, then 2i ms
    by_op[41] = [0.0615]  # an op the last, partial pass reached once
    m = latency_metrics(by_op)
    assert m["samples"] == 41 and m["ops_per_s"] == pytest.approx(41 / 1.2915)
    assert m["tail_beyond"] == 10 and m["tail_percentile"] == pytest.approx(100 * 31 / 41)
    # Harrell-Davis estimates over 1.5, 3, ..., 61.5 ms: p50 at the middle value,
    # the tail between the values ranked 31 and 32 of 41
    assert m["op_ms_p50"] == pytest.approx(31.5, rel=1e-4)
    assert 46.5 < m["op_ms_tail"] < 48.0


def test_a_slower_machine_reads_the_same():
    # the same run on a machine 1.7x slower throughout, references included
    def run(slowdown):
        latencies = [slowdown * 0.1 * (1 + k % 3) for k in range(12)]
        refs = [slowdown * REF_MS / 1e3] * 13
        return scaled_by_op(latencies, refs, pool=3)

    assert sorted(run(1.0)) == [0, 1, 2]
    for op, lat in run(1.7).items():
        assert lat == pytest.approx(run(1.0)[op])
        assert lat == pytest.approx([0.1 * (1 + op)] * 4)


def test_gamma_check_takes_any_finite_number():
    op = Op(("gamma", "--input", "inst.json"), 7)
    assert check_output(op, 0, '{"gamma3": 98274000125093}') is None  # integral, no point
    assert check_output(op, 0, '{"gamma3": -0.0625}') is None
    for bad in ('{"gamma3": null}', '{"gamma3": true}', '{"gamma1": 1.5}', '{"gamma3": NaN}'):
        assert check_output(op, 0, bad) is not None


def test_missing_trace_target_fails_loudly(monkeypatch):
    monkeypatch.setitem(layertrace.TARGETS, "clusters", ("no_such_function",))
    with pytest.raises(LookupError, match="no_such_function"):
        layertrace.Tracer().install()


def test_wrappers_reach_names_imported_elsewhere():
    import shelyap
    import shelyap.cli
    import shelyap.closedform
    import shelyap.clusters

    original = shelyap.clusters.simulate_inertia
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for module in (shelyap, shelyap.cli, shelyap.closedform, shelyap.clusters):
            assert module.simulate_inertia.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert shelyap.cli.simulate_inertia is original
