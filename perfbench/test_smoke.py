"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that no wrapper reaches an untraced process, that the traced counts match
each workload's rationale, and that run.py refuses to run without the
mtlopt sources.
"""

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _measure(workload, trace, tmp_path):
    args = argparse.Namespace(workload=workload, seed=1, seconds=1.0, trace=trace, tiny=True)
    work = tmp_path / f"{workload}-{trace}"
    work.mkdir()
    return run.measure(args, work)


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_probe_samples_inside_an_operation():
    assert hostspeed.speed([hostspeed.REFERENCE_S, hostspeed.REFERENCE_S / 2]) == pytest.approx(1.5)
    probe = hostspeed.Probe()

    def spin():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        return "done"

    value, own, ref_seconds = probe.measure(spin)
    assert value == "done"
    assert len(probe.samples) >= 5  # one before, then one per PROBE_PERIOD_S
    assert 0 < own < 0.2 <= own + sum(probe.samples[1:])  # the probes' own time is left out
    assert ref_seconds > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    out = _measure(workload, 0, tmp_path)
    result, report = out["result"], out["report"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["wrapper_leak"] == []
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    out = _measure(workload, 1, tmp_path)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert out["report"]["wrapper_leak"] == []
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # the counts below describe the code as it is when the benchmark was added
    if workload.startswith("quad_"):
        assert metrics["mlp.value.calls"] == metrics["mlp.gradient.calls"] == 0
    if workload != "quad_verify":
        assert metrics["verify.steps_simulated"] == 0
        assert all(metrics[n] == 0 for n in metrics if n.startswith("verify.") and n.endswith("self_s"))
    else:
        v = workloads.configs(workload, tiny=True)["op"]["verify"]
        assert metrics["verify.steps_simulated"] == (2 * v["replicates"] * max(v["T_list"])
                                                     + 3 * v["lemma_replicates"] * v["lemma_steps"])
    if workload == "mlp_sweep":
        assert metrics["mlp.forwards_per_update"] == 2.0
        self_by_layer = {}
        for name, value in metrics.items():
            if name.endswith(".self_s"):
                layer = name.split(".")[0]
                self_by_layer[layer] = self_by_layer.get(layer, 0.0) + value
        assert max(self_by_layer, key=self_by_layer.get) == "mlp"


def test_result_line_and_missing_sources(tmp_path):
    root = HERE.parent
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quad_run", "--seed", "2",
                           "--seconds", "1", "--trace", "0", "--tiny"],
                          cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for name, unit in run.END_TO_END.items():
        assert f"  {name}" in proc.stdout and last["metrics"][name]["unit"] == unit

    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quad_run", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
