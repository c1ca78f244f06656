import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from helpers import load_strict_json, read_csv_body
import mtlopt
from mtlopt import cli, verify
from mtlopt.cli import main
from mtlopt.config import ConfigError, RunConfig


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def minimal_run_config(**overrides):
    cfg = {
        "objective": {"family": "quadratic", "tasks": [{"matrix": [[1.0]], "center": [2.0], "noise_sigma": 0.3}]},
        "scheme": {
            "kind": "sus",
            "optimizer": {"kind": "sgd"},
            "lr": {"kind": "constant", "eta": 0.1},
        },
        "steps": 10,
        "seeds": [0],
    }
    cfg.update(overrides)
    return cfg


def two_task_config(**overrides):
    cfg = minimal_run_config()
    cfg["objective"] = {"family": "quadratic", "preset": "two_task"}
    cfg["scheme"] = {
        "kind": "ius",
        "n_groups": 2,
        "optimizer": {"kind": "momentum", "beta": 0.9},
        "lr": {"kind": "constant", "eta": 0.05},
    }
    cfg["seeds"] = [0, 1, 2]
    cfg.update(overrides)
    return cfg


def test_minimal_single_task_run(tmp_path):
    cfg = write_config(tmp_path, minimal_run_config())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "trace_seed0.csv").exists()
    assert (out / "trace_seed0.meta.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["per_seed"]) == 1
    assert summary["per_seed"][0]["best_val_loss"] < 2.0  # descended from F(0)=2
    meta = json.loads((out / "trace_seed0.meta.json").read_text())
    assert meta["final_optimizer_states"][0]["step"] == 10
    assert "w_final" in meta


def test_rerun_produces_byte_identical_csv(tmp_path):
    cfg = write_config(tmp_path, two_task_config())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    for seed in (0, 1, 2):
        fa = (a / f"trace_seed{seed}.csv").read_bytes()
        fb = (b / f"trace_seed{seed}.csv").read_bytes()
        assert fa == fb


def test_group_count_validation_names_field(tmp_path, capsys):
    payload = two_task_config()
    payload["scheme"]["n_groups"] = 5
    cfg = write_config(tmp_path, payload)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "scheme.n_groups" in err


def test_sus_with_groups_is_rejected_at_its_field(tmp_path, capsys):
    payload = two_task_config()
    payload["scheme"]["kind"] = "sus"
    cfg = write_config(tmp_path, payload)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config.scheme.n_groups: ") and "'sus'" in err
    payload["schemes"] = [payload["scheme"] | {"kind": "ius"}, payload.pop("scheme")]
    with pytest.raises(ConfigError, match=r"^config\.schemes\[1\]\.n_groups: .*'sus'"):
        RunConfig(payload)


def test_unknown_keys_rejected():
    payload = minimal_run_config()
    payload["sceme"] = payload.pop("scheme")
    with pytest.raises(ConfigError, match="sceme"):
        RunConfig(payload)
    payload2 = minimal_run_config()
    payload2["scheme"]["learning_rate"] = 0.1
    with pytest.raises(ConfigError, match="learning_rate"):
        RunConfig(payload2)


def test_w0_rejected_for_mlp():
    payload = {
        "objective": {"family": "mlp", "n_tasks": 2, "hidden": [4]},
        "scheme": {"kind": "sus", "optimizer": {"kind": "sgd"}, "lr": {"kind": "constant", "eta": 0.1}},
        "steps": 2,
        "seeds": [0],
        "w0": [0.0],
    }
    with pytest.raises(ConfigError, match="w0"):
        RunConfig(payload)


def test_sweep_row_counts_and_single_eta(tmp_path):
    payload = two_task_config(steps=8)
    payload["schemes"] = [payload.pop("scheme"), {
        "kind": "sus",
        "optimizer": {"kind": "momentum", "beta": 0.9},
        "lr": {"kind": "constant", "eta": 0.05},
    }]
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--etas", "0.01,0.03,0.1", "--out", str(out)]) == 0
    body = read_csv_body(out / "sweep.csv").strip().split("\n")
    assert body[0] == "eta,scheme,groups,seed,best_val_loss,total_dist,shortest_dist,ratio"
    assert len(body) - 1 == 3 * 3 * 2  # etas x seeds x schemes

    single = tmp_path / "single"
    assert main(["sweep", cfg, "--etas", "0.05", "--out", str(single)]) == 0
    rows = read_csv_body(single / "sweep.csv").strip().split("\n")[1:]
    assert len(rows) == 3 * 2
    summary = json.loads((single / "sweep_summary.json").read_text())
    assert {e["scheme"] for e in summary["schemes"]} == {"ius", "sus"}
    assert all("avg_rank" in e for e in summary["schemes"])


def five_task_sweep_config():
    """sus, ius in two groups and io on the five-task quadratic suite: a real
    pool unpickles its read-only stacks and their per-task views."""
    payload = two_task_config(steps=6, seeds=[0, 1])
    payload["objective"] = {"family": "quadratic", "preset": "five_task"}
    ius = payload.pop("scheme")  # in two groups
    ungrouped = {k: v for k, v in ius.items() if k != "n_groups"}
    payload["schemes"] = [ungrouped | {"kind": "sus"}, ius, ungrouped | {"kind": "io"}]
    return payload


def test_sweep_deterministic_and_worker_independent(tmp_path):
    ascending = write_config(tmp_path, two_task_config(steps=6, seeds=[0, 1, 2]), "ascending.json")
    five_task = write_config(tmp_path, five_task_sweep_config(), "five_task.json")
    for cfg in [ascending, five_task]:
        serial, parallel = Path(cfg).with_suffix(".serial"), Path(cfg).with_suffix(".parallel")
        assert main(["sweep", cfg, "--etas", "0.02,0.08", "--out", str(serial)]) == 0
        assert main(["sweep", cfg, "--etas", "0.02,0.08", "--out", str(parallel), "--workers", "2"]) == 0
        for name in ["sweep.csv", "sweep_summary.json"]:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()
    # rows come in scheme, eta, seed order, whatever order the rates and seeds are given in
    shuffled = write_config(tmp_path, two_task_config(steps=6, seeds=[2, 0, 1]), "shuffled.json")
    for workers in ["1", "2"]:
        out = tmp_path / f"shuffled{workers}"
        assert main(["sweep", shuffled, "--etas", "0.08,0.02", "--out", str(out), "--workers", workers]) == 0
        assert read_csv_body(out / "sweep.csv") == read_csv_body(tmp_path / "ascending.serial" / "sweep.csv")


def test_sweep_writes_no_finite_validation_as_an_empty_field(tmp_path):
    # every cell aborts at its step-0 validation, so no best_val_loss exists
    payload = minimal_run_config(w0=[1e200])
    payload["objective"] = {"family": "quadratic", "preset": "two_task"}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--etas", "0.1", "--out", str(out)]) == 2
    assert read_csv_body(out / "sweep.csv").splitlines()[1] == "0.1,sus,1,0,,0.0,0.0,nan"


def test_seed_offset_shifts_outputs(tmp_path):
    cfg = write_config(tmp_path, minimal_run_config())
    out = tmp_path / "off"
    assert main(["run", cfg, "--out", str(out), "--seed-offset", "5"]) == 0
    assert (out / "trace_seed5.csv").exists()


def test_run_requires_single_scheme(tmp_path, capsys):
    payload = minimal_run_config()
    payload["schemes"] = [payload.pop("scheme")] * 2
    cfg = write_config(tmp_path, payload)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "exactly one scheme" in capsys.readouterr().err


def test_numerical_abort_exit_code(tmp_path, capsys):
    payload = minimal_run_config()
    payload["scheme"]["lr"]["eta"] = 50.0  # divergent step size
    payload["steps"] = 300
    payload["w0"] = [1000.0]
    cfg = write_config(tmp_path, payload)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "aborted" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        # the validation loss at step 0 is non-finite
        {"objective": {"family": "quadratic", "preset": "two_task"}, "w0": [1e200]},
        # the first update overflows in the parameter update
        {
            "objective": {"family": "quadratic", "tasks": [{"matrix": [[1.0]], "center": [0.0], "noise_sigma": 0.0}]},
            "scheme": {"kind": "ius", "optimizer": {"kind": "momentum"}, "lr": {"kind": "constant", "eta": 1e160}},
            "w0": [1e150],
        },
    ],
)
def test_abort_before_first_update_writes_outputs(tmp_path, overrides):
    cfg = write_config(tmp_path, minimal_run_config(**overrides))
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert read_csv_body(out / "trace_seed0.csv") == "step,task_or_group,train_loss,val_loss,displacement,cumulative_total\n"
    meta = load_strict_json((out / "trace_seed0.meta.json").read_text())
    summary = load_strict_json((out / "summary.json").read_text())
    assert meta["aborted"] is True and meta["best_val_step"] == 0
    assert meta["final_optimizer_states"][0]["step"] == 0
    seed = summary["per_seed"][0]
    assert seed["aborted"] is True
    assert (seed["total"], seed["shortest"], seed["ratio"]) == (0.0, 0.0, None)


def test_verify_cli_small_config(tmp_path, capsys):
    payload = {
        "objective": {"family": "quadratic", "preset": "two_task"},
        "seeds": [1],
        "verify": {"T_list": [10, 100, 1000], "replicates": 40, "lemma_steps": 10, "lemma_replicates": 40},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "v"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "rate:" in printed
    report = json.loads((out / "verification.json").read_text())
    assert report["all_pass"]
    assert report["theorem"]["rows"][0]["pass"]
    assert report["config"]["objective"]["preset"] == "two_task"


def test_verify_overflow_is_a_numerical_abort(tmp_path, capsys):
    # finite in the schema, but its squared distance to the optimum overflows
    payload = {
        "objective": {"family": "quadratic", "preset": "two_task"},
        "seeds": [0],
        "w0": [1e200],
        "verify": {"T_list": [10, 100, 1000], "replicates": 4, "lemma_steps": 5, "lemma_replicates": 4},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "v"
    assert main(["verify", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "numerical abort in the convergence bound check: overflow encountered in matmul\n"
    assert not out.exists()


@pytest.mark.parametrize("sigma", [1e308, 5e307])
def test_verify_noise_overflow_aborts_with_one_message(tmp_path, capsys, sigma):
    # the twin of CI's shell check: such a noise overflows a squared gradient
    # norm at the bound's first step, so the blocked pass replays step by step.
    # The noise draw scales by twice the half-width h where 2h is finite: 1e308
    # (h = 1.73e308 > DBL_MAX/2) takes the fallback that doubles the draw
    # instead, and 5e307 (h = 8.66e307 < DBL_MAX/2) the main branch
    tasks = [{"matrix": [[1.0]], "center": [c], "noise_sigma": sigma} for c in (0.0, 1.0)]
    payload = {
        "objective": {"family": "quadratic", "tasks": tasks},
        "seeds": [0],
        "verify": {"T_list": [1, 10, 100], "replicates": 2, "lemma_steps": 3, "lemma_replicates": 2},
    }
    cfg = write_config(tmp_path, payload)
    errs = []
    for run in "ab":
        out = tmp_path / run
        assert main(["verify", cfg, "--out", str(out)]) == 2
        errs.append(capsys.readouterr().err)
        assert not out.exists()
    assert errs[0] == errs[1] == "numerical abort in the convergence bound check: overflow encountered in matmul\n"


@pytest.mark.parametrize("w0, bound", [(1e154, "bound"), (7e153, "max-form bound")])
def test_verify_bound_overflow_is_a_numerical_abort(tmp_path, capsys, w0, bound):
    # every iterate and estimate is finite, but a bound overflows (at 7e153
    # only the max-form one, whose noise term is twice as large): an infinite
    # bound must abort the check, not pass it or be written as null
    payload = {
        "objective": {"family": "quadratic", "preset": "two_task"},
        "seeds": [0],
        "w0": [w0],
        "verify": {"T_list": [10, 100, 1000], "replicates": 20, "lemma_steps": 5, "lemma_replicates": 20},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "v"
    assert main(["verify", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"numerical abort in the convergence bound check: the {bound} at T=10 is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("verdict", ["theorem", "lemma1", "lemma2", "rate"])
def test_verify_exits_3_when_exactly_one_verdict_fails(tmp_path, monkeypatch, verdict):
    # small_verify_config passes all four verdicts; each one failing alone
    # must fail the whole check
    real_theorem, real_lemmas = verify.verify_theorem, verify.verify_lemmas

    def failing_lemmas(*args):
        reports = dict(zip(("lemma1", "lemma2"), real_lemmas(*args)))
        reports[verdict] = {**reports[verdict], "all_pass": False}
        return reports["lemma1"], reports["lemma2"]

    if verdict == "theorem":
        monkeypatch.setattr(verify, "verify_theorem", lambda *args: {**real_theorem(*args), "all_pass": False})
    elif verdict == "rate":
        monkeypatch.setattr(verify, "fit_rate", lambda report: cli.RATE_SLOPE_RANGE[1] + 0.1)
    else:
        monkeypatch.setattr(verify, "verify_lemmas", failing_lemmas)
    out = tmp_path / "v"
    assert main(["verify", write_config(tmp_path, small_verify_config()), "--out", str(out)]) == 3
    report = json.loads((out / "verification.json").read_text())
    verdicts = {"rate": report["rate_pass"], **{k: report[k]["all_pass"] for k in ("theorem", "lemma1", "lemma2")}}
    assert verdicts == {k: k != verdict for k in verdicts} and not report["all_pass"]


@pytest.mark.parametrize("end", [0, 1])
def test_the_rate_gate_holds_both_ends_of_its_range(tmp_path, monkeypatch, end):
    # a slope exactly at lo or hi passes; one ulp outside fails
    edge = cli.RATE_SLOPE_RANGE[end]
    for slope, code in ((edge, 0), (np.nextafter(edge, (-np.inf, np.inf)[end]), 3)):
        monkeypatch.setattr(verify, "fit_rate", lambda report: float(slope))
        out = tmp_path / f"v{code}"
        assert main(["verify", write_config(tmp_path, small_verify_config()), "--out", str(out)]) == code
        report = json.loads((out / "verification.json").read_text())
        assert report["rate_slope"] == slope and report["rate_pass"] == (code == 0)


def test_verify_rejects_mlp_objective(tmp_path, capsys):
    payload = {
        "objective": {"family": "mlp", "n_tasks": 2, "hidden": [4]},
        "seeds": [0],
    }
    cfg = write_config(tmp_path, payload)
    assert main(["verify", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "quadratic" in capsys.readouterr().err


def test_verify_single_task_noiseless_trivially_passes(tmp_path):
    payload = {
        "objective": {"family": "quadratic", "tasks": [{"matrix": [[1.0]], "center": [1.0], "noise_sigma": 0.0}]},
        "seeds": [0],
        "w0": [0.0],
        "verify": {"T_list": [2, 20, 200], "replicates": 2, "lemma_steps": 5, "lemma_replicates": 2},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["verify", cfg, "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v" / "verification.json").read_text())
    assert report["theorem"]["all_pass"]
    assert report["lemma1"]["all_pass"]
    assert report["lemma2"]["all_pass"]
    assert report["rate_pass"]


def test_invalid_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err


def test_inverse_time_schedule_resolved_from_suite():
    payload = two_task_config()
    payload["scheme"]["lr"] = {"kind": "inverse_time"}
    cfg = RunConfig(payload)
    sched = cfg.schemes[0].lr
    assert sched.mu == 1.0 and sched.offset == 1.0  # smallest admissible offset
    assert sched.at(1) == 1.0  # first step size is 1/L

    explicit = two_task_config()
    explicit["scheme"]["lr"] = {"kind": "inverse_time", "mu": 2.0, "offset": 4.0}
    assert RunConfig(explicit).schemes[0].lr.at(1) == pytest.approx(0.2)


def test_inverse_time_needs_quadratic_or_explicit_constants():
    payload = {
        "objective": {"family": "mlp", "n_tasks": 2, "hidden": [4]},
        "scheme": {"kind": "sus", "optimizer": {"kind": "sgd"}, "lr": {"kind": "inverse_time"}},
        "steps": 2,
        "seeds": [0],
    }
    with pytest.raises(ConfigError, match="quadratic"):
        RunConfig(payload)


def test_degenerate_run_and_sweep_write_strict_json(tmp_path):
    # w0 is the joint optimum, so the validation-best point is the start point
    # and the distance ratio is undefined
    payload = minimal_run_config(steps=5, w0=[1.0])
    payload["objective"] = {"family": "quadratic", "preset": "two_task"}
    cfg = write_config(tmp_path, payload)
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", cfg, "--out", str(run_out)]) == 0
    assert main(["sweep", cfg, "--etas", "0.1", "--out", str(sweep_out)]) == 0
    written = sorted(run_out.glob("*.json")) + sorted(sweep_out.glob("*.json"))
    assert len(written) == 3
    loaded = {p.name: load_strict_json(p.read_text()) for p in written}
    assert loaded["summary.json"]["per_seed"][0]["ratio"] is None
    assert loaded["sweep_summary.json"]["schemes"][0]["ratio"]["mean"] is None


def _finish(fut, fn, *args):
    try:
        fut.set_result(fn(*args))
    except Exception as exc:  # a pool hands a cell's error back through its future
        fut.set_exception(exc)
    return fut


class _InlinePool(concurrent.futures.Executor):
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline; the
    base class's map submits every cell, then yields their results in order."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def submit(self, fn, *args):
        return _finish(concurrent.futures.Future(), fn, *args)


class _LastToFirstPool(_InlinePool):
    """Runs the cells of a three-cell sweep once all three are submitted, the
    last first."""

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.queued = []

    def submit(self, fn, *args):
        self.queued.append((concurrent.futures.Future(), fn, *args))
        if len(self.queued) == 3:
            for queued in reversed(self.queued):
                _finish(*queued)
        return self.queued[-1][0]


@pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2)])
def test_sweep_workers_clamped_to_cells_and_cpus(tmp_path, monkeypatch, cpus, expected):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlinePool, "requested", [])
    cfg = write_config(tmp_path, two_task_config(steps=3))
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--etas", "0.05", "--out", str(out), "--workers", "5000"]) == 0
    assert _InlinePool.requested == [expected]
    assert len(read_csv_body(out / "sweep.csv").strip().split("\n")) - 1 == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_no_sweep_cell_builds_a_config(tmp_path, monkeypatch, workers):
    # main loads the config once; every cell, in a pool worker too, runs on it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    calls = []
    real_init = RunConfig.__init__

    def counting_init(self, raw):
        calls.append(raw)
        real_init(self, raw)

    monkeypatch.setattr(RunConfig, "__init__", counting_init)
    cfg = write_config(tmp_path, two_task_config(steps=3))
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--etas", "0.05", "--out", str(out), "--workers", str(workers)]) == 0
    assert len(calls) == 1
    assert len(read_csv_body(out / "sweep.csv").strip().split("\n")) - 1 == 3


def _sweep_failing_at_second_cell(tmp_path, monkeypatch, workers, error):
    """Exit code of a three-cell sweep whose second cell (seed 1) raises `error`."""
    if workers > 1:  # the sequential path must work without touching the pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    real_cell = cli._sweep_cell
    calls = []

    def failing_second_cell(*args):
        calls.append(args)
        if len(calls) == 2:
            raise error
        return real_cell(*args)

    monkeypatch.setattr(cli, "_sweep_cell", failing_second_cell)
    cfg = write_config(tmp_path, two_task_config(steps=3))
    return main(["sweep", cfg, "--etas", "0.05", "--out", str(tmp_path / "sweep"), "--workers", str(workers)])


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_streams_rows_until_a_cell_fails(tmp_path, monkeypatch, capsys, workers):
    assert _sweep_failing_at_second_cell(tmp_path, monkeypatch, workers, RuntimeError("cell failed")) == 4
    err = capsys.readouterr().err
    assert "RuntimeError: cell failed" in err
    assert err.endswith("sweep cell schemes[0] (ius), eta 0.05, seed 1 failed\n")
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == ",".join(cli.SWEEP_COLUMNS)
    assert len(lines) == 3 and lines[2].startswith("0.05,ius,2,0,")


def test_cells_finishing_out_of_order_leave_the_rows_before_the_failed_cell(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _LastToFirstPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    real_cell = cli._sweep_cell

    def failing_seed_1(cfg, scheme_index, eta, seed):
        if seed == 1:
            raise RuntimeError("cell failed")
        return real_cell(cfg, scheme_index, eta, seed)

    monkeypatch.setattr(cli, "_sweep_cell", failing_seed_1)
    cfg = write_config(tmp_path, two_task_config(steps=3))
    for workers in ["1", "2"]:
        assert main(["sweep", cfg, "--etas", "0.05", "--out", str(tmp_path / workers), "--workers", workers]) == 4
        assert capsys.readouterr().err.endswith("sweep cell schemes[0] (ius), eta 0.05, seed 1 failed\n")
    # the first cell's row only, as at --workers 1, though the third cell finished first
    lines = (tmp_path / "2" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[2].startswith("0.05,ius,2,0,")
    assert (tmp_path / "2" / "sweep.csv").read_bytes() == (tmp_path / "1" / "sweep.csv").read_bytes()


_FAILING_SWEEP = """
import sys
from mtlopt import cli
calls = []
def failing_second_cell(*args):
    calls.append(args)
    if len(calls) == 2:
        raise RuntimeError("cell failed")
    return real_cell(*args)
real_cell, cli._sweep_cell = cli._sweep_cell, failing_second_cell
sys.exit(cli.main(["sweep", sys.argv[1], "--etas", "0.05", "--out", sys.argv[2], "--workers", "1"]))
"""


def test_importing_the_cli_loads_no_concurrent_futures(tmp_path):
    # only a sweep with more than one worker needs a process pool, only a
    # failed sweep cell prints a traceback, only a sweep writes through csv and
    # only `verify` runs the verifier: importing the CLI and a `run` load none
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = ("import sys, mtlopt.cli\n"
            "loaded = lambda: sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] in ('concurrent', 'csv', 'traceback') or m == 'mtlopt.verify')\n"
            "print(loaded())\n"
            "mtlopt.cli.main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(loaded())\n")
    cfg = write_config(tmp_path, minimal_run_config())
    proc = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "o")], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]" and len(lines) == 3


_VERIFY_NAMES = {"BoundInputs", "estimate_grad_bound", "fit_rate", "theorem_bound", "verify_lemma1", "verify_lemma2",
                 "verify_lemmas", "verify_theorem"}


def test_the_package_exports_the_verify_names_it_loads_lazily():
    # `from mtlopt import *`, attribute access and dir() see them as before
    namespace = {}
    exec("from mtlopt import *", namespace)
    for name in _VERIFY_NAMES:
        assert namespace[name] is getattr(mtlopt, name) is getattr(verify, name)
    assert namespace["run"] is mtlopt.run and namespace["RunTrace"] is mtlopt.RunTrace
    assert _VERIFY_NAMES <= set(dir(mtlopt))
    with pytest.raises(AttributeError):
        mtlopt.no_such_name


def test_sequential_sweep_failure_exits_4_in_a_fresh_interpreter(tmp_path):
    # no test has imported concurrent.futures.process there, nor patched the pool
    cfg = write_config(tmp_path, two_task_config(steps=3))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_SWEEP, cfg, str(tmp_path / "sweep")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.endswith("sweep cell schemes[0] (ius), eta 0.05, seed 1 failed\n")
    assert len((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()) == 3


def test_sweep_names_the_cell_of_a_killed_worker(tmp_path, monkeypatch, capsys):
    # a killed worker fails every pending future with BrokenProcessPool
    broken = BrokenProcessPool("a worker was terminated abruptly")
    assert _sweep_failing_at_second_cell(tmp_path, monkeypatch, 2, broken) == 4
    err = capsys.readouterr().err
    assert "BrokenProcessPool: a worker was terminated abruptly" in err
    assert err.endswith(
        "a sweep worker process died; cells without a row: "
        "schemes[0] (ius), eta 0.05, seed 1; schemes[0] (ius), eta 0.05, seed 2\n"
    )
    assert len((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()) == 3


def test_snapshot_every_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, minimal_run_config(snapshot_every=0))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "snapshot_every" in capsys.readouterr().err


# sha256 of each output of `mtlopt run configs/two_task_run.json`. The problem
# is 1-D, so the bytes do not depend on the BLAS build.
TWO_TASK_RUN_SHA256 = {
    "summary.json": "6051b700e727b30d53d8b59900cdd6d12d0199b6bd466545a6cd6cf1241c0c27",
    "trace_seed0.csv": "03974d88c66be037c04bf23b596abe60c8d81923ad9c1d0b932602ff3ab898ba",
    "trace_seed0.meta.json": "3a88f70a0a0e2c5cdbd99cee518bdaa263a205dbddc42e67ac1fa61a9d663c89",
    "trace_seed1.csv": "2f360951892c4e6ae4cdf8feecb39b3ddfa0150e5a3c9379f23d03a6c5972b5f",
    "trace_seed1.meta.json": "1dfa241ef24e6b3b808cdd2fdba85a09cc4fd6e85e29e09ca9a6c1793281f84a",
    "trace_seed2.csv": "af99ee9a8d32c1b4259abc01a318665d10a0ea2861396ff97578c4389d1e06de",
    "trace_seed2.meta.json": "b0dbf3a1eee46cd3987972bce190c9e1753ec3d7fee05d14584014888f15a6d0",
}


def test_shipped_run_outputs_are_byte_stable(tmp_path):
    config = Path(__file__).resolve().parent.parent / "configs" / "two_task_run.json"
    out = tmp_path / "run"
    assert main(["run", str(config), "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == TWO_TASK_RUN_SHA256


def small_verify_config():
    return {
        "objective": {"family": "quadratic", "tasks": [{"matrix": [[1.0]], "center": [0.0], "noise_sigma": 0.3}]},
        "seeds": [0],
        "verify": {"T_list": [10, 100, 1000], "replicates": 4, "lemma_steps": 5, "lemma_replicates": 4},
    }


# sha256 of verification.json from `mtlopt verify` on small_verify_config(),
# a 1-D problem. Its bytes still depend on the OpenBLAS kernel: the last digit
# of rate_slope, from np.polyfit, moves under OPENBLAS_CORETYPE=Haswell or
# Prescott.
SMALL_VERIFY_SHA256 = "7e772b331f9acba119d77eb110c58bb5177883b2b8ad7927e84531303419ab1e"


def test_small_verify_output_is_byte_stable(tmp_path):
    cfg = write_config(tmp_path, small_verify_config())
    out = tmp_path / "v"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["verification.json"]
    assert hashlib.sha256((out / "verification.json").read_bytes()).hexdigest() == SMALL_VERIFY_SHA256


# sha256 of verification.json from `mtlopt verify` on the shipped five-task,
# 3-D suite at a small size. The suite's QR and the stacked 3x3 matvecs go
# through LAPACK and BLAS, so these bytes were recorded with numpy 2.4's
# OpenBLAS 0.3.31 build; another BLAS build may need its own hash.
SMALL_FIVE_TASK_VERIFY = {
    "objective": {"family": "quadratic", "preset": "five_task"},
    "seeds": [0],
    "verify": {"T_list": [10, 100, 1000], "replicates": 8, "lemma_steps": 5, "lemma_replicates": 4},
}
SMALL_FIVE_TASK_VERIFY_SHA256 = "b5840d9ce93becf686604fca84ea41618fc1630dae2cd0b2eab33ff8ba0f3eb9"


def test_small_five_task_verify_output_is_byte_stable(tmp_path):
    cfg = write_config(tmp_path, SMALL_FIVE_TASK_VERIFY)
    out = tmp_path / "v"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "verification.json").read_bytes()).hexdigest()
    assert digest == SMALL_FIVE_TASK_VERIFY_SHA256


# sha256 of the outputs of `mtlopt sweep` on SMALL_MLP_SWEEP with
# --etas 0.01,0.03: sus, ius, ius in two groups and io on the shipped
# four-task MLP topology, a few steps each. The MLP matmuls go through BLAS,
# so these bytes were recorded with numpy 2.4's OpenBLAS 0.3.31 build; another
# BLAS build may need its own hashes.
SMALL_MLP_SWEEP = {
    "objective": {"family": "mlp", "n_tasks": 4, "hidden": [32, 32]},
    "schemes": [
        {"kind": "sus", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
        {"kind": "ius", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
        {"kind": "ius", "n_groups": 2, "optimizer": {"kind": "momentum", "beta": 0.9},
         "lr": {"kind": "constant", "eta": 0.01}},
        {"kind": "io", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
    ],
    "steps": 8,
    "seeds": [0, 1],
    "validation_every": 2,
}
SMALL_MLP_SWEEP_SHA256 = {
    "sweep.csv": "511598d084694970901aa1347e0431c75c0ade09e42c4e088e4a90b8a8783e37",
    "sweep_summary.json": "0cebb1b137c99161a8a2ff2a7d16265b081802c1f1f2d6c6227d99fd27b6597e",
}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_small_mlp_sweep_outputs_are_byte_stable(tmp_path, workers):
    cfg = write_config(tmp_path, SMALL_MLP_SWEEP)
    out = tmp_path / "s"
    assert main(["sweep", cfg, "--etas", "0.01,0.03", "--out", str(out), "--workers", workers]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == SMALL_MLP_SWEEP_SHA256


def _task(cfg):
    return cfg["objective"]["tasks"][0]


def _lr(cfg):
    return cfg["scheme"]["lr"]


def _inverse_time(cfg, mu, offset):
    cfg["scheme"]["lr"] = {"kind": "inverse_time", "mu": mu, "offset": offset}


def _dataset_seed(cfg, seed):
    cfg["objective"] = {"family": "mlp", "dataset_seed": seed}


NAN, INF = float("nan"), float("inf")  # json.dumps writes NaN and Infinity
_HALFWIDTH_ERROR = (
    "config error: config.objective.tasks[0]: task 0: noise half-width noise_sigma * sqrt(3 / d) is not finite\n"
)

_PRESET_OR_TASKS_ERROR = (
    "config error: config.objective: the quadratic family needs exactly one of 'preset' or 'tasks'\n"
)
_INVERSE_TIME_PAIR_ERROR = "config error: config.scheme.lr: inverse_time needs both 'mu' and 'offset', or neither\n"

# (command, edit of the command's small config, field the error names, extra
# arguments); "<1e400>" is written as the bare literal 1e400, which JSON reads
# as an infinity
BAD_CONFIGS = {
    "w0 string": (
        "run", lambda c: c.update(w0=["a"]),
        "config error: config.w0[0]: expected a finite number in (-inf, inf), got 'a'\n",
    ),
    "w0 NaN": ("run", lambda c: c.update(w0=[NAN]), "config.w0"),
    "w0 1e400": ("run", lambda c: c.update(w0=["<1e400>"]), "config.w0"),
    "w0 boolean": ("run", lambda c: c.update(w0=[True]), "config.w0"),
    "center NaN": ("run", lambda c: _task(c).update(center=[NAN]), "center"),
    "matrix Infinity": ("run", lambda c: _task(c).update(matrix=[[INF]]), "matrix"),
    "noise_sigma NaN": ("run", lambda c: _task(c).update(noise_sigma=NAN), "noise_sigma"),
    "noise_sigma Infinity": ("run", lambda c: _task(c).update(noise_sigma=INF), "noise_sigma"),
    # finite, but the 1-D half-width sigma * sqrt(3) is inf
    "run noise half-width inf": ("run", lambda c: _task(c).update(noise_sigma=1.5e308), _HALFWIDTH_ERROR),
    "verify noise half-width inf": ("verify", lambda c: _task(c).update(noise_sigma=1.5e308), _HALFWIDTH_ERROR),
    "task not an object": ("run", lambda c: c["objective"].update(tasks=[1.0]), "objective.tasks[0]"),
    "offset -1": ("run", lambda c: _inverse_time(c, 1.0, -1.0), "scheme.lr.offset"),
    "mu 0": ("run", lambda c: _inverse_time(c, 0, 1.0), "scheme.lr.mu"),
    "mu -1": ("run", lambda c: _inverse_time(c, -1.0, 1.0), "scheme.lr.mu"),
    "eta NaN": ("run", lambda c: _lr(c).update(eta=NAN), "scheme.lr.eta"),
    "eta Infinity": ("run", lambda c: _lr(c).update(eta=INF), "scheme.lr.eta"),
    "adam eps NaN": ("run", lambda c: c["scheme"].update(optimizer={"kind": "adam", "eps": NAN}), "scheme.optimizer.eps"),
    "adam eps Infinity": ("run", lambda c: c["scheme"].update(optimizer={"kind": "adam", "eps": INF}), "scheme.optimizer.eps"),
    "verify not an object": ("run", lambda c: c.update(verify=5), "verify"),
    "verify indefinite matrix": ("verify", lambda c: _task(c).update(matrix=[[-1.0]]), "matrix"),
    "verify T_list within one decade": ("verify", lambda c: c["verify"].update(T_list=[10, 20, 30]), "verify.T_list"),
    "verify T_list repeated": ("verify", lambda c: c["verify"].update(T_list=[10, 10, 1000]), "verify.T_list"),
    "hidden boolean": ("run", lambda c: c.update(objective={"family": "mlp", "hidden": [True, 4]}), "objective.hidden"),
    # RngStream would reduce these mod 2**64 to seeds 0 and 2**64 - 1
    "seed 2**64": ("run", lambda c: c.update(seeds=[2**64]), "config.seeds"),
    "seed -1": ("verify", lambda c: c.update(seeds=[-1]), "config.seeds"),
    "run seed offset -1": ("run", lambda c: None, "--seed-offset", "--seed-offset=-1"),
    "sweep seed offset past 2**64 - 1": (
        "sweep", lambda c: c.update(seeds=[0, 1]), "--seed-offset", f"--seed-offset={2**64 - 1}", "--etas=0.1"
    ),
    "verify seed offset 2**64": ("verify", lambda c: None, "--seed-offset", f"--seed-offset={2**64}"),
    # a repeated seed's run would overwrite its own trace and count twice in the summary
    "seeds repeated": (
        "run", lambda c: c.update(seeds=[1, 1]), "config error: config.seeds: values must be distinct, got [1, 1]\n",
    ),
    # the repeated rate's cells would run twice and count as extra seeds in the summary
    "sweep etas repeated": ("sweep", lambda c: None, "config error: --etas: ", "--etas=0.05,0.05"),
    # the pool size is clamped from above only; these ran one cell at a time
    "sweep workers 0": ("sweep", lambda c: None, "config error: --workers: ", "--workers=0", "--etas=0.05"),
    "sweep workers -3": ("sweep", lambda c: None, "config error: --workers: ", "--workers=-3", "--etas=0.05"),
    # RngStream would reduce these mod 2**64 to the data of dataset seeds 2**64 - 1 and 0
    "dataset_seed -1": ("run", lambda c: _dataset_seed(c, -1), "config error: config.objective.dataset_seed"),
    "dataset_seed 2**64": ("run", lambda c: _dataset_seed(c, 2**64), "config error: config.objective.dataset_seed"),
    "preset not a string": (
        "run", lambda c: c.update(objective={"family": "quadratic", "preset": [1]}), "config error: config.objective.preset"
    ),
    "tasks of different dimensions": (
        "run", lambda c: c["objective"]["tasks"].append({"matrix": [[1, 0], [0, 1]], "center": [0, 0]}),
        "config error: config.objective.tasks",
    ),
    "task matrix not symmetric": (
        "run", lambda c: c["objective"]["tasks"].append({"matrix": [[1, 0.5], [0, 1]], "center": [0, 0]}),
        "config error: config.objective.tasks[1]: ",
    ),
    "task matrix misshapen": (
        "verify", lambda c: c["objective"]["tasks"].insert(0, {"matrix": [[1, 0], [0, 1]], "center": [0]}),
        "config error: config.objective.tasks[0]: ",
    ),
    # 2 / (mu * (offset + 1)) overflows, or its denominator underflows to 0
    "inverse_time first step overflows": ("run", lambda c: _inverse_time(c, 1e-320, 0), "config error: config.scheme.lr"),
    "inverse_time first step divides by 0": (
        "run", lambda c: _inverse_time(c, 1e-320, -0.9999999999999999), "config error: config.scheme.lr"
    ),
    # mu * (offset + 1) underflows to 0 at step 1 only: at(1) is inf, at(2) 1e308
    "inverse_time only the first step overflows": (
        "run", lambda c: _inverse_time(c, 2e-308, -0.9999999999999999), "config error: config.scheme.lr"
    ),
    "sweep etas 0": ("sweep", lambda c: None, "config error: --etas: ", "--etas=0"),
    "preset and tasks": (
        "run", lambda c: c["objective"].update(preset="two_task"), _PRESET_OR_TASKS_ERROR,
    ),
    "neither preset nor tasks": ("run", lambda c: c["objective"].pop("tasks"), _PRESET_OR_TASKS_ERROR),
    "inverse_time mu only": (
        "run", lambda c: c["scheme"].update(lr={"kind": "inverse_time", "mu": 1.0}), _INVERSE_TIME_PAIR_ERROR,
    ),
    "inverse_time offset only": (
        "run", lambda c: c["scheme"].update(lr={"kind": "inverse_time", "offset": 1.0}), _INVERSE_TIME_PAIR_ERROR,
    ),
    "scheme and schemes": (
        "run", lambda c: c.update(schemes=[c["scheme"]]),
        "config error: config.schemes: give either 'scheme' or 'schemes', not both\n",
    ),
    "w0 of the wrong length": (
        "run", lambda c: c.update(w0=[0.0, 0.0]), "config error: config.w0: expected 1 numbers, got 2\n",
    ),
    "sweep without a scheme": (
        "sweep", lambda c: c.pop("scheme"), "config error: config: 'sweep' needs 'scheme' or 'schemes'\n",
        "--etas=0.1",
    ),
    "sweep etas empty": ("sweep", lambda c: None, "config error: --etas: grid must be nonempty\n", "--etas="),
    "sweep etas not a number": (
        "sweep", lambda c: None, "config error: --etas: could not convert string to float: 'abc'\n", "--etas=abc",
    ),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_invalid_value_is_a_config_error_before_any_compute(tmp_path, capsys, case):
    command, edit, field, *extra = BAD_CONFIGS[case]
    payload = small_verify_config() if command == "verify" else minimal_run_config()
    edit(payload)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload).replace('"<1e400>"', "1e400"))
    out = tmp_path / "o"
    assert main([command, str(path), "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and field in err
    assert "Traceback" not in err
    assert not out.exists()  # rejected before the output directory is made


def test_a_config_path_that_does_not_exist_is_a_config_error(tmp_path, capsys):
    path, out = tmp_path / "missing.json", tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config: cannot read {path}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("etas", ["0.01,nan", "inf"])
def test_non_finite_etas_are_a_config_error(tmp_path, capsys, etas):
    cfg = write_config(tmp_path, two_task_config())
    assert main(["sweep", cfg, "--etas", etas, "--out", str(tmp_path / "o")]) == 1
    assert "config error: --etas" in capsys.readouterr().err
