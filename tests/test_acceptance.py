"""Acceptance suite: one test per shipped criterion, each printing a pass line.

Criteria cover the convergence bound and its per-step inequalities on the
shipped quadratic suites, the exact scheme equivalences, the optimizer-state
separation trace, gradient-oracle accuracy, exploration-distance metrics and
their directional comparison on the synthetic MLP suite, and byte-level
determinism of the command-line outputs.
"""

import json
import time

import numpy as np
import pytest

from helpers import ConstantGradientSuite, assert_same_run, equivalent_pairs, read_csv_body
from mtlopt.cli import _sweep_cell, _sweep_summary, main
from mtlopt.config import RunConfig
from mtlopt.mlp import init_mlp_params, synthetic_mlp_suite
from mtlopt.objectives import finite_difference_check, five_task_suite, two_task_suite
from mtlopt.optimizers import OptimizerRule, fresh_state
from mtlopt.params import RngStream
from mtlopt.schemes import ConstantLR, SchemeConfig, run, step
from mtlopt.tracing import RunTrace, covered_distances, write_trace_csv
from mtlopt.verify import fit_rate, verify_lemmas, verify_theorem

SHIPPED_SUITES = {
    "two_task": (two_task_suite, 1),
    "five_task": (five_task_suite, 3),
}

MLP_SWEEP_RAW = {
    "objective": {
        "family": "mlp", "n_tasks": 4, "input_dim": 2, "hidden": [32, 32],
        "batch_size": 32, "dataset_seed": 7, "target_terms": 3, "val_size": 128,
    },
    "schemes": [
        {"kind": "sus", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
        {"kind": "ius", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
        {"kind": "io", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
    ],
    "steps": 250,
    "seeds": [0, 1, 2],
    "validation_every": 5,
}
MLP_ETAS = [0.003, 0.01, 0.03]


def report_pass(number, text):
    print(f"ACCEPTANCE {number:>2} PASS  {text}")


@pytest.fixture(scope="module")
def theorem_reports():
    out = {}
    t0 = time.time()
    for name, (factory, dim) in SHIPPED_SUITES.items():
        out[name] = verify_theorem(
            factory(), [10, 100, 1000], replicates=200, seed=1, w0=np.zeros(dim)
        )
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def mlp_sweep():
    cfg = RunConfig(MLP_SWEEP_RAW)
    rows = [
        _sweep_cell(cfg, i, eta, seed)
        for i in range(len(cfg.schemes))
        for eta in MLP_ETAS
        for seed in cfg.seeds
    ]
    return rows, _sweep_summary(cfg, rows)


def test_criterion_1_convergence_bound(theorem_reports):
    for name in SHIPPED_SUITES:
        report = theorem_reports[name]
        assert report["schedule_ok"]
        assert report["replicates"] >= 200
        for row in report["rows"]:
            slack = row["bound"] + 3.0 * row["std_error"]
            assert row["estimate"] <= slack, (name, row)
        assert report["all_pass"]
    assert theorem_reports["elapsed"] < 60.0
    report_pass(1, f"bound holds at T=10,100,1000 on both suites ({theorem_reports['elapsed']:.1f}s)")


def test_criterion_2_per_step_inequalities():
    t0 = time.time()
    for name, (factory, dim) in SHIPPED_SUITES.items():
        suite = factory()
        w0 = np.zeros(dim)
        l1, l2 = verify_lemmas(suite, 50, replicates=500, seed=2, w0=w0)
        assert len(l1["rows"]) == 50 and len(l2["rows"]) == 50
        for row in l1["rows"]:
            assert row["excess_mean"] <= row["rhs"] + 3.0 * row["std_error"], (name, row)
        for row in l2["rows"]:
            assert row["lhs_mean"] <= row["bound"] + 3.0 * row["std_error"], (name, row)
        assert l1["all_pass"] and l2["all_pass"]
        assert not l2["grad_bound_violated"]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report_pass(2, f"both per-step inequalities hold at every one of 50 steps ({elapsed:.1f}s)")


def test_criterion_3_convergence_rate(theorem_reports):
    for name in SHIPPED_SUITES:
        slope = fit_rate(theorem_reports[name])
        assert -1.3 <= slope <= -0.7, (name, slope)
    report_pass(3, "log-log rate slope within [-1.3, -0.7] on both suites")


def test_criterion_4_exact_equivalences(tmp_path):
    suite = two_task_suite(0.5)
    for label, cfg_a, cfg_b, states in equivalent_pairs(suite.n_tasks):
        ta, tb = run(cfg_a, suite, np.zeros(1), 40, seed=17), run(cfg_b, suite, np.zeros(1), 40, seed=17)
        assert_same_run(ta, tb, states)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(ta, pa)
        write_trace_csv(tb, pb)
        assert read_csv_body(pa) == read_csv_body(pb), label
    report_pass(4, "grouping/scheme equivalences are bit-identical (zero tolerance)")


def test_criterion_5_optimizer_state_separation():
    suite = ConstantGradientSuite([[1.0], [-1.0]])
    mom = OptimizerRule("momentum", beta=0.9)
    xi = None
    units = [(0,), (1,)]
    for eta in (1.0, 0.1):
        shared = fresh_state(mom, 1)
        w = np.zeros(1)
        *_, (_, _, after) = step(w, suite, units, mom, [shared], eta, xi, [0, 1])
        assert after[0] - w[0] == -0.9 * eta  # exact

        states = [fresh_state(mom, 1), fresh_state(mom, 1)]
        *_, (_, _, w1) = step(np.zeros(1), suite, units, mom, states, eta, xi, [0, 1])
        *_, (_, _, w2) = step(w1, suite, units, mom, states, eta, xi, [0, 1])
        assert w1[0] == 0.0 and w2[0] == 0.0  # per-round net displacement
    report_pass(5, "shared state drifts -0.9*eta in round 1; individual states cancel exactly")


def test_criterion_6_gradient_oracles():
    # quadratic family: 100 random points per shipped suite, every task
    for name, (factory, dim) in SHIPPED_SUITES.items():
        suite = factory()
        gen = RngStream(23, "data").gen
        for _ in range(100):
            xi = suite.sample_minibatch(gen)
            w = gen.normal(scale=2.0, size=dim)
            for task in suite.tasks:
                assert finite_difference_check(task, w, xi, h=1e-5) <= 1e-5

    # mlp family: 100 random points on the shipped four-task suite
    suite = synthetic_mlp_suite(n_tasks=4, input_dim=2, hidden=(32, 32), batch_size=32,
                                dataset_seed=7, val_size=128)
    gen = RngStream(29, "data").gen
    base = init_mlp_params(suite, RngStream(29, "init").gen)
    for i in range(100):
        xi = suite.sample_minibatch(gen)
        w = base + 0.2 * gen.normal(size=suite.dim)
        task = suite.tasks[i % suite.n_tasks]
        assert finite_difference_check(task, w, xi, h=1e-5) <= 1e-5
    report_pass(6, "gradient oracles within 1e-5 of central differences at 100 random points")


def test_criterion_7_distance_metrics(mlp_sweep):
    # hand-computed 3-point path: (0,0) -> (3,4) -> (0,8)
    trace = RunTrace(meta={})
    trace.w0 = np.zeros(2)
    trace.add_row(1, "0", 1.0, 5.0)
    trace.add_row(2, "0", 1.0, 5.0)
    trace.w_best = np.array([0.0, 8.0])
    trace.best_val_step = 2
    hand = covered_distances(trace)
    assert hand.total == 10.0 and hand.shortest == 8.0 and hand.ratio == 1.25

    rows, _ = mlp_sweep
    assert rows, "sweep produced no runs"
    for row in rows:
        assert row["total_dist"] >= row["shortest_dist"] - 1e-12
        assert row["ratio"] >= 1.0 - 1e-12

    # and on quadratic runs across schemes and optimizers
    suite = two_task_suite(0.5)
    for scheme in ("sus", "ius", "io"):
        for opt in (OptimizerRule("sgd"), OptimizerRule("momentum", beta=0.9), OptimizerRule("adam")):
            cfg = SchemeConfig(scheme=scheme, optimizer=opt, lr=ConstantLR(0.05))
            d = covered_distances(run(cfg, suite, np.zeros(1), 30, seed=7))
            assert d.total >= d.shortest - 1e-12
            assert d.degenerate or d.ratio >= 1.0 - 1e-12
    report_pass(7, "total >= shortest and ratio >= 1 on every recorded run; hand path ratio 1.25")


def test_criterion_8_wider_exploration(mlp_sweep):
    _, summary = mlp_sweep
    by_scheme = {e["scheme"]: e for e in summary["schemes"]}
    sus = by_scheme["sus"]
    for other in ("ius", "io"):
        entry = by_scheme[other]
        assert entry["total_dist"]["mean"] > sus["total_dist"]["mean"], other
        assert entry["shortest_dist"]["mean"] > sus["shortest_dist"]["mean"], other
        assert entry["ratio"]["mean"] > sus["ratio"]["mean"], other
    report_pass(
        8,
        "alternating schemes cover strictly more distance than the shared scheme "
        "(total, shortest, ratio; best eta per scheme, 3 seeds)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    cfg_payload = {
        "objective": {"family": "quadratic", "preset": "two_task"},
        "scheme": {
            "kind": "io",
            "optimizer": {"kind": "adam"},
            "lr": {"kind": "constant", "eta": 0.05},
        },
        "steps": 30,
        "seeds": [0, 1],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_payload))

    a, b = tmp_path / "run_a", tmp_path / "run_b"
    assert main(["run", str(cfg_path), "--out", str(a)]) == 0
    assert main(["run", str(cfg_path), "--out", str(b)]) == 0
    for seed in (0, 1):
        assert (a / f"trace_seed{seed}.csv").read_bytes() == (b / f"trace_seed{seed}.csv").read_bytes()
        assert (a / f"trace_seed{seed}.meta.json").read_bytes() == (
            b / f"trace_seed{seed}.meta.json"
        ).read_bytes()

    sa, sb = tmp_path / "sweep_a", tmp_path / "sweep_b"
    assert main(["sweep", str(cfg_path), "--etas", "0.02,0.05", "--out", str(sa)]) == 0
    assert main(["sweep", str(cfg_path), "--etas", "0.02,0.05", "--out", str(sb)]) == 0
    assert (sa / "sweep.csv").read_bytes() == (sb / "sweep.csv").read_bytes()
    report_pass(9, "re-running commands yields byte-identical CSV outputs")
