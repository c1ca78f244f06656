import csv
import json

import numpy as np

from helpers import read_csv_body
from mtlopt import schemes
from mtlopt.objectives import QuadraticSuite, QuadraticTask, five_task_suite, two_task_suite
from mtlopt.optimizers import OptimizerRule
from mtlopt.params import l2_norm
from mtlopt.schemes import ConstantLR, SchemeConfig, run
from mtlopt.tracing import RunTrace, covered_distances, write_trace_csv


def hand_path_trace():
    """(0,0) -> (3,4) -> (0,8): segments of length 5 and 5, endpoint norm 8."""
    trace = RunTrace(meta={})
    points = [np.array([0.0, 0.0]), np.array([3.0, 4.0]), np.array([0.0, 8.0])]
    trace.w0 = points[0]
    trace.add_validation(0, 10.0)
    for t in range(1, 3):
        trace.add_row(t, "0", 1.0, l2_norm(points[t] - points[t - 1]))
        trace.add_validation(t, 10.0 - t)
    trace.w_best = points[-1]
    trace.best_val_step = 2
    trace.best_val_loss = 8.0
    trace.w_final = points[-1]
    return trace


def test_hand_path_distances_exact():
    d = covered_distances(hand_path_trace())
    assert d.total == 10.0
    assert d.shortest == 8.0
    assert d.ratio == 1.25
    assert not d.degenerate


def test_zero_motion_is_degenerate():
    trace = RunTrace(meta={})
    trace.w0 = np.zeros(2)
    trace.add_row(1, "0", 0.0, 0.0)
    trace.w_best = np.zeros(2)
    trace.best_val_step = 1
    d = covered_distances(trace)
    assert d.total == 0.0 and d.shortest == 0.0
    assert d.degenerate and np.isnan(d.ratio)


def test_distance_stops_at_best_step():
    trace = hand_path_trace()
    trace.best_val_step = 1  # pretend the minimum came after the first segment
    trace.w_best = np.array([3.0, 4.0])
    d = covered_distances(trace)
    assert d.total == 5.0 and d.shortest == 5.0


def test_run_best_validation_step_rules():
    # 0.5*w^2 under sgd: eta 1 reaches the minimum in one step and stays there
    # (validation losses 0.5, 0, 0, 0); eta 0.5 halves w every step
    suite = QuadraticSuite([QuadraticTask(0, [[1.0]], [0.0], 0.0)])

    def best(eta, validation_every=1):
        cfg = SchemeConfig("sus", OptimizerRule("sgd"), ConstantLR(eta))
        trace = run(cfg, suite, np.array([1.0]), 3, seed=0, validation_every=validation_every)
        return trace.best_val_step, trace.best_val_loss

    assert best(1.0) == (1, 0.0)  # first minimum wins
    assert best(0.5) == (3, 0.5 * 0.125**2)  # monotone: the last step
    assert best(0.5, validation_every=0) == (0, 0.5)  # only step 0 validated


def test_total_at_least_shortest_on_real_runs():
    suite = two_task_suite(0.6)
    for seed in range(5):
        for scheme in ("sus", "ius", "io"):
            cfg = SchemeConfig(scheme=scheme, optimizer=OptimizerRule("adam"), lr=ConstantLR(0.05))
            trace = run(cfg, suite, np.zeros(1), 30, seed=seed)
            d = covered_distances(trace)
            assert d.total >= d.shortest - 1e-12
            assert d.degenerate or d.ratio >= 1.0 - 1e-12


def test_snapshot_recompute_matches_accumulated_total(monkeypatch):
    # recompute the total from copies of every iterate that `step` returns
    ws = [np.zeros(1)]
    real_step = schemes.step

    def recording_step(*args):
        updates = real_step(*args)
        ws.extend(w.copy() for _, _, w in updates)
        return updates

    monkeypatch.setattr(schemes, "step", recording_step)
    suite = two_task_suite(0.6)
    cfg = SchemeConfig(scheme="ius", optimizer=OptimizerRule("momentum", beta=0.9), lr=ConstantLR(0.05))
    trace = run(cfg, suite, ws[0], 20, seed=8)
    assert len(ws) == 1 + len(trace.cumulative) == 41
    recomputed = sum(l2_norm(b - a) for a, b in zip(ws, ws[1:]))
    assert recomputed == trace.cumulative[-1]  # the same sum, in the same order


def test_row_counts_per_scheme():
    suite = two_task_suite(0.6)
    sus = run(SchemeConfig("sus", OptimizerRule("sgd"), ConstantLR(0.05)), suite, np.zeros(1), 6, seed=1)
    ius = run(SchemeConfig("ius", OptimizerRule("sgd"), ConstantLR(0.05)), suite, np.zeros(1), 6, seed=1)
    assert len(sus.displacements) == 6  # one update per step
    assert len(ius.displacements) == 12  # one per task per step
    assert sus.labels[0] == "0+1"


def test_cumulative_total_non_decreasing():
    suite = two_task_suite(0.6)
    trace = run(SchemeConfig("io", OptimizerRule("adam"), ConstantLR(0.03)), suite, np.zeros(1), 25, seed=3)
    assert all(b >= a for a, b in zip(trace.cumulative, trace.cumulative[1:]))


def test_csv_round_trip_and_body_extraction(tmp_path):
    suite = two_task_suite(0.6)
    cfg = SchemeConfig("ius", OptimizerRule("sgd"), ConstantLR(0.05))
    trace = run(cfg, suite, np.zeros(1), 5, seed=2)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    body = read_csv_body(path)
    lines = body.strip().split("\n")
    assert lines[0] == "step,task_or_group,train_loss,val_loss,displacement,cumulative_total"
    assert len(lines) == 1 + len(trace.displacements)
    # full precision survives the round trip
    first_disp = float(lines[1].split(",")[4])
    assert first_disp == trace.displacements[0]
    with open(path, encoding="utf-8") as f:
        assert f.readline().startswith("# config:")


def _reference_csv(trace, path):
    """The csv.writer form of write_trace_csv, kept as its byte reference."""
    def fmt(x):
        if x is None:
            return ""
        return repr(x) if isinstance(x, float) else str(x)

    val_by_step = dict(zip(trace.val_steps, trace.val_losses))
    last_row_of_step = {}
    for i, s in enumerate(trace.steps):
        last_row_of_step[s] = i
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# config: {json.dumps(trace.meta, sort_keys=True)}\n")
        writer = csv.writer(f)
        writer.writerow(["step", "task_or_group", "train_loss", "val_loss", "displacement", "cumulative_total"])
        for i, s in enumerate(trace.steps):
            val = val_by_step.get(s) if last_row_of_step[s] == i else None
            row = (s, trace.labels[i], trace.train_losses[i], val, trace.displacements[i], trace.cumulative[i])
            writer.writerow([fmt(x) for x in row])


def test_csv_bytes_equal_csv_writer_reference(tmp_path):
    three_tasks = QuadraticSuite(five_task_suite().tasks[:3])
    grouped = SchemeConfig("ius", OptimizerRule("momentum", beta=0.9), ConstantLR(0.05), n_groups=2)
    divergent = SchemeConfig("io", OptimizerRule("sgd"), ConstantLR(50.0))
    traces = [
        # groups (0, 2) and (1,); val_loss only every third step
        run(grouped, three_tasks, np.zeros(3), 12, seed=1, validation_every=3),
        # diverges to floats of every exponent, then aborts mid-run
        run(divergent, two_task_suite(), np.array([1000.0]), 300, seed=0, validation_every=1000),
        # aborts at step 0, before any row
        run(divergent, two_task_suite(), np.array([1e200]), 5, seed=0),
    ]
    assert "0+2" in traces[0].labels and traces[0].val_steps == [0, 3, 6, 9, 12]
    assert traces[1].aborted and traces[1].steps
    assert traces[2].aborted and not traces[2].steps
    for i, trace in enumerate(traces):
        write_trace_csv(trace, tmp_path / f"trace{i}.csv")
        _reference_csv(trace, tmp_path / f"ref{i}.csv")
        assert (tmp_path / f"trace{i}.csv").read_bytes() == (tmp_path / f"ref{i}.csv").read_bytes()
