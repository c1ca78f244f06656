import csv
import json
import math

import numpy as np

from helpers import load_strict_json, read_csv_body
from mtlopt import schemes, tracing
from mtlopt.objectives import QuadraticSuite, QuadraticTask, five_task_suite, two_task_suite
from mtlopt.optimizers import OptimizerRule
from mtlopt.params import l2_norm
from mtlopt.schemes import ConstantLR, InverseTimeLR, SchemeConfig, run
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


def test_best_val_task_losses_are_taken_once_until_the_next_validation(monkeypatch):
    trace = RunTrace(meta={})
    assert trace.best_val_task_losses is None
    trace.add_validation(0, 2.0, [3.0, 1.0])
    trace.add_validation(1, 3.0, [2.0, 4.0])
    stacks = []
    real_stack = np.stack
    monkeypatch.setattr(np, "stack", lambda *a, **k: stacks.append(a) or real_stack(*a, **k))
    # each task's own minimum, read twice (summary and trace meta) from one stack
    assert trace.best_val_task_losses == trace.best_val_task_losses == [2.0, 1.0]
    assert len(stacks) == 1
    trace.add_validation(2, 3.0, [1.0, 5.0])
    assert trace.best_val_task_losses == [1.0, 1.0]
    assert len(stacks) == 2


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
    # recompute the total from copies of every iterate that the update loop returns
    ws = [np.zeros(1)]
    real_updates = schemes._updates

    def recording_updates(*args):
        updates = real_updates(*args)
        ws.extend(w.copy() for _, _, w in updates)
        return updates

    monkeypatch.setattr(schemes, "_updates", recording_updates)
    suite = two_task_suite(0.6)
    cfg = SchemeConfig(scheme="ius", optimizer=OptimizerRule("momentum", beta=0.9), lr=ConstantLR(0.05))
    trace = run(cfg, suite, ws[0], 20, seed=8)
    assert len(ws) == 1 + len(trace.cumulative) == 41
    recomputed = 0.0
    for a, b in zip(ws, ws[1:]):  # not sum(), which compensates since Python 3.12
        recomputed += l2_norm(b - a)
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


def test_config_line_is_strict_json(tmp_path):
    # an infinite offset makes every step size 0: a useless schedule, but a library caller may pass it
    cfg = SchemeConfig("sus", OptimizerRule("sgd"), InverseTimeLR(mu=1.0, offset=math.inf))
    trace = run(cfg, two_task_suite(), np.zeros(1), 2, seed=0)
    write_trace_csv(trace, tmp_path / "trace.csv")
    with open(tmp_path / "trace.csv", encoding="utf-8") as f:
        line = f.readline()
    assert line.startswith("# config: ") and line.endswith("}\n")
    assert load_strict_json(line[len("# config: "):])["lr"] == {"kind": "inverse_time", "mu": 1.0, "offset": None}


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


def _reference_fstring_csv(trace, path):
    """write_trace_csv as it was before it wrote a chunk of rows at a time,
    one f-string per row: its second byte reference."""
    last_row_of_step = {s: i for i, s in enumerate(trace.steps)}
    val_at_row = {last_row_of_step[s]: v for s, v in zip(trace.val_steps, trace.val_losses)
                  if s in last_row_of_step}
    columns = zip(trace.steps, trace.labels, trace.train_losses, trace.displacements, trace.cumulative)
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# config: {json.dumps(trace.meta, sort_keys=True)}\n")
        f.write("step,task_or_group,train_loss,val_loss,displacement,cumulative_total\r\n")
        for i, (step, label, loss, disp, cum) in enumerate(columns):
            val = val_at_row.get(i)
            f.write(f"{step},{label},{loss!r},{'' if val is None else repr(val)},{disp!r},{cum!r}\r\n")


_EDGE_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, math.inf, math.nan, -math.inf]


def _synthetic_trace(n_rows):
    """n_rows rows of three units per step, so that steps straddle the
    writer's chunks, with a validation at step 0 (which has no row), at every
    other step and one step past the last row. Every float column holds each
    edge float, and one loss is an np.float64."""
    gen = np.random.default_rng(n_rows)

    def floats(n, shift):
        values = (gen.uniform(-10.0, 10.0, n) * 10.0 ** gen.integers(-300, 300, n)).tolist()
        for i in range(min(n, len(_EDGE_FLOATS))):
            values[i] = _EDGE_FLOATS[(i + shift) % len(_EDGE_FLOATS)]
        return values

    steps = [1 + r // 3 for r in range(n_rows)]
    last = steps[-1] if steps else 0
    val_steps = [0, *range(2, last + 1, 2), last + 1]
    trace = RunTrace(meta={"rows": n_rows}, steps=steps, labels=[("0", "1+2", "3")[r % 3] for r in range(n_rows)],
                     train_losses=floats(n_rows, 0), displacements=floats(n_rows, 2),
                     cumulative=floats(n_rows, 4), val_steps=val_steps, val_losses=floats(len(val_steps), 6))
    if n_rows:
        trace.train_losses[n_rows // 2] = np.float64(trace.train_losses[n_rows // 2])
    return trace


def _run_traces():
    three_tasks = QuadraticSuite(five_task_suite().tasks[:3])
    grouped = SchemeConfig("ius", OptimizerRule("momentum", beta=0.9), ConstantLR(0.05), n_groups=2)
    per_task = SchemeConfig("io", OptimizerRule("adam"), ConstantLR(0.05))
    divergent = SchemeConfig("io", OptimizerRule("sgd"), ConstantLR(50.0))
    traces = [
        # groups (0, 2) and (1,); val_loss only every third step
        run(grouped, three_tasks, np.zeros(3), 12, seed=1, validation_every=3),
        # five updates and a validation per step, over three chunks of rows
        run(per_task, five_task_suite(), np.zeros(3), 60, seed=2),
        # diverges to floats of every exponent, then aborts mid-run
        run(divergent, two_task_suite(), np.array([1000.0]), 300, seed=0, validation_every=1000),
        # aborts at step 0, before any row
        run(divergent, two_task_suite(), np.array([1e200]), 5, seed=0),
    ]
    assert "0+2" in traces[0].labels and traces[0].val_steps == [0, 3, 6, 9, 12]
    assert len(traces[1].steps) == 300 > 2 * tracing._CSV_CHUNK_ROWS
    assert traces[2].aborted and traces[2].steps
    assert traces[3].aborted and not traces[3].steps
    return traces


def test_csv_bytes_equal_both_references(tmp_path):
    chunk = tracing._CSV_CHUNK_ROWS
    synthetic = [_synthetic_trace(n) for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3)]
    edges = {repr(x) for x in _EDGE_FLOATS}
    last = synthetic[-1]
    for column in (last.train_losses, last.val_losses, last.displacements, last.cumulative):
        assert edges <= set(map(repr, column))
    for i, trace in enumerate(_run_traces() + synthetic):
        write_trace_csv(trace, tmp_path / f"trace{i}.csv")
        _reference_csv(trace, tmp_path / f"ref{i}.csv")
        _reference_fstring_csv(trace, tmp_path / f"fstring{i}.csv")
        written = (tmp_path / f"trace{i}.csv").read_bytes()
        assert written == (tmp_path / f"ref{i}.csv").read_bytes() == (tmp_path / f"fstring{i}.csv").read_bytes(), i
