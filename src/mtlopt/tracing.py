"""Run traces and trajectory exploration metrics.

A trace records one row per individual update (so alternating schemes get one
row per task or group per multi-task step), validation losses per multi-task
step, and the snapshots needed to recompute distances independently.
Displacements are always measured over the shared parameter subspace.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .params import l2_norm

__all__ = [
    "RunTrace",
    "DistanceReport",
    "covered_distances",
    "best_validation_point",
    "write_trace_csv",
    "write_trace_meta",
    "read_csv_body",
    "write_json",
]


@dataclass
class RunTrace:
    meta: dict
    steps: list = field(default_factory=list)  # multi-task step index per row
    labels: list = field(default_factory=list)  # task/group indices as "i+j"
    train_losses: list = field(default_factory=list)
    displacements: list = field(default_factory=list)
    cumulative: list = field(default_factory=list)
    val_steps: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    val_task_losses: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # (step, substep, w) copies
    w0: np.ndarray | None = None
    w_final: np.ndarray | None = None
    w_best: np.ndarray | None = None
    best_val_step: int | None = None
    best_val_loss: float | None = None
    final_states: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str | None = None

    @property
    def n_steps_executed(self) -> int:
        return self.steps[-1] if self.steps else 0

    @property
    def best_val_task_losses(self) -> list | None:
        """Each task's own minimum over the validation steps (not the task
        losses at best_val_step); None without per-task validation."""
        if not self.val_task_losses:
            return None
        return np.stack(self.val_task_losses).min(axis=0).tolist()

    def add_row(self, step, label, train_loss, displacement):
        cum = (self.cumulative[-1] if self.cumulative else 0.0) + displacement
        self.steps.append(step)
        self.labels.append(label)
        self.train_losses.append(train_loss)
        self.displacements.append(displacement)
        self.cumulative.append(cum)

    def add_validation(self, step, loss, task_losses=None):
        self.val_steps.append(step)
        self.val_losses.append(loss)
        if task_losses is not None:
            self.val_task_losses.append(np.asarray(task_losses))

    def rows(self):
        """CSV body rows; val_loss appears on the last row of its step."""
        val_by_step = dict(zip(self.val_steps, self.val_losses))
        last_row_of_step = {}
        for i, s in enumerate(self.steps):
            last_row_of_step[s] = i
        out = []
        for i, s in enumerate(self.steps):
            val = val_by_step.get(s) if last_row_of_step[s] == i else None
            out.append(
                (
                    s,
                    self.labels[i],
                    self.train_losses[i],
                    val,
                    self.displacements[i],
                    self.cumulative[i],
                )
            )
        return out


@dataclass(frozen=True)
class DistanceReport:
    total: float
    shortest: float
    ratio: float  # nan when degenerate
    degenerate: bool


def best_validation_point(trace: RunTrace):
    """(step, value) of the validation minimum; first occurrence wins ties."""
    if not trace.val_steps:
        raise ValueError("trace has no validation records")
    best_i = 0
    for i, v in enumerate(trace.val_losses):
        if v < trace.val_losses[best_i]:
            best_i = i
    return trace.val_steps[best_i], trace.val_losses[best_i]


def covered_distances(
    trace: RunTrace,
    w0: np.ndarray | None = None,
    w_best: np.ndarray | None = None,
    shared_mask: np.ndarray | None = None,
) -> DistanceReport:
    """Total covered distance up to the validation-best step, the straight-line
    distance from the start to that point, and their ratio.

    Defaults come from the trace itself. A zero straight-line distance is a
    degenerate case: the ratio is undefined and flagged. A trace without rows
    (a run that aborted before its first update landed) is such a case.
    """
    w0 = trace.w0 if w0 is None else w0
    w_best = trace.w_best if w_best is None else w_best
    if w0 is None or w_best is None:
        raise ValueError("trace lacks start/best snapshots; pass w0 and w_best")
    best_step = trace.best_val_step if trace.best_val_step is not None else trace.n_steps_executed
    total = 0.0
    for s, d in zip(trace.steps, trace.displacements):
        if s <= best_step:
            total += d
    delta = w_best - w0
    if shared_mask is not None:
        delta = delta[shared_mask]
    shortest = l2_norm(delta)
    if shortest == 0.0:
        return DistanceReport(total=total, shortest=0.0, ratio=math.nan, degenerate=True)
    return DistanceReport(total=total, shortest=shortest, ratio=total / shortest, degenerate=False)


_CSV_COLUMNS = ["step", "task_or_group", "train_loss", "val_loss", "displacement", "cumulative_total"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_trace_csv(trace: RunTrace, path) -> None:
    """CSV body plus '#' header comments embedding the resolved config.

    No timestamps anywhere, so identical runs produce byte-identical files.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# config: {json.dumps(trace.meta, sort_keys=True)}\n")
        writer = csv.writer(f)
        writer.writerow(_CSV_COLUMNS)
        for row in trace.rows():
            writer.writerow([_fmt(x) for x in row])


def write_trace_meta(trace: RunTrace, path) -> None:
    meta = dict(trace.meta)
    meta["aborted"] = trace.aborted
    if trace.abort_reason:
        meta["abort_reason"] = trace.abort_reason
    meta["best_val_step"] = trace.best_val_step
    meta["best_val_loss"] = trace.best_val_loss
    if trace.val_task_losses:
        meta["best_val_task_losses"] = trace.best_val_task_losses
    if trace.w_final is not None:
        meta["w_final"] = trace.w_final.tolist()
    meta["final_optimizer_states"] = trace.final_states
    write_json(meta, path)


def _finite_or_null(obj):
    """obj with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def write_json(obj, path) -> None:
    """Strict JSON (non-finite floats become null), sorted keys, two-space
    indent and a final newline: the one format of every JSON output."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_finite_or_null(obj), f, sort_keys=True, indent=2, allow_nan=False)
        f.write("\n")


def read_csv_body(path) -> str:
    """File contents minus '#' comment lines (the byte-comparable body)."""
    with open(path, "r", encoding="utf-8") as f:
        return "".join(line for line in f if not line.startswith("#"))
