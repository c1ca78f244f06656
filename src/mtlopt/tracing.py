"""Run traces and trajectory exploration metrics.

A trace records one row per individual update (so alternating schemes get one
row per task or group per multi-task step) with its displacement and the
running total, validation losses per multi-task step, and the start, best and
final iterates. Displacements are always measured over the shared parameter
subspace.
"""

import bisect
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .params import l2_norm

__all__ = [
    "RunTrace",
    "DistanceReport",
    "covered_distances",
    "write_trace_csv",
    "write_trace_meta",
    "write_json",
    "config_comment",
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
    w0: np.ndarray | None = None
    w_final: np.ndarray | None = None
    w_best: np.ndarray | None = None
    best_val_step: int | None = None
    best_val_loss: float | None = None
    final_states: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str | None = None

    @cached_property
    def best_val_task_losses(self) -> list | None:
        """Each task's own minimum over the validation steps (not the task
        losses at best_val_step); None without per-task validation. Kept
        from its first access until the next add_validation."""
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

    def truncate(self, n_rows):
        """Drop every row after the first n_rows."""
        for column in (self.steps, self.labels, self.train_losses, self.displacements, self.cumulative):
            del column[n_rows:]

    def add_validation(self, step, loss, task_losses=None):
        self.__dict__.pop("best_val_task_losses", None)  # the cached_property's value
        self.val_steps.append(step)
        self.val_losses.append(loss)
        if task_losses is not None:
            self.val_task_losses.append(np.asarray(task_losses))

    def rows(self):
        """Yield the CSV body rows; val_loss appears on the last row of its
        step."""
        last_row_of_step = {s: i for i, s in enumerate(self.steps)}
        val_at_row = {last_row_of_step[s]: v for s, v in zip(self.val_steps, self.val_losses)
                      if s in last_row_of_step}
        for i, row in enumerate(zip(self.steps, self.labels, self.train_losses)):
            yield (*row, val_at_row.get(i), self.displacements[i], self.cumulative[i])


@dataclass(frozen=True)
class DistanceReport:
    total: float
    shortest: float
    ratio: float  # nan when degenerate
    degenerate: bool


def covered_distances(trace: RunTrace, shared_mask: np.ndarray | None = None) -> DistanceReport:
    """Total covered distance up to the validation-best step, the straight-line
    distance from the start to that point, and their ratio.

    The total is the running total at the last row of the best step. A zero
    straight-line distance is a degenerate case: the ratio is undefined and
    flagged. A trace without rows (a run that aborted before its first update
    landed) is such a case.
    """
    n_rows = bisect.bisect_right(trace.steps, trace.best_val_step)  # steps never decrease
    total = trace.cumulative[n_rows - 1] if n_rows else 0.0
    delta = trace.w_best - trace.w0
    if shared_mask is not None:
        delta = delta[shared_mask]
    shortest = l2_norm(delta)
    if shortest == 0.0:
        return DistanceReport(total=total, shortest=0.0, ratio=math.nan, degenerate=True)
    return DistanceReport(total=total, shortest=shortest, ratio=total / shortest, degenerate=False)


_CSV_COLUMNS = ["step", "task_or_group", "train_loss", "val_loss", "displacement", "cumulative_total"]


def write_trace_csv(trace: RunTrace, path) -> None:
    """CSV body plus '#' header comments embedding the resolved config.

    No timestamps anywhere, so identical runs produce byte-identical files.
    Byte contract: every row is the text csv.writer (excel dialect) gives for
    its fields, written row by row: the fields joined by commas, then CR LF.
    The step and label are formatted by str, the other fields by repr, and a
    missing val_loss is empty. None of them needs quoting: they are ints, float
    reprs, empty, or labels of task indices joined by '+'.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(config_comment(trace.meta))
        f.write(",".join(_CSV_COLUMNS) + "\r\n")
        f.writelines(
            f"{step},{label},{loss!r},{'' if val is None else repr(val)},{disp!r},{cum!r}\r\n"
            for step, label, loss, val, disp, cum in trace.rows()
        )


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
    # one write of the whole text: json.dump makes an f.write call per chunk
    text = json.dumps(_finite_or_null(obj), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def config_comment(meta) -> str:
    """The '# config: ' header line of a CSV output: meta as strict JSON with
    sorted keys, as write_json writes it, on one line."""
    return f"# config: {json.dumps(_finite_or_null(meta), sort_keys=True, allow_nan=False)}\n"
