"""Update schemes over a task suite, all driven by one engine, `step`.

Each update descends the summed gradient of one unit of tasks through an
optimizer state. The shared scheme (`sus`) has one unit of every task; the
alternating schemes (`ius`, `io`) have one unit per task, or one per random
balanced task group, and either share one optimizer state (`ius`) or give
each unit its own (`io`).

Grouping with one group reproduces the shared scheme exactly, and grouping
with one group per task reproduces the ungrouped alternating schemes exactly
(same seed, bit-identical trajectories). Groups are labeled canonically by
their smallest member so those equivalences hold at the bit level.

Updates are transactional: one that raises NonFiniteError leaves the
parameters and its optimizer state as they were, so an aborted run reports
the state of its last update that landed.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import optimizers
from .params import NonFiniteError, RngStream, as_params, axpy, l2_norm
from .tracing import RunTrace

__all__ = [
    "ConstantLR",
    "InverseTimeLR",
    "theorem_schedule",
    "SchemeConfig",
    "make_grouping",
    "step",
    "run",
]

_SCHEMES = ("sus", "ius", "io")
_ORDER_POLICIES = ("round_robin", "fixed", "uniform_random")


@dataclass(frozen=True)
class ConstantLR:
    eta: float

    def at(self, t: int) -> float:
        return self.eta

    def describe(self) -> dict:
        return {"kind": "constant", "eta": self.eta}


@dataclass(frozen=True)
class InverseTimeLR:
    """eta_t = 2 / (mu * (offset + t)), the decaying schedule of the
    convex-case convergence bound; t counts multi-task steps from 1."""

    mu: float
    offset: float

    def at(self, t: int) -> float:
        return 2.0 / (self.mu * (self.offset + t))

    def describe(self) -> dict:
        return {"kind": "inverse_time", "mu": self.mu, "offset": self.offset}


def theorem_schedule(smoothness: float, strong_convexity: float) -> InverseTimeLR:
    """Smallest admissible offset, 2L/mu - 1, so the first step size is 1/L."""
    return InverseTimeLR(mu=strong_convexity, offset=2.0 * smoothness / strong_convexity - 1.0)


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str
    optimizer: optimizers.OptimizerRule
    lr: object
    n_groups: int | None = None
    task_order: str = "round_robin"
    fresh_minibatch_per_task: bool = False

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")
        if self.task_order not in _ORDER_POLICIES:
            raise ValueError(
                f"unknown task_order {self.task_order!r}, expected one of {_ORDER_POLICIES}"
            )
        if self.scheme == "sus" and self.n_groups not in (None, 1):
            raise ValueError("scheme 'sus' updates all tasks at once; n_groups must be 1 or omitted")

    def describe(self) -> dict:
        return {
            "scheme": self.scheme,
            "n_groups": self.n_groups,
            "task_order": self.task_order,
            "optimizer": {
                "kind": self.optimizer.kind,
                "beta": self.optimizer.beta,
                "beta1": self.optimizer.beta1,
                "beta2": self.optimizer.beta2,
                "eps": self.optimizer.eps,
            },
            "lr": self.lr.describe(),
            "fresh_minibatch_per_task": self.fresh_minibatch_per_task,
        }


def make_grouping(n_tasks: int, n_groups: int, gen: np.random.Generator) -> tuple:
    """Uniformly random balanced partition, as a tuple of groups of task
    indices; sizes differ by at most one.

    Groups are relabeled by their smallest member, which makes singleton
    groupings coincide with task indices.
    """
    if not 1 <= n_groups <= n_tasks:
        raise ValueError(f"n_groups must be in [1, {n_tasks}], got {n_groups}")
    perm = gen.permutation(n_tasks)
    buckets = [sorted(int(x) for x in perm[i::n_groups]) for i in range(n_groups)]
    buckets.sort(key=lambda b: b[0])
    return tuple(tuple(b) for b in buckets)


def step(w, suite, units, rule, states, eta, xi, order):
    """Update units[u] for each u in `order`; yield (u, loss, w) after each.

    An update descends the summed gradient of the unit's tasks at the
    parameters the previous update left, through states[u] (states[0] when one
    state is shared), restricted to the coordinates those tasks may touch; the
    loss is the unit's summed value there. `xi` is the minibatch of every
    update, or a callable that draws a fresh one per update.
    """
    if len(states) not in (1, len(units)):
        raise ValueError(f"need 1 or {len(units)} optimizer states, got {len(states)}")
    draw = xi if callable(xi) else lambda: xi
    for u in order:
        u = int(u)
        unit = units[u]
        state = states[0] if len(states) == 1 else states[u]
        batch = draw()
        with np.errstate(over="ignore", invalid="ignore"):
            loss = sum(suite.tasks[k].value(w, batch) for k in unit)
            if not math.isfinite(loss):
                label = "+".join(str(k) for k in unit)
                raise NonFiniteError(f"training loss for unit {label} is non-finite")
            g = np.zeros(w.shape)
            for k in unit:
                g += suite.tasks[k].gradient(w, batch)
            # apply rebinds m, v and step, never writes into them, so keeping
            # the three references is enough to undo an update that fails
            saved = state.m, state.v, state.step
            try:
                direction = optimizers.apply(rule, state, g)
                mask = suite.unit_mask(unit)
                if mask is not None:
                    direction = np.where(mask, direction, 0.0)
                w = axpy(w, direction, -eta)
            except NonFiniteError:
                state.m, state.v, state.step = saved
                raise
        yield u, loss, w


def _sample_order(policy: str, n_units: int, gen: np.random.Generator) -> np.ndarray:
    if policy == "round_robin":
        return gen.permutation(n_units)
    if policy == "fixed":
        return np.arange(n_units)
    return np.array([gen.integers(n_units)])  # uniform_random: one unit per step


def _materialize_units(config: SchemeConfig, suite, seed: int):
    n = suite.n_tasks
    if config.scheme == "sus":
        units = [tuple(range(n))]
    elif config.n_groups is None or config.n_groups == n:
        units = [(k,) for k in range(n)]
    else:
        units = list(make_grouping(n, config.n_groups, RngStream(seed, "grouping").gen))
    if config.scheme == "io":
        states = [optimizers.fresh_state(config.optimizer, suite.dim) for _ in units]
    else:
        states = [optimizers.fresh_state(config.optimizer, suite.dim)]
    return units, states


def run(
    config: SchemeConfig,
    suite,
    w0,
    n_steps: int,
    seed: int,
    validation_every: int = 1,
    snapshot_every: int = 0,
    extra_meta: dict | None = None,
) -> RunTrace:
    """Execute n_steps multi-task steps and record the trace.

    One minibatch is sampled per multi-task step and shared by every update
    within it (unless fresh_minibatch_per_task). Unit visitation order is
    re-sampled per step from a dedicated stream. Distances are accumulated per
    individual update over the shared parameter subspace. A non-finite loss or
    update aborts the run and records the reason.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    w = as_params(w0).copy()
    if w.size != suite.dim:
        raise ValueError(f"w0 dimension {w.size} != suite dimension {suite.dim}")
    units, states = _materialize_units(config, suite, seed)
    labels = ["+".join(str(k) for k in unit) for unit in units]
    shared_mask = suite.shared_mask
    data_gen = RngStream(seed, "data").gen
    order_gen = RngStream(seed, "task-order").gen

    meta = {
        "seed": seed,
        "n_steps": n_steps,
        "n_tasks": suite.n_tasks,
        "n_units": len(units),
        "validation_every": validation_every,
        "snapshot_every": snapshot_every,
        "displacement_granularity": "per_individual_update",
    }
    meta.update(config.describe())
    if extra_meta:
        meta.update(extra_meta)
    trace = RunTrace(meta=meta)
    trace.w0 = w.copy()
    if snapshot_every:
        trace.snapshots.append((0, 0, w.copy()))

    def record_validation(t, current_w):
        with np.errstate(over="ignore", invalid="ignore"):
            task_losses = suite.validation_task_losses(current_w)
        if task_losses is None:
            return
        val = float(task_losses.sum() / task_losses.size)  # the bits of np.mean
        if not math.isfinite(val):
            raise NonFiniteError("validation loss is non-finite")
        trace.add_validation(t, val, task_losses)
        if trace.best_val_loss is None or val < trace.best_val_loss:
            trace.best_val_loss = val
            trace.best_val_step = t
            trace.w_best = current_w.copy()

    def draw():
        return suite.sample_minibatch(data_gen)

    t = 0
    try:
        record_validation(0, w)
        for t in range(1, n_steps + 1):
            eta = config.lr.at(t)
            xi = draw if config.fresh_minibatch_per_task else draw()
            order = _sample_order(config.task_order, len(units), order_gen)
            updates = step(w, suite, units, config.optimizer, states, eta, xi, order)
            for sub_i, (u, loss, w_new) in enumerate(updates):
                step_vec = w_new - w
                if shared_mask is not None:
                    step_vec = step_vec[shared_mask]
                trace.add_row(t, labels[u], float(loss), l2_norm(step_vec))
                w = w_new
                if snapshot_every == 1:
                    trace.snapshots.append((t, sub_i, w.copy()))
            if validation_every and t % validation_every == 0:
                record_validation(t, w)
            if snapshot_every > 1 and t % snapshot_every == 0:
                trace.snapshots.append((t, len(order) - 1, w.copy()))
    except NonFiniteError as exc:
        trace.aborted = True
        trace.abort_reason = f"step {t}: {exc}"

    trace.w_final = w.copy()
    if trace.w_best is None:
        # no validation support, or an abort at step 0: measure at the endpoint
        trace.w_best = w.copy()
        trace.best_val_step = trace.n_steps_executed
    trace.final_states = [s.to_dict() for s in states]
    return trace
