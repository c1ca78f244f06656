"""Update schemes over a task suite, all driven by one engine, `_updates`:
`step` drives it for one batch of updates, and `run` for a whole run.

Each update descends the summed gradient of one unit of tasks through an
optimizer state. The shared scheme (`sus`) has one unit of every task; the
alternating schemes (`ius`, `io`) have one unit per task, or one per random
balanced task group, and either share one optimizer state (`ius`) or give
each unit its own (`io`).

Every scheme draws its units from one random balanced grouping: `sus` is its
1-group end and the ungrouped alternating schemes its n-group end. Groups are
labeled canonically by their smallest member, so those two ends give the
units (0, ..., n-1) and (0,), ..., (n-1,) whatever the draw.

An update puts its unit's next optimizer state into its slot only after
the parameter update lands, so one that raises NonFiniteError leaves the
parameters and every optimizer state as they were, and an aborted run
reports the state of its last update that landed.
"""

import functools
import math
import warnings
from dataclasses import asdict, dataclass

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
# `run` steps in blocks of at most this many steps and iterate floats
_BLOCK_STEPS = 128
_BLOCK_FLOATS = 2**15


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
        denom = self.mu * (self.offset + t)  # may underflow to 0; run aborts on the inf
        return 2.0 / denom if denom else math.inf

    def describe(self) -> dict:
        return {"kind": "inverse_time", "mu": self.mu, "offset": self.offset}


def theorem_schedule(smoothness: float, strong_convexity: float) -> InverseTimeLR:
    """Smallest admissible offset, 2L/mu - 1, so the first step size is 1/L.
    Raises OverflowError where 2L/mu overflows: every step size would be 0."""
    offset = 2.0 * smoothness / strong_convexity - 1.0
    if not math.isfinite(offset):
        raise OverflowError("the schedule offset 2L/mu - 1 is not finite")
    return InverseTimeLR(mu=strong_convexity, offset=offset)


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
            "optimizer": asdict(self.optimizer),
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


def step(w, suite, units, rule, states, eta, xi, order, out=None):
    """Update units[u] for each u in `order`; return the list `out` (a new one
    by default) with (u, loss, w) appended after each update that lands.

    An update descends the summed gradient of the unit's tasks at the
    parameters the previous update left, through states[u] (states[0] when one
    state is shared), restricted to the coordinates those tasks may touch; the
    loss is the unit's summed value there, from one call of
    `suite.unit_value_and_gradient`. `xi` is the minibatch of every update, or
    a callable that draws a fresh one per update.

    `states` is a list that step updates in place: each update that lands
    replaces its state in the list with the next one.

    All updates run under one np.errstate scope that ignores overflow and
    invalid operations; the finiteness checks raise NonFiniteError instead.
    An update that raises leaves the parameters and `states` as they were,
    and the rows of the updates before it are already in `out`.
    """
    out = [] if out is None else out
    bound = _bind(suite, units, states)
    with np.errstate(over="ignore", invalid="ignore"):
        return _updates(w, suite, bound, rule, states, eta, xi, order, out)


def _bind(suite, units, states):
    """One (unit, label, off, slot) entry per unit: its label in traces and
    errors, the index of the coordinates its update may not touch (None when
    it may touch all of them), and the index in `states` of its optimizer
    state, one shared by every unit or one per unit."""
    if len(states) not in (1, len(units)):
        raise ValueError(f"need 1 or {len(units)} optimizer states, got {len(states)}")
    masks = [suite.unit_mask(unit) for unit in units]
    return [(unit, "+".join(str(k) for k in unit), None if mask is None or mask.all() else np.flatnonzero(~mask),
             u if len(states) > 1 else 0)
            for u, (unit, mask) in enumerate(zip(units, masks))]


def _updates(w, suite, bound, rule, states, eta, xi, order, out):
    """The update loop of `step` over the unit table `bound` (_bind), for a
    caller that holds its np.errstate scope; returns `out`.

    An update zeroes its unit's off coordinates in the direction in place,
    with the bits of np.where(mask, direction, 0.0): optimizers.apply
    returns a fresh direction, which no state or gradient shares."""
    oracle = suite.unit_value_and_gradient
    fresh = callable(xi)
    for u in order:
        u = int(u)
        unit, label, off, slot = bound[u]
        loss, g = oracle(w, unit, xi() if fresh else xi)
        if not math.isfinite(loss):
            raise NonFiniteError(f"training loss for unit {label} is non-finite")
        direction, state = optimizers.apply(rule, states[slot], g)
        if off is not None:
            direction[off] = 0.0
        w = axpy(w, direction, -eta)
        states[slot] = state
        out.append((u, loss, w))
    return out


def _sample_orders(policy: str, n_units: int, k: int, gen: np.random.Generator) -> list:
    """The unit orders of k steps, one row per step, with the bits of k
    per-step draws: a permutation per step (round_robin), or one unit per
    step (uniform_random)."""
    if policy == "uniform_random":
        return gen.integers(n_units, size=(k, 1)).tolist()
    orders = np.tile(np.arange(n_units), (k, 1))
    return (gen.permuted(orders, axis=1) if policy == "round_robin" else orders).tolist()


def _materialize_units(config: SchemeConfig, suite, seed: int):
    n = suite.n_tasks
    k = 1 if config.scheme == "sus" else n if config.n_groups is None else config.n_groups
    units = make_grouping(n, k, RngStream(seed, "grouping").gen)
    n_states = len(units) if config.scheme == "io" else 1
    states = [optimizers.fresh_state(config.optimizer, suite.dim) for _ in range(n_states)]
    return units, states


def _validate(trace, suite, kept):
    """Record the validation of each kept (t, w) in turn, from one stacked
    call; raise NonFiniteError at the first non-finite one."""
    # np.array stacks the same rows as np.stack, with less dispatch
    task_losses = suite.validation_task_losses(np.array([w for _, w in kept])) if kept else None
    if task_losses is None:
        return
    vals = (task_losses.sum(axis=-1) / task_losses.shape[-1]).tolist()  # each the bits of np.mean
    for (t, w), losses, val in zip(kept, task_losses, vals):
        if not math.isfinite(val):
            raise NonFiniteError("validation loss is non-finite")
        trace.add_validation(t, val, losses)
        if trace.best_val_loss is None or val < trace.best_val_loss:
            trace.best_val_loss, trace.best_val_step, trace.w_best = val, t, w.copy()


def _in_blocks(attempt, block):
    """attempt(block) with every floating-point error and warning raised; if
    that fails, attempt(1) under the caller's error settings, to fail, warn
    or abort where a step-by-step pass does."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            return attempt(block)
    except (ArithmeticError, Warning):
        pass
    return attempt(1)


def run(
    config: SchemeConfig,
    suite,
    w0,
    n_steps: int,
    seed: int,
    validation_every: int = 1,
    extra_meta: dict | None = None,
) -> RunTrace:
    """Execute n_steps multi-task steps and record the trace.

    One minibatch is sampled per multi-task step and shared by every update
    within it (unless fresh_minibatch_per_task). Unit visitation order is
    re-sampled per step from a dedicated stream. Distances are accumulated per
    individual update over the shared parameter subspace. A non-finite step
    size, loss or update aborts the run and records the reason.

    Steps run in blocks of up to 128 steps and 2**15 iterate floats. A block
    draws its unit orders and its minibatches in one call each and validates
    its iterates in one stacked call, with the bits of step-by-step draws and
    validations. The blocks run with every floating-point error and warning
    raised; a run that fails in them, an abort included, runs again from step
    1 one step at a time under the caller's error settings (_in_blocks), so
    it aborts, warns or raises where a step-by-step run does.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    w0 = as_params(w0)
    if w0.size != suite.dim:
        raise ValueError(f"w0 dimension {w0.size} != suite dimension {suite.dim}")
    block = max(1, min(_BLOCK_STEPS, _BLOCK_FLOATS // suite.dim))
    return _in_blocks(functools.partial(_run, config, suite, w0, n_steps, seed, validation_every, extra_meta), block)


def _run(config, suite, w0, n_steps, seed, validation_every, extra_meta, block):
    """run in blocks of `block` steps. A non-finite step size, loss or update
    raises NonFiniteError when block > 1, and at block 1 aborts the run."""
    w = w0.copy()
    units, states = _materialize_units(config, suite, seed)
    bound = _bind(suite, units, states)
    shared_mask = suite.shared_mask
    data_gen = RngStream(seed, "data").gen
    order_gen = RngStream(seed, "task-order").gen
    fresh = config.fresh_minibatch_per_task

    meta = {
        "seed": seed,
        "n_steps": n_steps,
        "n_tasks": suite.n_tasks,
        "n_units": len(units),
        "validation_every": validation_every,
        "snapshot_every": 0,  # not an option; the key is kept so that outputs keep their bytes
        "displacement_granularity": "per_individual_update",
    }
    meta.update(config.describe())
    if extra_meta:
        meta.update(extra_meta)
    trace = RunTrace(meta=meta)
    trace.w0 = w.copy()

    t = 0
    try:
        # one np.errstate scope for the whole run, the one `step` enters per
        # call: updates, validation and the displacement norm ignore overflow
        # and invalid operations, and the finiteness checks raise
        # NonFiniteError instead
        with np.errstate(over="ignore", invalid="ignore"):
            _validate(trace, suite, [(0, w)])
            for start in range(1, n_steps + 1, block):
                k = min(block, n_steps + 1 - start)
                orders = _sample_orders(config.task_order, len(units), k, order_gen)
                batches = iter(suite.sample_minibatches(data_gen, k * len(orders[0]) if fresh else k))
                kept = []
                for t, order in enumerate(orders, start):
                    eta = config.lr.at(t)
                    if not math.isfinite(eta):
                        raise NonFiniteError(f"step size {eta} is non-finite")
                    xi = batches.__next__ if fresh else next(batches)
                    landed = []
                    try:
                        _updates(w, suite, bound, config.optimizer, states, eta, xi, order, landed)
                    finally:  # an aborted step keeps the rows of the updates before the failure
                        for u, loss, w_new in landed:
                            step_vec = w_new - w
                            if shared_mask is not None:
                                step_vec = step_vec[shared_mask]
                            # l2_norm's first try, inline
                            norm = math.sqrt(float(step_vec.dot(step_vec)))
                            if not math.isfinite(norm):
                                norm = l2_norm(step_vec)
                            trace.add_row(t, bound[u][1], float(loss), norm)
                            w = w_new
                    if validation_every and t % validation_every == 0:
                        kept.append((t, w))
                _validate(trace, suite, kept)
    except NonFiniteError as exc:
        if block > 1:
            raise
        trace.aborted = True
        trace.abort_reason = f"step {t}: {exc}"

    trace.w_final = w.copy()
    if trace.w_best is None:
        # no validation support, or an abort at step 0: measure at the endpoint
        trace.w_best = w.copy()
        trace.best_val_step = trace.steps[-1] if trace.steps else 0
    trace.final_states = [s.to_dict() for s in states]
    return trace
