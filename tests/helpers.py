"""Shared test helpers."""

import json

import numpy as np

from mtlopt.objectives import TaskSuite, two_task_suite
from mtlopt.optimizers import OptimizerRule
from mtlopt.schemes import ConstantLR, SchemeConfig


def read_csv_body(path) -> str:
    """File contents minus '#' comment lines (the byte-comparable body)."""
    with open(path, "r", encoding="utf-8") as f:
        return "".join(line for line in f if not line.startswith("#"))


def same_bits(a, b, equal_nan=False) -> bool:
    """Equal values and signbits, so a changed zero sign differs too; a NaN
    differs from everything unless equal_nan, which matches NaN positions."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b, equal_nan=equal_nan) and np.array_equal(np.signbit(a), np.signbit(b))


def bits(x):
    """The bit patterns of x as float64, for comparisons that NaN and -0.0
    cannot fool."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_run(got, ref, states=True):
    """Two RunTraces are the same run bit for bit: rows, validations, best
    iterate, start and end, abort fields and, unless states is False, the
    final optimizer states. A changed zero sign fails; NaN matches NaN."""
    assert (got.aborted, got.abort_reason) == (ref.aborted, ref.abort_reason)
    assert got.steps == ref.steps and got.labels == ref.labels and got.val_steps == ref.val_steps
    for column in ("train_losses", "displacements", "cumulative", "val_losses"):
        assert same_bits(getattr(got, column), getattr(ref, column), equal_nan=True), column
    assert len(got.val_task_losses) == len(ref.val_task_losses)
    assert all(same_bits(a, b, equal_nan=True) for a, b in zip(got.val_task_losses, ref.val_task_losses))
    assert got.best_val_step == ref.best_val_step
    assert (got.best_val_loss is None) == (ref.best_val_loss is None)
    assert got.best_val_loss is None or same_bits(got.best_val_loss, ref.best_val_loss, equal_nan=True)
    for attr in ("w0", "w_best", "w_final"):
        assert same_bits(getattr(got, attr), getattr(ref, attr), equal_nan=True), attr
    if not states:
        return
    assert len(got.final_states) == len(ref.final_states)
    for a, b in zip(got.final_states, ref.final_states):
        assert a["step"] == b["step"] and same_bits(a["m"], b["m"], equal_nan=True)
        assert (a["v"] is None) == (b["v"] is None)
        assert a["v"] is None or same_bits(a["v"], b["v"], equal_nan=True)


def report_json(report) -> str:
    """A report as sorted JSON text: floats print as their shortest exact
    repr, so equal texts mean equal bits, zero signs, NaN and infinities
    included."""
    return json.dumps(report, sort_keys=True)


def assert_same_report(got, ref):
    """Two reports (dicts, lists or tuples of them) are the same bit for bit."""
    assert report_json(got) == report_json(ref)


def equivalent_pairs(n_tasks, order="round_robin"):
    """The five pairs of configs whose runs must be the same bit for bit, as
    (label, config, config, states): random grouping spans the shared update
    with one group and the alternating ones with one group per task, and
    under SGD one optimizer state per unit moves as one shared state does.
    states is False only for that last pair, which holds 1 state against
    n_tasks."""

    def config(scheme, n_groups=None, rule=OptimizerRule("adam")):
        return SchemeConfig(scheme, rule, ConstantLR(0.05), n_groups=n_groups, task_order=order)

    sgd = OptimizerRule("sgd")
    return [
        ("grouped n=1 (ius) vs sus", config("ius", 1), config("sus"), True),
        ("grouped n=1 (io) vs sus", config("io", 1), config("sus"), True),
        ("grouped n=N (ius) vs ius", config("ius", n_tasks), config("ius"), True),
        ("grouped n=N (io) vs io", config("io", n_tasks), config("io"), True),
        ("ius(sgd) vs io(sgd)", config("ius", rule=sgd), config("io", rule=sgd), False),
    ]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def load_strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, which strict JSON lacks."""
    return json.loads(text, parse_constant=_reject_constant)


def noiseless_pair():
    return two_task_suite(noise_sigma=0.0)


def empty_batch(suite):
    return np.zeros((suite.n_tasks, suite.dim))


def loop_unit_value_and_gradient(suite, w, unit, xi):
    """The per-task loop that every unit oracle must reproduce bit for bit: the
    unit's task values added to 0 and their gradients to zeros, in unit order.
    Usable as a suite's unit_value_and_gradient method."""
    loss, g = 0, np.zeros(w.shape)
    for k in unit:  # not sum(), which compensates since Python 3.12
        loss += suite.tasks[k].value(w, xi)
        g += suite.tasks[k].gradient(w, xi)
    return loss, g


class ConstantGradientTask:
    """F(w) = slope . w, so the stochastic gradient is a constant vector."""

    def __init__(self, index, slope):
        self.index = index
        self.slope = np.asarray(slope, dtype=np.float64)

    def value(self, w, xi):
        return float(self.slope @ w)

    def gradient(self, w, xi):
        return self.slope.copy()


class ConstantGradientSuite(TaskSuite):
    def __init__(self, slopes):
        super().__init__([ConstantGradientTask(i, s) for i, s in enumerate(slopes)])
        self._dim = len(slopes[0])

    @property
    def dim(self):
        return self._dim

    unit_value_and_gradient = loop_unit_value_and_gradient

    def sample_minibatch(self, gen):
        return None


def loop_finite_difference_check(task, w, xi, h):
    """finite_difference_check as first written, on numpy scalars with
    np.isfinite: the reference whose bits the check must return."""
    analytic = task.gradient(w, xi)
    worst = 0.0
    probe = w.astype(np.float64, copy=True)
    for i in range(w.size):
        orig = probe[i]
        probe[i] = orig + h
        f_plus = task.value(probe, xi)
        probe[i] = orig - h
        f_minus = task.value(probe, xi)
        probe[i] = orig
        diff = (f_plus - f_minus) / (2.0 * h)
        if not np.isfinite(diff):
            raise FloatingPointError("central difference underflowed or overflowed")
        err = abs(analytic[i] - diff) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst


class ProbeRecordingTask:
    """A task that records, for each value call, the array it was given and
    the coordinates where that array differs from w, with their values."""

    def __init__(self, task, w):
        self.task, self.w = task, w.astype(np.float64, copy=True)
        self.probes, self.moves = [], []

    def gradient(self, w, xi):
        return self.task.gradient(w, xi)

    def value(self, probe, xi):
        moved = np.flatnonzero(probe != self.w)
        self.probes.append(probe)
        self.moves.append((moved.tolist(), probe[moved].tolist()))
        return self.task.value(probe, xi)

    def assert_probed(self, h):
        """Exactly 2*dim value calls on one probe array: call 2i moved
        coordinate i alone to w[i] + h, call 2i + 1 to w[i] - h, and each
        coordinate was restored before the next, the last one by the end."""
        expected = []
        for i, orig in enumerate(self.w.tolist()):
            expected += [([i], [orig + h]), ([i], [orig - h])]
        assert self.moves == expected
        assert all(p is self.probes[0] for p in self.probes)
        assert same_bits(self.probes[0], self.w)
