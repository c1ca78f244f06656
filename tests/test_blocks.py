"""`run` steps in blocks; these tests pin every bit of it to step-by-step runs.

`_reference_run` is the per-step `run` loop from before blocks, kept here as
the reference: one order draw, one minibatch draw and one validation call per
step. The bulk draws are checked against per-step draws of the same stream,
and every case compares with np.array_equal and np.signbit, so a changed
zero sign fails too.
"""

import math

import numpy as np
import pytest

from mtlopt import schemes
from mtlopt.mlp import init_mlp_params, synthetic_mlp_suite
from mtlopt.objectives import QuadraticSuite, QuadraticTask, five_task_suite
from mtlopt.optimizers import OptimizerRule
from mtlopt.params import NonFiniteError, RngStream, l2_norm
from mtlopt.schemes import ConstantLR, InverseTimeLR, SchemeConfig, run
from mtlopt.tracing import RunTrace


def _reference_order(policy, n_units, gen):
    if policy == "round_robin":
        return gen.permutation(n_units)
    if policy == "fixed":
        return np.arange(n_units)
    return np.array([gen.integers(n_units)])


def _reference_run(config, suite, w0, n_steps, seed, validation_every=1):
    """`run` as it was before blocks, less the meta and the argument checks."""
    w = np.array(w0, dtype=np.float64)
    units, states = schemes._materialize_units(config, suite, seed)
    labels = ["+".join(str(k) for k in unit) for unit in units]
    shared_mask = suite.shared_mask
    data_gen = RngStream(seed, "data").gen
    order_gen = RngStream(seed, "task-order").gen
    trace = RunTrace(meta={})
    trace.w0 = w.copy()

    def record_validation(t, current_w):
        task_losses = suite.validation_task_losses(current_w)
        if task_losses is None:
            return
        val = float(task_losses.sum() / task_losses.size)
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
        with np.errstate(over="ignore", invalid="ignore"):
            record_validation(0, w)
            for t in range(1, n_steps + 1):
                eta = config.lr.at(t)
                if not math.isfinite(eta):
                    raise NonFiniteError(f"step size {eta} is non-finite")
                xi = draw if config.fresh_minibatch_per_task else draw()
                order = _reference_order(config.task_order, len(units), order_gen)
                landed = []
                try:
                    schemes.step(w, suite, units, config.optimizer, states, eta, xi, order, landed)
                finally:
                    for u, loss, w_new in landed:
                        step_vec = w_new - w
                        if shared_mask is not None:
                            step_vec = step_vec[shared_mask]
                        trace.add_row(t, labels[u], float(loss), l2_norm(step_vec))
                        w = w_new
                if validation_every and t % validation_every == 0:
                    record_validation(t, w)
    except NonFiniteError as exc:
        trace.aborted = True
        trace.abort_reason = f"step {t}: {exc}"

    trace.w_final = w.copy()
    if trace.w_best is None:
        trace.w_best = w.copy()
        trace.best_val_step = trace.steps[-1] if trace.steps else 0
    trace.final_states = [s.to_dict() for s in states]
    return trace


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def _assert_same_run(got, ref):
    assert (got.aborted, got.abort_reason) == (ref.aborted, ref.abort_reason)
    assert got.steps == ref.steps and got.labels == ref.labels and got.val_steps == ref.val_steps
    for column in ("train_losses", "displacements", "cumulative", "val_losses"):
        assert _same_bits(getattr(got, column), getattr(ref, column)), column
    assert len(got.val_task_losses) == len(ref.val_task_losses)
    assert all(_same_bits(a, b) for a, b in zip(got.val_task_losses, ref.val_task_losses))
    assert (got.best_val_step, got.best_val_loss) == (ref.best_val_step, ref.best_val_loss)
    for attr in ("w0", "w_best", "w_final"):
        assert _same_bits(getattr(got, attr), getattr(ref, attr)), attr
    assert len(got.final_states) == len(ref.final_states)
    for a, b in zip(got.final_states, ref.final_states):
        assert a["step"] == b["step"] and _same_bits(a["m"], b["m"])
        assert (a["v"] is None) == (b["v"] is None) and (a["v"] is None or _same_bits(a["v"], b["v"]))


# --------------------------------------------------------------- bulk draws


@pytest.mark.parametrize("policy", ["round_robin", "fixed", "uniform_random"])
@pytest.mark.parametrize("n_units", range(1, 7))
@pytest.mark.parametrize("k", [1, 7, 128])
def test_bulk_orders_keep_the_bits_of_per_step_draws(policy, n_units, k):
    bulk_gen, step_gen = RngStream(3, "task-order").gen, RngStream(3, "task-order").gen
    for _ in range(2):  # a second block goes on where the first left the stream
        got = np.array(schemes._sample_orders(policy, n_units, k, bulk_gen))
        want = np.array([_reference_order(policy, n_units, step_gen) for _ in range(k)])
        assert got.shape == want.shape and _same_bits(got, want)
    assert bulk_gen.random() == step_gen.random()


@pytest.mark.parametrize("k", [1, 7, 128])
def test_quadratic_bulk_minibatches_keep_the_bits_of_per_step_draws(k):
    # the noise-free task scales its draws to zeros whose signs follow the draw
    gen = RngStream(0, "suite").gen
    suite = QuadraticSuite([QuadraticTask(i, np.eye(3), gen.normal(size=3), sigma)
                            for i, sigma in enumerate([0.5, 0.0, 1.3])])
    bulk_gen, step_gen = RngStream(5, "data").gen, RngStream(5, "data").gen
    for _ in range(2):
        got = suite.sample_minibatches(bulk_gen, k)
        want = np.array([suite.sample_minibatch(step_gen) for _ in range(k)])
        assert got.shape == (k, 3, 3) and _same_bits(got, want)
        assert np.signbit(got[:, 1]).any() and not got[:, 1].any()
    assert bulk_gen.random() == step_gen.random()


@pytest.mark.parametrize("suite", [five_task_suite(), synthetic_mlp_suite(n_tasks=3, hidden=(8,), val_size=16)],
                         ids=["quadratic", "mlp"])
def test_stacked_validation_keeps_the_bits_of_per_iterate_calls(suite):
    ws = RngStream(2, "init").gen.normal(scale=2.0, size=(9, suite.dim))
    got = suite.validation_task_losses(ws)
    assert got.shape == (9, suite.n_tasks)
    assert _same_bits(got, [suite.validation_task_losses(w) for w in ws])


# ------------------------------------------------- whole runs, aborts included


class PoisonSuite(QuadraticSuite):
    """Five-task quadratics whose validation or training gradient turns
    non-finite at given iterates (matched by their bytes); it records every
    iterate it validates, in order."""

    def __init__(self, bad_val=(), bad_train=()):
        super().__init__(five_task_suite().tasks)
        self.bad_val, self.bad_train, self.validated = set(bad_val), set(bad_train), []

    def validation_task_losses(self, w):
        losses = super().validation_task_losses(w)
        for row, w_row in zip(losses.reshape(-1, self.n_tasks), w.reshape(-1, self.dim)):
            self.validated.append(w_row.copy())
            if w_row.tobytes() in self.bad_val:
                row[1] = math.inf
        return losses

    def unit_value_and_gradient(self, w, unit, xi):
        loss, g = super().unit_value_and_gradient(w, unit, xi)
        return loss, (g * math.nan if w.tobytes() in self.bad_train else g)


def _iterates(config, n_steps, seed):
    """Iterates after every step (validated) and before every update (trained at)."""
    suite, trained = PoisonSuite(), []
    real = suite.unit_value_and_gradient

    def recording(w, unit, xi):
        trained.append(w.copy())
        return real(w, unit, xi)

    suite.unit_value_and_gradient = recording
    assert not _reference_run(config, suite, np.zeros(3), n_steps, seed).aborted
    return suite.validated, trained


def _both(config, suite_args, n_steps, seed, validation_every=1):
    got = run(config, PoisonSuite(*suite_args), np.zeros(3), n_steps, seed, validation_every)
    ref = _reference_run(config, PoisonSuite(*suite_args), np.zeros(3), n_steps, seed, validation_every)
    _assert_same_run(got, ref)
    return got


IUS_ADAM = SchemeConfig("ius", OptimizerRule("adam"), ConstantLR(0.05))
IO_MOMENTUM = SchemeConfig("io", OptimizerRule("momentum", beta=0.9), ConstantLR(0.05), task_order="fixed")
FRESH_RANDOM = SchemeConfig("ius", OptimizerRule("adam"), ConstantLR(0.05), task_order="uniform_random",
                            fresh_minibatch_per_task=True)
FRESH_ROUND_ROBIN = SchemeConfig("io", OptimizerRule("adam"), ConstantLR(0.05), fresh_minibatch_per_task=True)
SUS_SGD = SchemeConfig("sus", OptimizerRule("sgd"), ConstantLR(0.05))
GROUPED = SchemeConfig("ius", OptimizerRule("momentum", beta=0.9), ConstantLR(0.05), n_groups=2)
CONFIGS = {"ius_adam": IUS_ADAM, "io_momentum_fixed": IO_MOMENTUM, "fresh_uniform_random": FRESH_RANDOM,
           "fresh_round_robin": FRESH_ROUND_ROBIN, "sus_sgd": SUS_SGD, "grouped": GROUPED}


@pytest.mark.parametrize("validation_every", [0, 1, 3, 128])
@pytest.mark.parametrize("name", CONFIGS)
def test_runs_keep_the_bits_of_the_per_step_loop(name, validation_every):
    trace = _both(CONFIGS[name], (), 300, seed=4, validation_every=validation_every)
    assert not trace.aborted and trace.steps[-1] == 300


def test_mlp_runs_across_blocks_keep_the_bits_of_the_per_step_loop():
    # the shipped MLP's 1284 parameters make blocks of 25 steps
    suite = synthetic_mlp_suite(n_tasks=4, hidden=(32, 32), batch_size=8, val_size=16)
    w0 = init_mlp_params(suite, RngStream(0, "init").gen)
    for config, every in ((IO_MOMENTUM, 5), (FRESH_RANDOM, 1), (FRESH_ROUND_ROBIN, 3), (SUS_SGD, 7)):
        _assert_same_run(run(config, suite, w0, 60, 1, every), _reference_run(config, suite, w0, 60, 1, every))


@pytest.mark.parametrize("bad_step", [0, 1, 64, 128, 129, 200, 256, 300])
@pytest.mark.parametrize("name", ["ius_adam", "io_momentum_fixed", "fresh_uniform_random"])
def test_a_validation_that_turns_non_finite_cuts_the_run_back_to_its_step(name, bad_step):
    # steps 1-128, 129-256 and 257-300 are blocks: their first, middle and last steps
    validated, _ = _iterates(CONFIGS[name], 300, seed=6)
    trace = _both(CONFIGS[name], ({validated[bad_step].tobytes()},), 300, seed=6)
    assert trace.abort_reason == f"step {bad_step}: validation loss is non-finite"


@pytest.mark.parametrize("name", ["ius_adam", "io_momentum_fixed", "fresh_uniform_random"])
def test_a_validation_abort_discards_a_later_training_abort_in_its_block(name):
    validated, trained = _iterates(CONFIGS[name], 300, seed=6)
    updates_per_step = len(trained) // 300
    bad_update = trained[140 * updates_per_step - 1]  # the last update of step 140
    both = _both(CONFIGS[name], ({validated[135].tobytes()}, {bad_update.tobytes()}), 300, seed=6)
    assert both.abort_reason == "step 135: validation loss is non-finite"
    # without the validation abort, the training abort stands, with the rows before it
    training = _both(CONFIGS[name], ((), {bad_update.tobytes()}), 300, seed=6)
    assert training.abort_reason.startswith("step 140: ")
    # a validation abort after the training abort never happens
    later = _both(CONFIGS[name], ({validated[150].tobytes()}, {bad_update.tobytes()}), 300, seed=6)
    assert later.abort_reason == training.abort_reason


@pytest.mark.parametrize("lr, reason", [(InverseTimeLR(mu=1e-310, offset=0.0), "step 1: step size inf"),
                                        (InverseTimeLR(mu=1e6, offset=-200.0), "step 200: step size inf")])
def test_a_step_size_that_overflows_aborts_as_before(lr, reason):
    config = SchemeConfig("ius", OptimizerRule("adam"), lr)
    assert _both(config, (), 300, seed=2).abort_reason == f"{reason} is non-finite"
