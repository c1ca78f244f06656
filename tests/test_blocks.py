"""`run` steps in blocks; these tests pin every bit of it to step-by-step runs.

`_reference_run` is the per-step `run` loop from before blocks, kept here as
the reference: one order draw, one minibatch draw and one validation call per
step. The bulk draws are checked against per-step draws of the same stream,
and every case compares with np.array_equal and np.signbit, so a changed
zero sign fails too.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_same_run, same_bits
from mtlopt import schemes, verify
from mtlopt.cli import _sweep_cell, main
from mtlopt.config import load_config
from mtlopt.mlp import init_mlp_params, synthetic_mlp_suite
from mtlopt.objectives import QuadraticSuite, QuadraticTask, five_task_suite, two_task_suite
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


# --------------------------------------------------------------- bulk draws


@pytest.mark.parametrize("policy", ["round_robin", "fixed", "uniform_random"])
@pytest.mark.parametrize("n_units", range(1, 7))
@pytest.mark.parametrize("k", [1, 7, 128])
def test_bulk_orders_keep_the_bits_of_per_step_draws(policy, n_units, k):
    bulk_gen, step_gen = RngStream(3, "task-order").gen, RngStream(3, "task-order").gen
    for _ in range(2):  # a second block goes on where the first left the stream
        got = np.array(schemes._sample_orders(policy, n_units, k, bulk_gen))
        want = np.array([_reference_order(policy, n_units, step_gen) for _ in range(k)])
        assert got.shape == want.shape and same_bits(got, want)
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
        assert got.shape == (k, 3, 3) and same_bits(got, want)
        assert np.signbit(got[:, 1]).any() and not got[:, 1].any()
    assert bulk_gen.random() == step_gen.random()


@pytest.mark.parametrize("k", [1, 7, 128])
@pytest.mark.parametrize("batch_size, input_dim", [(1, 1), (1, 3), (5, 1), (32, 2)])
def test_mlp_bulk_minibatches_keep_the_bits_of_per_step_draws(k, batch_size, input_dim):
    # a stacked target evaluation must make each minibatch's products as a
    # lone 2-D one does, at one row and one input coordinate too
    suite = synthetic_mlp_suite(n_tasks=3, input_dim=input_dim, hidden=(4,), batch_size=batch_size, val_size=4)
    bulk_gen, step_gen = RngStream(5, "data").gen, RngStream(5, "data").gen
    for _ in range(2):
        got = suite.sample_minibatches(bulk_gen, k)
        want = [suite.sample_minibatch(step_gen) for _ in range(k)]
        assert len(got) == k
        for (x, targets), (x_ref, targets_ref) in zip(got, want):
            assert x.shape == (batch_size, input_dim) and same_bits(x, x_ref)
            assert len(targets) == len(targets_ref) == suite.n_tasks
            for f, y, y_ref in zip(suite.targets, targets, targets_ref):
                assert y.shape == (batch_size, 1) and same_bits(y, y_ref) and same_bits(y_ref, f(x_ref))
    assert bulk_gen.random() == step_gen.random()


@pytest.mark.parametrize("suite", [five_task_suite(), synthetic_mlp_suite(n_tasks=3, hidden=(8,), val_size=16)],
                         ids=["quadratic", "mlp"])
def test_stacked_validation_keeps_the_bits_of_per_iterate_calls(suite):
    ws = RngStream(2, "init").gen.normal(scale=2.0, size=(9, suite.dim))
    got = suite.validation_task_losses(ws)
    assert got.shape == (9, suite.n_tasks)
    assert same_bits(got, [suite.validation_task_losses(w) for w in ws])


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
    assert_same_run(got, ref)
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
        assert_same_run(run(config, suite, w0, 60, 1, every), _reference_run(config, suite, w0, 60, 1, every))


@pytest.mark.parametrize("bad_step", [0, 1, 64, 128, 129, 200, 256, 300])
@pytest.mark.parametrize("name", ["ius_adam", "io_momentum_fixed", "fresh_uniform_random"])
def test_a_validation_that_turns_non_finite_aborts_the_run_at_its_step(name, bad_step):
    # steps 1-128, 129-256 and 257-300 are blocks: their first, middle and last steps
    validated, _ = _iterates(CONFIGS[name], 300, seed=6)
    trace = _both(CONFIGS[name], ({validated[bad_step].tobytes()},), 300, seed=6)
    assert trace.abort_reason == f"step {bad_step}: validation loss is non-finite"


@pytest.mark.parametrize("name", ["ius_adam", "io_momentum_fixed", "fresh_uniform_random"])
def test_a_validation_abort_ends_the_run_before_a_later_training_abort_in_its_block(name):
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
def test_a_step_size_that_overflows_aborts_as_the_per_step_loop_does(lr, reason):
    config = SchemeConfig("ius", OptimizerRule("adam"), lr)
    assert _both(config, (), 300, seed=2).abort_reason == f"{reason} is non-finite"


# ------------------------------------------------- attempts of the one failure rule

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
FIVE_TASK_MOMENTUM_ETA_1_5 = {
    "objective": {"family": "quadratic", "preset": "five_task"},
    "scheme": {"kind": "ius", "n_groups": 2, "optimizer": {"kind": "momentum", "beta": 0.9},
               "lr": {"kind": "constant", "eta": 1.5}},
    "steps": 400,
    "seeds": [0, 1, 2],
}


@pytest.fixture
def attempts(monkeypatch):
    """The block of each attempt of every _in_blocks call that run and the
    verify passes make, one list per call."""
    calls, real = [], schemes._in_blocks

    def counting(attempt, block):
        blocks = []
        calls.append(blocks)

        def recorded(b):
            blocks.append(b)
            return attempt(b)

        return real(recorded, block)

    monkeypatch.setattr(schemes, "_in_blocks", counting)
    monkeypatch.setattr(verify, "_in_blocks", counting)
    return calls


def _write(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_runs_that_finish_make_one_blocked_attempt(tmp_path, attempts):
    # a replay keeps every byte, so only a count shows a spurious one
    assert main(["run", str(CONFIGS_DIR / "two_task_run.json"), "--out", str(tmp_path / "shipped")]) == 0
    assert attempts == [[128]] * 3
    schemes_of_quad_run = [
        {"kind": "sus", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
        {"kind": "ius", "n_groups": 2, "optimizer": {"kind": "momentum", "beta": 0.9},
         "lr": {"kind": "constant", "eta": 0.01}},
        {"kind": "io", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
    ]
    for i, scheme in enumerate(schemes_of_quad_run):
        cfg = _write(tmp_path, {"objective": {"family": "quadratic", "preset": "five_task"}, "scheme": scheme,
                                "steps": 4000, "seeds": [0], "validation_every": 1})
        assert main(["run", cfg, "--out", str(tmp_path / f"quad{i}")]) == 0
    assert attempts == [[128]] * 6
    # one cell of the shipped sweep: 25 steps of the MLP's 1284 parameters fill a block
    cell = _sweep_cell(load_config(str(CONFIGS_DIR / "mlp_four_task.json")), 2, 0.01, 0)
    assert math.isfinite(cell["best_val_loss"])
    assert attempts == [[128]] * 6 + [[25]]


def test_a_run_that_aborts_replays_once_step_by_step(tmp_path, attempts, capsys):
    assert main(["run", _write(tmp_path, FIVE_TASK_MOMENTUM_ETA_1_5), "--out", str(tmp_path / "o")]) == 2
    assert attempts == [[128, 1]] * 3
    assert capsys.readouterr().err.splitlines() == [
        "seed 0: aborted (step 99: validation loss is non-finite)",
        "seed 1: aborted (step 99: training loss for unit 0+4 is non-finite)",
        "seed 2: aborted (step 102: training loss for unit 1+2+4 is non-finite)",
    ]


def test_verify_passes_replay_only_when_a_block_fails(attempts):
    suite = two_task_suite()
    verify.verify_theorem(suite, [1, 10, 100], replicates=4, seed=0, w0=[0.0])
    verify.verify_lemmas(suite, 5, replicates=4, seed=0, w0=[0.0])
    block = verify._block(suite, 4)
    assert attempts == [[block], [block]]
    # the squared gradient norms overflow at the first step
    huge = QuadraticSuite([QuadraticTask(k, [[1.0]], [float(k)], 1e308) for k in range(2)])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="^overflow encountered in matmul$"):
        verify.verify_theorem(huge, [1, 10, 100], replicates=2, seed=0, w0=[0.0])
    assert attempts[2:] == [[verify._block(huge, 2), 1]]
