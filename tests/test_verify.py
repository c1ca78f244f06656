import contextlib
import io
import json
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import assert_same_report, load_strict_json, report_json
from mtlopt import schemes
from mtlopt.cli import main
from mtlopt.objectives import (
    QuadraticSuite,
    QuadraticTask,
    five_task_suite,
    suite_constants,
    two_task_suite,
)
from mtlopt.optimizers import OptimizerRule
from mtlopt.params import NonFiniteError, RngStream, check_finite, l2_norm
from mtlopt.schemes import SchemeConfig, theorem_schedule
from mtlopt.verify import (
    B_FORM_NOTE,
    GRAD_BOUND_SAFETY,
    BoundInputs,
    _block,
    _lockstep,
    _max_grad_norm,
    _norms,
    _passes,
    estimate_grad_bound,
    fit_rate,
    theorem_bound,
    theorem_bound_max_form,
    verify_lemma1,
    verify_lemma2,
    verify_lemmas,
    verify_theorem,
)


def inputs(**overrides):
    base = dict(
        smoothness=1.0,
        strong_convexity=1.0,
        sigmas=(0.5, 0.5),
        grad_bound=3.0,
        gamma_het=0.5,
        offset=1.0,
        w1_dist_sq=1.0,
        n_tasks=2,
    )
    base.update(overrides)
    return BoundInputs(**base)


def homogeneous_noiseless():
    return QuadraticSuite(
        [QuadraticTask(0, [[1.0]], [1.0], 0.0), QuadraticTask(1, [[1.0]], [1.0], 0.0)]
    )


# ------------------------------------------------------------ bound formula


def test_bound_zero_in_fully_degenerate_case():
    z = inputs(sigmas=(0.0, 0.0), grad_bound=0.0, gamma_het=0.0, w1_dist_sq=0.0)
    for t in (1, 10, 1000):
        assert theorem_bound(z, t) == 0.0


def test_bound_decreasing_in_t_and_vanishing():
    b = inputs()
    values = [theorem_bound(b, t) for t in (1, 2, 5, 10, 100, 10_000, 10**8)]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert values[-1] < 1e-5


def test_bound_monotone_in_noise_and_initial_distance():
    b = inputs()
    assert theorem_bound(inputs(grad_bound=4.0), 10) > theorem_bound(b, 10)
    assert theorem_bound(inputs(sigmas=(1.0, 1.0)), 10) > theorem_bound(b, 10)
    assert theorem_bound(inputs(gamma_het=1.0), 10) > theorem_bound(b, 10)
    assert theorem_bound(inputs(w1_dist_sq=2.0), 10) > theorem_bound(b, 10)


def test_bound_cross_checked_against_independent_formula():
    # independent re-implementation, written as one literal expression
    b = inputs(grad_bound=3.724, w1_dist_sq=1.0)
    t = 100
    L, mu, gamma = 1.0, 1.0, 1.0
    noise = (0.5**2 + 0.5**2) / 2**2 + 2 * L * 0.5 + 3.724**2
    expected = (L / (gamma + t)) * (2 * noise / mu**2 + (gamma + 1) / 2 * 1.0)
    assert theorem_bound(b, t) == pytest.approx(expected, rel=1e-12)


def test_bound_that_overflows_raises():
    # B is finite (1.1025e308), but 2B/mu^2 is not
    with pytest.raises(OverflowError, match="^the bound at T=10 is not finite$"):
        theorem_bound(inputs(grad_bound=1.05e154), 10)
    assert np.isfinite(theorem_bound(inputs(grad_bound=1e153), 10))


def test_a_check_passes_only_on_finite_numbers():
    assert _passes(1.0, 2.0, 0.0) and _passes(2.0, 1.0, 0.5) and not _passes(2.0, 1.0, 0.1)
    inf, nan = float("inf"), float("nan")
    for est, bound, se in [(1.0, inf, 0.0), (1.0, 2.0, inf), (-inf, 2.0, 0.0), (1.0, 2.0, nan), (nan, 2.0, 0.0)]:
        assert _passes(est, bound, se) is False


def test_max_form_never_exceeds_sum_form():
    for w1 in (0.0, 0.5, 4.0):
        b = inputs(w1_dist_sq=w1)
        for t in (1, 10, 100):
            assert theorem_bound_max_form(b, t) <= theorem_bound(b, t) + 1e-15


def test_max_form_takes_the_initial_distance_term_where_it_is_larger():
    # 4B/mu^2 = 40.5 here, below (offset + 1) * w1_dist_sq = 200
    b = inputs(w1_dist_sq=100.0)
    assert 4.0 * b.noise_total / b.strong_convexity**2 < (b.offset + 1.0) * b.w1_dist_sq
    for t in (1, 10, 100):
        expected = 0.5 * 1.0 * (1.0 + 1.0) * 100.0 / (1.0 + t)  # L = offset = 1
        assert theorem_bound_max_form(b, t) == pytest.approx(expected, rel=1e-12)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        inputs(strong_convexity=0.0)
    with pytest.raises(ValueError):
        inputs(smoothness=0.5)  # below strong convexity
    with pytest.raises(ValueError):
        inputs(offset=0.5, smoothness=2.0)  # below 2L/mu - 1
    with pytest.raises(ValueError):
        inputs(gamma_het=-0.1)
    # NaN passes every comparison above; a non-finite input checks nothing
    nan, inf = float("nan"), float("inf")
    for bad in ({"sigmas": (nan,)}, {"smoothness": inf}, {"grad_bound": nan}, {"w1_dist_sq": inf}, {"offset": inf}):
        with pytest.raises(ValueError):
            inputs(**bad)
    with pytest.raises(OverflowError):  # finite inputs, but B = ... + 2 * L * gamma_het overflows
        inputs(gamma_het=1e308)


# ------------------------------------------------------------ lockstep engine


def lockstep_steps(*args, **kwargs):
    """_lockstep's blocks flattened into steps: (t, eta, W, G, sel) of each
    step t, as a per-step pass reads them."""
    for start, etas, Ws, Gs, sels in _lockstep(*args, **kwargs):
        for i, eta in enumerate(etas.tolist()):
            yield start + i + 1, eta, Ws[i], Gs[i], sels[i]


def per_replicate_steps(suite, schedule, w0, n_steps, seed, replicate):
    """Reference: one replicate stepped alone, one task gradient at a time."""
    data_gen = RngStream(seed, f"data[{replicate}]").gen
    sel_gen = RngStream(seed, f"task-order[{replicate}]").gen
    w = np.array(w0, dtype=np.float64)
    for t in range(1, n_steps + 1):
        eta = schedule.at(t)
        xi = suite.sample_minibatch(data_gen)
        grads = np.array([task.gradient(w, xi) for task in suite.tasks])
        selected = int(sel_gen.integers(suite.n_tasks))
        yield t, eta, w, grads, selected
        w = w - eta * grads[selected]


def shipped_five_task_setup():
    suite = five_task_suite()
    consts = suite_constants(suite)
    return suite, theorem_schedule(consts.smoothness, consts.strong_convexity), np.zeros(suite.dim)


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), np.finfo(float).tiny))


def test_lockstep_engine_matches_per_replicate_reference():
    suite, schedule, w0 = shipped_five_task_setup()
    R, T, seed = 4, 30, 3
    refs = [list(per_replicate_steps(suite, schedule, w0, T, seed, r)) for r in range(R)]
    steps = 0
    for t, eta, W, G, sel in lockstep_steps(suite, schedule, w0, T, R, seed):
        assert W.shape == (R, suite.dim) and G.shape == (R, suite.n_tasks, suite.dim)
        for r in range(R):
            t_ref, eta_ref, w_ref, g_ref, sel_ref = refs[r][t - 1]
            assert (t, eta, int(sel[r])) == (t_ref, eta_ref, sel_ref)
            assert relative_error(W[r], w_ref) <= 1e-12
            assert relative_error(G[r], g_ref) <= 1e-12
        steps += 1
    assert steps == T


def test_lockstep_trajectory_does_not_depend_on_replicate_count():
    suite, schedule, w0 = shipped_five_task_setup()
    few = lockstep_steps(suite, schedule, w0, 30, 2, seed=3)
    many = lockstep_steps(suite, schedule, w0, 30, 5, seed=3)
    for (_, _, W2, G2, sel2), (_, _, W5, G5, sel5) in zip(few, many):
        assert np.array_equal(W2, W5[:2])
        assert np.array_equal(G2, G5[:2])
        assert np.array_equal(sel2, sel5[:2])


@pytest.mark.parametrize("block", [1, 7, 30, 31])
def test_lockstep_draws_the_same_noise_per_call_and_in_blocks(block):
    # 30 steps: blocks of 7 end on a partial one, 30 and 31 draw them all at once
    suite, schedule, w0 = shipped_five_task_setup()
    want = list(lockstep_steps(suite, schedule, w0, 30, 4, 3))
    for per_call in (False, True):
        got = list(lockstep_steps(suite, schedule, w0, 30, 4, 3, block, per_call))
        assert len(got) == len(want)
        for step, ref in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(step, ref))


def test_lockstep_yields_each_block_of_steps_whole():
    # 30 steps in blocks of 7: four whole blocks, then one of 2 steps
    suite, schedule, w0 = shipped_five_task_setup()
    R, n, d = 4, suite.n_tasks, suite.dim
    blocks = list(_lockstep(suite, schedule, w0, 30, R, 3, 7))
    assert [start for start, *_ in blocks] == [0, 7, 14, 21, 28]
    for start, eta, W, G, sel in blocks:
        k = min(7, 30 - start)
        assert (eta.shape, W.shape, G.shape, sel.shape) == ((k,), (k, R, d), (k, R, n, d), (k, R))
        assert eta.tolist() == [schedule.at(t) for t in range(start + 1, start + k + 1)]


@pytest.mark.parametrize("make_suite", [five_task_suite, two_task_suite])
def test_lockstep_replicates_are_runs_of_the_engine_users_run(monkeypatch, make_suite):
    # replicate r is schemes.run under ius, sgd, uniform_random and the theorem
    # schedule, with run's data and task-order streams renamed data[r] and task-order[r]
    suite = make_suite()
    consts = suite_constants(suite)
    schedule = theorem_schedule(consts.smoothness, consts.strong_convexity)
    R, T, seed, w0 = 4, 300, 3, np.zeros(suite.dim)
    lockstep = [(W.copy(), sel.copy()) for _, _, W, _, sel in lockstep_steps(suite, schedule, w0, T + 1, R, seed)]
    config = SchemeConfig("ius", OptimizerRule("sgd"), schedule, task_order="uniform_random")
    real_updates = schemes._updates
    for r in range(R):
        iterates, selected = [w0], []

        def recording_updates(*args):
            landed = real_updates(*args)
            selected.extend(u for u, _, _ in landed)
            iterates.extend(w for _, _, w in landed)
            return landed

        monkeypatch.setattr(schemes, "_updates", recording_updates)
        monkeypatch.setattr(schemes, "RngStream", lambda s, name, r=r: RngStream(s, f"{name}[{r}]"))
        trace = schemes.run(config, suite, w0, T, seed, validation_every=0)
        assert not trace.aborted and np.array_equal(trace.w_final, iterates[-1])
        assert np.array_equal(np.array(iterates), np.array([W[r] for W, _ in lockstep]))
        assert selected == [int(sel[r]) for _, sel in lockstep[:T]]


# ------------------------------------------------------------ one pass per check


class CountingSuite(QuadraticSuite):
    """A QuadraticSuite that counts its minibatch draws, one per
    replicate-step: `calls` drawn one at a time, `block_draws` in blocks."""

    calls = block_draws = 0

    @property
    def draws(self):
        return self.calls + self.block_draws

    def sample_minibatch(self, gen):
        self.calls += 1
        return super().sample_minibatch(gen)

    def sample_minibatches(self, gen, count):
        self.block_draws += count
        return super().sample_minibatches(gen, count)


def _set_block(monkeypatch, suite, replicates, block):
    """Shrink run's block of floats so that the verify passes step `block`
    steps at a time; None keeps the default block."""
    if block is not None:
        monkeypatch.setattr("mtlopt.verify._BLOCK_FLOATS", block * replicates * suite.n_tasks * suite.dim)
        assert _block(suite, replicates) == block


@pytest.mark.parametrize("make_suite", [five_task_suite, two_task_suite])
def test_verify_theorem_steps_each_replicate_once(monkeypatch, make_suite):
    # one sample_minibatch call per replicate-step, the count that the
    # benchmark's tracer reads as verify.steps, at the default block and at
    # blocks of 7 and 1 step
    for block in (None, 7, 1):
        suite = CountingSuite(make_suite().tasks)
        _set_block(monkeypatch, suite, 5, block)
        verify_theorem(suite, [3, 30, 12], replicates=5, seed=2, w0=np.zeros(suite.dim))
        assert (suite.calls, suite.block_draws) == (5 * 30, 0)


@pytest.mark.parametrize("make_suite", [five_task_suite, two_task_suite])
def test_verify_lemma2_without_a_bound_steps_each_replicate_once(make_suite):
    suite = CountingSuite(make_suite().tasks)
    verify_lemma2(suite, 12, replicates=7, seed=2, w0=np.zeros(suite.dim))
    assert suite.draws == 7 * 12


@pytest.mark.parametrize("make_suite", [five_task_suite, two_task_suite])
def test_verify_theorem_grad_bound_is_that_of_the_stand_alone_pre_run(monkeypatch, make_suite):
    # and neither depends on the block: over 40 steps the default block holds
    # them all, and blocks of 7 end on a partial one
    suite = make_suite()
    consts = suite_constants(suite)
    schedule = theorem_schedule(consts.smoothness, consts.strong_convexity)
    w0 = np.full(suite.dim, 0.5)
    results = []
    for block in (None, 7, 1):
        _set_block(monkeypatch, suite, 6, block)
        report = verify_theorem(suite, [2, 40, 9], replicates=6, seed=4, w0=w0)
        results.append((report, estimate_grad_bound(suite, schedule, 40, 6, 4, w0)))
    assert results[0][0]["constants"]["grad_bound"] == results[0][1]
    assert_same_report(results[1], results[0])
    assert_same_report(results[2], results[0])


@pytest.mark.parametrize("make_suite", [five_task_suite, two_task_suite])
def test_verify_lemma2_grad_bound_is_that_of_the_stand_alone_pre_run(make_suite):
    suite = make_suite()
    consts = suite_constants(suite)
    schedule = theorem_schedule(consts.smoothness, consts.strong_convexity)
    w0 = np.full(suite.dim, 0.5)
    report = verify_lemma2(suite, 15, replicates=6, seed=4, w0=w0)
    expected = estimate_grad_bound(suite, schedule, 15, 6, 4, w0)
    assert report["grad_bound"] == expected and not report["grad_bound_supplied"]
    assert report["observed_max_grad_norm"] * GRAD_BOUND_SAFETY == expected
    assert not report["grad_bound_violated"]


@pytest.mark.parametrize("make_suite", [five_task_suite, two_task_suite])
def test_verify_lemmas_steps_each_replicate_once(make_suite):
    suite = CountingSuite(make_suite().tasks)
    verify_lemmas(suite, 12, replicates=7, seed=2, w0=np.zeros(suite.dim))
    assert suite.draws == 7 * 12


@pytest.mark.parametrize(
    "lemma_steps, lemma_replicates",
    # lemma replicates above, at and below the theorem's; lemma steps above
    # max(T_list), the last over 13 draw blocks
    [(7, 5), (7, 3), (7, 2), (301, 2), (700, 40)],
)
def test_cmd_verify_simulates_each_replicate_of_each_check_once(tmp_path, monkeypatch, lemma_steps,
                                                                lemma_replicates):
    draws = []
    real, real_blocks = QuadraticSuite.sample_minibatch, QuadraticSuite.sample_minibatches
    monkeypatch.setattr(QuadraticSuite, "sample_minibatch", lambda self, gen: draws.append(1) or real(self, gen))
    monkeypatch.setattr(QuadraticSuite, "sample_minibatches",
                        lambda self, gen, k: draws.append(k) or real_blocks(self, gen, k))
    v = {"T_list": [2, 300, 30], "replicates": 3, "lemma_steps": lemma_steps, "lemma_replicates": lemma_replicates}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"objective": {"family": "quadratic", "preset": "five_task"}, "seeds": [0], "verify": v}))
    assert main(["verify", str(cfg), "--out", str(tmp_path / "v")]) in (0, 3)
    assert sum(draws) == 3 * 300 + lemma_replicates * lemma_steps


# ------------------------------------------------------------ theorem check


@pytest.mark.parametrize(
    "errors, error, message",
    [
        ({"over": "raise", "invalid": "raise"}, FloatingPointError, "overflow encountered in matmul"),
        ({}, RuntimeWarning, "overflow encountered in matmul"),  # the test settings raise warnings
        ({"over": "ignore"}, NonFiniteError, "non-finite entries in stochastic gradients"),
    ],
)
def test_verify_theorem_fails_at_the_step_whose_gradient_norm_overflows(errors, error, message):
    # the step-1 gradients under noise 1e308 are finite, but their squared
    # norms overflow (or, with overflow ignored, the gradients of step 2 are
    # inf); a norm left to the end of a block would let later steps fail first
    suite = QuadraticSuite([QuadraticTask(k, [[1.0]], [float(k)], 1e308) for k in range(2)])
    with np.errstate(**errors), pytest.raises(error, match=f"^{message}$"):
        verify_theorem(suite, [1, 5, 20], replicates=2, seed=0, w0=[0.0])


def test_verify_theorem_reads_a_step_before_its_update_overflows():
    # from w0 = 1e308 at eta_1 = 1, the update of a replicate that selects
    # task 1 overflows where its noise draw is below about -8.1e307, as one of
    # seed 1's does; a per-step pass fails first on that step's gradient
    # norm, whose square overflows, so the engine makes a block's last update
    # only after the block is read
    suite = QuadraticSuite([QuadraticTask(0, [[1.0]], [0.0], 0.0), QuadraticTask(1, [[0.01]], [0.0], 1e308)])
    with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError, match="in matmul$"):
        verify_theorem(suite, [1, 2, 3], replicates=2, seed=1, w0=[1e308])


def test_verify_lemmas_read_a_step_before_its_update_overflows():
    # at curvature 1e-300 the first step size is 1e300, so the update of a
    # replicate that selects task 1 overflows where its noise draw exceeds
    # about 1.8e8 in magnitude, as seed 0's second replicate's does; a
    # per-step pass fails first on that step's averaged candidate update,
    # whose squared norm overflows, so the engine makes a block's last update
    # only after the block is read
    suite = QuadraticSuite([QuadraticTask(0, [[1e-300]], [0.0], 0.0), QuadraticTask(1, [[1e-300]], [0.0], 2e8)])
    with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError, match="in matmul$"):
        verify_lemmas(suite, 3, replicates=2, seed=0, w0=[0.0])


def test_verify_theorem_noiseless_single_task():
    # anisotropic curvature so the first step is not an exact Newton step
    suite = QuadraticSuite([QuadraticTask(0, [[2.0, 0.3], [0.3, 1.0]], [1.0, -1.0], 0.0)])
    report = verify_theorem(suite, [1, 5, 20], replicates=3, seed=0, w0=[0.0, 0.0])
    assert report["all_pass"]
    ests = [r["estimate"] for r in report["rows"]]
    assert ests[0] > ests[1] > ests[2] >= 0.0


def test_verify_theorem_deterministic_when_noise_free_and_homogeneous():
    report = verify_theorem(homogeneous_noiseless(), [5, 20], replicates=4, seed=1, w0=[3.0])
    for row in report["rows"]:
        assert row["std"] == 0.0  # selection does not matter: identical tasks
    assert report["all_pass"]


def test_verify_theorem_small_real_suite():
    report = verify_theorem(two_task_suite(0.5), [10, 100], replicates=50, seed=2, w0=[0.0])
    assert report["all_pass"]
    assert report["schedule_ok"]
    assert "sum(p_k^2 sigma_k^2)" in report["b_form_note"]


# ------------------------------------------------------------ lemma checks


def test_lemma1_homogeneous_noiseless_contracts_deterministically():
    report = verify_lemma1(homogeneous_noiseless(), 20, replicates=3, seed=0, w0=[4.0])
    assert report["all_pass"]
    for row in report["rows"]:
        assert row["rhs"] == 0.0  # no heterogeneity, no noise
        assert row["excess_mean"] <= 1e-12


def test_lemma1_at_optimum_noiseless_both_sides_vanish():
    suite = homogeneous_noiseless()
    report = verify_lemma1(suite, 10, replicates=3, seed=0, w0=[1.0])  # w0 == w*
    for row in report["rows"]:
        assert row["lhs_mean"] == pytest.approx(0.0, abs=1e-24)


def test_lemma2_single_task_left_side_zero():
    suite = QuadraticSuite([QuadraticTask(0, [[1.0]], [1.0], 0.5)])
    report = verify_lemma2(suite, 10, replicates=5, seed=3, w0=[0.0])
    for row in report["rows"]:
        assert row["lhs_mean"] == 0.0 and row["lhs_max"] == 0.0
    assert report["all_pass"]


def test_lemma2_identical_tasks_and_noise_left_side_zero():
    report = verify_lemma2(homogeneous_noiseless(), 10, replicates=5, seed=3, w0=[0.0])
    for row in report["rows"]:
        assert row["lhs_mean"] == pytest.approx(0.0, abs=1e-28)


def test_lemma2_small_real_suite_and_cross_check():
    report = verify_lemma2(two_task_suite(0.5), 25, replicates=200, seed=4, w0=[0.0])
    assert report["all_pass"]
    assert not report["grad_bound_violated"]
    for row in report["rows"]:
        # exhaustive enumeration vs the run's own sampled selections
        slack = 4.0 * row["mc_std_error"] + 1e-15
        assert abs(row["mc_mean"] - row["lhs_mean"]) <= slack


def _std_error(vals):
    """Reference: the standard error of the mean of one step's replicate values."""
    return float(vals.std(ddof=1)) / np.sqrt(vals.size) if vals.size > 1 else 0.0


# the last two cross draw blocks: of 7 steps (five-task, R 300), and of 8
# (two-task, R 2000) and 1 (five-task, R 2000)
@pytest.mark.parametrize(
    "replicates, n_steps, seed", [(1, 3, 0), (2, 1, 5), (7, 12, 2), (40, 30, 11), (300, 9, 1), (2000, 40, 6)]
)
@pytest.mark.parametrize("make_suite", [five_task_suite, two_task_suite])
def test_verify_lemmas_equal_the_two_lemma_passes(make_suite, replicates, n_steps, seed):
    suite = make_suite()
    w0 = np.full(suite.dim, 0.5)
    lemma1, lemma2 = verify_lemmas(suite, n_steps, replicates, seed, w0)
    assert_same_report((lemma1, lemma2), reference_lemmas(suite, n_steps, replicates, seed, w0))
    assert_same_report(verify_lemma1(suite, n_steps, replicates, seed, w0), lemma1)
    assert_same_report(verify_lemma2(suite, n_steps, replicates, seed, w0), lemma2)


@pytest.mark.parametrize("n_steps, replicates, name", [(0, 3, "n_steps"), (-3, 3, "n_steps"), (3, 0, "replicates")])
def test_verify_lemmas_rejects_a_vacuous_call(n_steps, replicates, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        verify_lemmas(two_task_suite(), n_steps, replicates, 0, [0.0])


@pytest.mark.parametrize("T_list, replicates, message", [
    ([0, 10, 100], 2, "^every T must be >= 1$"),
    ([1, 10, 100], 1, "^need at least 2 replicates for a standard error$"),
])
def test_verify_theorem_rejects_a_vacuous_call(T_list, replicates, message):
    with pytest.raises(ValueError, match=message):
        verify_theorem(two_task_suite(), T_list, replicates, 0, [0.0])


def reference_lemmas(suite, n_steps, replicates, seed, w0):
    """Reference: both lemma reports from one pass, step by step, with every
    reduction and check in the order of a per-step loop."""
    consts = suite_constants(suite)
    schedule = theorem_schedule(consts.smoothness, consts.strong_convexity)
    w0 = np.asarray(w0, dtype=np.float64)
    n = suite.n_tasks
    mu = consts.strong_convexity
    noise_term = float(np.sum(np.square(consts.sigmas))) / n**2
    rows1, steps, observed_max = [], [], 0.0
    for t, eta, W, G, sel in lockstep_steps(suite, schedule, w0, n_steps, replicates, seed):
        vbar = W - eta * G.mean(axis=1)
        check_finite(vbar, "averaged candidate update")
        observed_max = max(observed_max, _max_grad_norm(G))
        vbar_sq = _norms(vbar - consts.w_star) ** 2
        here_sq = _norms(W - consts.w_star) ** 2
        excess = vbar_sq - (1.0 - mu * eta) * here_sq
        rhs = 2.0 * consts.smoothness * eta**2 * consts.gamma_het + eta**2 * noise_term
        est = float(excess.mean())
        se = _std_error(excess)
        rows1.append({"t": t, "eta": eta, "lhs_mean": float(vbar_sq.mean()), "excess_mean": est,
                      "rhs": rhs, "std_error": se, "pass": _passes(est, rhs, se)})
        candidates = W[:, None, :] - eta * G
        dists = _norms(candidates - vbar[:, None, :]) ** 2
        steps.append((t, eta, dists.mean(axis=1), dists[np.arange(replicates), sel]))
    constants = {"smoothness": consts.smoothness, "strong_convexity": mu,
                 "gamma_het": consts.gamma_het, "sigmas": list(consts.sigmas)}
    lemma1 = {"kind": "contraction_inequality", "replicates": replicates, "seed": seed,
              "constants": constants, "rows": rows1, "all_pass": all(r["pass"] for r in rows1)}
    grad_bound = observed_max * GRAD_BOUND_SAFETY
    rows2 = []
    for t, eta, enum_vals, mc_vals in steps:
        bound = (eta * grad_bound) ** 2
        est, se = float(enum_vals.mean()), _std_error(enum_vals)
        rows2.append({"t": t, "eta": eta, "lhs_mean": est, "lhs_max": float(enum_vals.max()),
                      "mc_mean": float(mc_vals.mean()), "mc_std_error": _std_error(mc_vals),
                      "bound": bound, "std_error": se, "pass": _passes(est, bound, se)})
    lemma2 = {"kind": "selection_variance_inequality", "replicates": replicates, "seed": seed,
              "grad_bound": float(grad_bound), "grad_bound_supplied": False,
              "observed_max_grad_norm": observed_max, "grad_bound_violated": False,
              "rows": rows2, "all_pass": all(r["pass"] for r in rows2)}
    return lemma1, lemma2


EXTREME = [10.0**k for k in range(-300, 301, 50)] + [1.0 + 2.0**-52, 3.0, 0.1]


@pytest.mark.parametrize(
    "L, mu",
    [(c.smoothness, c.strong_convexity) for c in map(suite_constants, (two_task_suite(), five_task_suite()))]
    + [(L, mu) for L in EXTREME for mu in EXTREME if L >= mu],
)
def test_theorem_schedule_meets_both_lemma_premises(L, mu):
    # lemma 1 needs eta_t <= 1/L; lemma 2 a non-increasing schedule with
    # eta_t <= 2*eta_(t+1). Each holds up to the rounding of eta_1 = 1/L,
    # which can land one ulp above 1/L, so the slack is relative.
    if np.log10(L) - np.log10(mu) > 308:  # 2L/mu overflows: every step size would be 0
        with pytest.raises(OverflowError, match="2L/mu - 1 is not finite"):
            theorem_schedule(L, mu)
        return
    schedule = theorem_schedule(L, mu)
    rel = 1.0 + 1e-12
    for t in [*range(1, 50), 10**3, 10**6, 10**9]:
        now, after = schedule.at(t), schedule.at(t + 1)
        assert now <= rel / L, t
        assert after <= now * rel and now <= 2.0 * after * rel, t


# ------------------------------------------------------------ rate fitting


def synthetic_report(pairs):
    return {"rows": [{"T": t, "estimate": e} for t, e in pairs]}


def test_fit_rate_requires_three_points_and_two_decades():
    with pytest.raises(ValueError):
        fit_rate(synthetic_report([(10, 1.0), (100, 0.1)]))
    with pytest.raises(ValueError):
        fit_rate(synthetic_report([(10, 1.0), (20, 0.5), (40, 0.25)]))


def test_fit_rate_recovers_known_slopes():
    exact = synthetic_report([(10, 1e-1), (100, 1e-2), (1000, 1e-3)])
    assert fit_rate(exact) == pytest.approx(-1.0, abs=1e-9)
    flat = synthetic_report([(10, 0.5), (100, 0.5), (1000, 0.5)])
    assert fit_rate(flat) == pytest.approx(0.0, abs=1e-9)
    steep = synthetic_report([(10, 1e-2), (100, 1e-8), (1000, 1e-14)])
    assert fit_rate(steep) < -1.3  # deterministic contraction regime


def test_fit_rate_clamps_nonpositive_estimates():
    report = synthetic_report([(10, 1e-1), (100, 0.0), (1000, 1e-3)])
    with pytest.warns(UserWarning):
        slope = fit_rate(report)
    assert np.isfinite(slope)


# ------------------------------------------------------------ verdict properties


def _magnitudes(lo, hi):  # log-uniform on [10**lo, 10**hi]
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _signed(magnitudes):
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitudes).map(lambda p: p[0] * p[1])


# mostly moderate values, and some at the edges of overflow and underflow
_MODERATE = _magnitudes(-3, 3)
_MODERATE_NOISE = st.one_of(st.just(0.0), _MODERATE)
_CURVATURE = st.one_of(_MODERATE, _magnitudes(-300, 300))
_NOISE_SIGMA = st.one_of(st.just(0.0), _MODERATE, _magnitudes(-300, 308))
_CENTER = st.one_of(st.floats(-10, 10), _signed(_magnitudes(-300, 300)))
_W0 = st.one_of(st.floats(-10, 10), _signed(_magnitudes(150, 155)), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def quadratic_tasks(draw, huge_noise=False):
    """One to three schema-valid quadratic tasks, all 1-D or all diagonal 2-D.

    With huge_noise, two or three tasks of moderate curvature, center and
    noise, one of which then takes a noise near the largest float: its
    gradients themselves overflow a few steps in, not only their squared
    norms, so where a pass takes its norms decides which error it raises."""
    curvature, center, noise_sigma = (_MODERATE, st.floats(-10, 10), _MODERATE_NOISE) if huge_noise else (
        _CURVATURE, _CENTER, _NOISE_SIGMA)
    d = draw(st.integers(1, 2))
    tasks = []
    for _ in range(draw(st.integers(1 + huge_noise, 3))):
        c = draw(curvature)
        diag = [c, c * draw(st.floats(1.0, 1e6))][:d]  # positive definite to working precision
        tasks.append(
            {
                "matrix": [[diag[i] if i == j else 0.0 for j in range(d)] for i in range(d)],
                "center": [draw(center) for _ in range(d)],
                "noise_sigma": draw(noise_sigma),
            }
        )
    if huge_noise:
        tasks[draw(st.integers(0, len(tasks) - 1))]["noise_sigma"] = draw(_magnitudes(307.7, 308))
    return tasks


# the tasks of the checks that must fail where a per-step pass fails
_FAILING_TASKS = st.one_of(quadratic_tasks(), quadratic_tasks(huge_noise=True))


@st.composite
def verify_configs(draw):
    """Schema-valid verify configs of quadratic_tasks, with tiny replicate counts."""
    tasks = draw(quadratic_tasks())
    return {
        "objective": {"family": "quadratic", "tasks": tasks},
        "seeds": [draw(st.integers(0, 3))],
        "w0": [draw(_W0) for _ in tasks[0]["center"]],
        "verify": {
            "T_list": [1, 10, 100],
            "replicates": draw(st.integers(2, 3)),
            "lemma_steps": draw(st.integers(2, 4)),
            "lemma_replicates": draw(st.integers(2, 3)),
        },
    }


def _null_paths(obj, path=()):
    """The key paths of every null in a parsed report: the non-finite numbers."""
    if obj is None:
        yield path
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _null_paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _null_paths(v, path + (i,))


def _one_d_config(objective, w0, T_list=(1, 10, 100)):
    verify = {"T_list": list(T_list), "replicates": 2, "lemma_steps": 2, "lemma_replicates": 2}
    return {"objective": {"family": "quadratic", **objective}, "seeds": [0], "w0": [w0], "verify": verify}


def _one_d_tasks(*curvature_and_sigma):
    return {"tasks": [{"matrix": [[c]], "center": [0.0], "noise_sigma": s} for c, s in curvature_and_sigma]}


# only the max-form bound overflows at 7e153; a noise half-width above
# DBL_MAX/2 (a half-width that overflows is a config error); 2L/mu that
# overflows; mu**2 that underflows to 0
@example(_one_d_config({"preset": "two_task"}, 7e153, T_list=(10, 100, 1000)))
@example(_one_d_config(_one_d_tasks((1.0, 1e308)), 1.0))
@example(_one_d_config(_one_d_tasks((1e10, 0.0), (1e-300, 0.0)), 1.0))
@example(_one_d_config(_one_d_tasks((1e-200, 0.5)), 1.0))
@given(verify_configs())
@settings(max_examples=150, deadline=None)
def test_verify_verdicts_are_never_vacuous(payload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out, err = Path(tmp) / "cfg.json", Path(tmp) / "v", io.StringIO()
        cfg.write_text(json.dumps(payload))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
            # fit_rate's documented warning; every other warning stays an error
            warnings.filterwarnings("ignore", "nonpositive gap estimates clamped", UserWarning)
            code = main(["verify", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3), err.getvalue()
        if code == 2:
            assert err.getvalue().count("\n") == 1 and not out.exists()
            return
        report = json.loads((out / "verification.json").read_text())
        assert report["all_pass"] == (code == 0)
        # all_pass or not, a null is only the slope of an exact convergence
        assert all(p == ("rate_slope",) for p in _null_paths(report)), list(_null_paths(report))
        assert (report["rate_slope"] is None) == report["rate_note"].startswith("exact convergence")


@st.composite
def run_configs(draw):
    """Schema-valid run configs of quadratic_tasks under the inverse_time
    schedule derived from them, with a few steps."""
    scheme = {"kind": draw(st.sampled_from(["sus", "ius", "io"])), "lr": {"kind": "inverse_time"}}
    scheme["optimizer"] = {"kind": draw(st.sampled_from(["sgd", "momentum", "adam"]))}
    return {
        "objective": {"family": "quadratic", "tasks": draw(quadratic_tasks())},
        "scheme": scheme,
        "steps": draw(st.integers(1, 4)),
        "seeds": [draw(st.integers(0, 3))],
    }


def _derived_schedule_run(objective):
    scheme = {"kind": "sus", "optimizer": {"kind": "sgd"}, "lr": {"kind": "inverse_time"}}
    return {"objective": {"family": "quadratic", **objective}, "scheme": scheme, "steps": 3, "seeds": [0]}


# 2L/mu overflows; w_star overflows, and the first validation loss with it
@example(_derived_schedule_run(_one_d_tasks((1e10, 0.0), (1e-300, 0.0))))
@example(_derived_schedule_run({"tasks": [{"matrix": [[1e10]], "center": [1e300], "noise_sigma": 0.0}]}))
@given(run_configs())
@settings(max_examples=100, deadline=None)
def test_runs_on_a_derived_schedule_exit_cleanly(payload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out, err = Path(tmp) / "cfg.json", Path(tmp) / "o", io.StringIO()
        cfg.write_text(json.dumps(payload))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(cfg), "--out", str(out)])  # any warning raises here
        assert code in (0, 1, 2), err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("config error: config.scheme.lr: ") and not out.exists()
            assert err.getvalue().count("\n") == 1
            return
        assert (code == 2) == ("aborted" in err.getvalue())
        for path in out.glob("*.json"):
            load_strict_json(path.read_text())
        for path in out.glob("*.csv"):
            with open(path, encoding="utf-8") as f:
                load_strict_json(f.readline().removeprefix("# config: "))


def _outcome(call):
    """What a call gives: its result as report_json text, or the type and
    message of the error or warning it raises."""
    try:
        return report_json(call())
    except (ArithmeticError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)


# a noise of 5e153 on two 1-D tasks: at step 1 a squared distance overflows
# after its norm, and at step 2 a norm's own sum of squares does
@example([{"matrix": [[1.0]], "center": [0.0], "noise_sigma": 5.011872336270296e153}] * 2, [0.0, 0.0], 3, 3, 0)
@given(_FAILING_TASKS, st.lists(_W0, min_size=2, max_size=2), st.integers(1, 3), st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_verify_lemmas_fail_where_a_per_step_pass_fails(tasks, w0, replicates, n_steps, seed):
    # at magnitudes where some step overflows, the stacked checks give way to
    # per-step ones: the same error, or the same reports, as the reference,
    # under the verify command's error settings and under the defaults (whose
    # warnings the test settings raise)
    suite = QuadraticSuite([QuadraticTask(k, t["matrix"], t["center"], t["noise_sigma"])
                            for k, t in enumerate(tasks)])
    try:
        with np.errstate(over="raise", invalid="raise"):
            suite_constants(suite)
    except (ArithmeticError, ValueError):
        return  # verify rejects the suite before any check
    w0 = np.array(w0[:suite.dim])
    for errors in ({"over": "raise", "invalid": "raise"}, {}):
        with np.errstate(**errors):
            want = _outcome(lambda: reference_lemmas(suite, n_steps, replicates, seed, w0))
            assert _outcome(lambda: verify_lemmas(suite, n_steps, replicates, seed, w0)) == want


def reference_theorem(suite, T_list, replicates, seed, w0):
    """Reference: verify_theorem's report from a per-step pass, which takes
    every step's gradient norm at that step."""
    consts = suite_constants(suite)
    schedule = theorem_schedule(consts.smoothness, consts.strong_convexity)
    w0 = np.asarray(w0, dtype=np.float64)
    T_list = sorted(T_list)
    worst, gaps = 0.0, {}
    for t, _, W, G, _ in lockstep_steps(suite, schedule, w0, T_list[-1], replicates, seed):
        worst = max(worst, _max_grad_norm(G))
        if t in T_list:
            gaps[t] = suite.validation_task_losses(W).mean(axis=1) - consts.f_star
    inputs = BoundInputs(smoothness=consts.smoothness, strong_convexity=consts.strong_convexity,
                         sigmas=consts.sigmas, grad_bound=worst * GRAD_BOUND_SAFETY, gamma_het=consts.gamma_het,
                         offset=schedule.offset, w1_dist_sq=l2_norm(w0 - consts.w_star) ** 2,
                         n_tasks=suite.n_tasks)
    rows = []
    for t in T_list:
        est, std = float(gaps[t].mean()), float(gaps[t].std(ddof=1))
        se, bound = std / np.sqrt(replicates), theorem_bound(inputs, t)
        rows.append({"T": t, "estimate": est, "std": std, "std_error": se, "bound": bound,
                     "bound_max_form": theorem_bound_max_form(inputs, t), "margin": bound - est,
                     "pass": _passes(est, bound, se)})
    constants = asdict(inputs)
    del constants["n_tasks"]
    constants.update(noise_total=inputs.noise_total, f_star=consts.f_star, w_star=consts.w_star.tolist())
    return {"kind": "convergence_bound", "b_form_note": B_FORM_NOTE, "constants": constants,
            "replicates": replicates, "seed": seed, "eta_scale": 1.0, "schedule_ok": True, "rows": rows,
            "all_pass": all(r["pass"] for r in rows)}


# a noise of 1e308 on two 1-D tasks: the step-1 gradients are finite, but
# their squared norms overflow, and the step-2 gradients do
@example([{"matrix": [[1.0]], "center": [float(k)], "noise_sigma": 1e308} for k in range(2)], [0.0, 0.0],
         [1, 5, 20], 2, 0)
@given(_FAILING_TASKS, st.lists(_W0, min_size=2, max_size=2), st.lists(st.integers(1, 20), min_size=1, max_size=3),
       st.integers(2, 3), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_verify_theorem_fails_where_a_per_step_pass_fails(tasks, w0, T_list, replicates, seed):
    # as test_verify_lemmas_fail_where_a_per_step_pass_fails, for the bound's
    # pass, whose gradient norms are taken over a block of steps
    suite = QuadraticSuite([QuadraticTask(k, t["matrix"], t["center"], t["noise_sigma"])
                            for k, t in enumerate(tasks)])
    try:
        with np.errstate(over="raise", invalid="raise"):
            suite_constants(suite)
    except (ArithmeticError, ValueError):
        return  # verify rejects the suite before any check
    w0 = np.array(w0[:suite.dim])
    for errors in ({"over": "raise", "invalid": "raise"}, {}):
        with np.errstate(**errors):
            want = _outcome(lambda: reference_theorem(suite, T_list, replicates, seed, w0))
            assert _outcome(lambda: verify_theorem(suite, T_list, replicates, seed, w0)) == want
