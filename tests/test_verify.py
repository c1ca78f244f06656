import numpy as np
import pytest

from mtlopt import schemes
from mtlopt.objectives import (
    QuadraticSuite,
    QuadraticTask,
    five_task_suite,
    suite_constants,
    two_task_suite,
)
from mtlopt.optimizers import OptimizerRule
from mtlopt.params import RngStream
from mtlopt.schemes import SchemeConfig, theorem_schedule
from mtlopt.verify import (
    BoundInputs,
    ScheduleError,
    _lockstep,
    estimate_grad_bound,
    fit_rate,
    theorem_bound,
    theorem_bound_max_form,
    verify_lemma1,
    verify_lemma2,
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


def test_max_form_never_exceeds_sum_form():
    for w1 in (0.0, 0.5, 4.0):
        b = inputs(w1_dist_sq=w1)
        for t in (1, 10, 100):
            assert theorem_bound_max_form(b, t) <= theorem_bound(b, t) + 1e-15


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        inputs(strong_convexity=0.0)
    with pytest.raises(ValueError):
        inputs(smoothness=0.5)  # below strong convexity
    with pytest.raises(ValueError):
        inputs(offset=0.5, smoothness=2.0)  # below 2L/mu - 1
    with pytest.raises(ValueError):
        inputs(gamma_het=-0.1)


# ------------------------------------------------------------ lockstep engine


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
    for t, eta, W, G, sel in _lockstep(suite, schedule, w0, T, R, seed):
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
    few = _lockstep(suite, schedule, w0, 30, 2, seed=3)
    many = _lockstep(suite, schedule, w0, 30, 5, seed=3)
    for (_, _, W2, G2, sel2), (_, _, W5, G5, sel5) in zip(few, many):
        assert np.array_equal(W2, W5[:2])
        assert np.array_equal(G2, G5[:2])
        assert np.array_equal(sel2, sel5[:2])


@pytest.mark.parametrize("make_suite", [five_task_suite, two_task_suite])
def test_lockstep_replicates_are_runs_of_the_engine_users_run(monkeypatch, make_suite):
    # replicate r is schemes.run under ius, sgd, uniform_random and the theorem
    # schedule, with run's data and task-order streams renamed data[r] and task-order[r]
    suite = make_suite()
    consts = suite_constants(suite)
    schedule = theorem_schedule(consts.smoothness, consts.strong_convexity)
    R, T, seed, w0 = 4, 300, 3, np.zeros(suite.dim)
    lockstep = [(W.copy(), sel.copy()) for _, _, W, _, sel in _lockstep(suite, schedule, w0, T + 1, R, seed)]
    config = SchemeConfig("ius", OptimizerRule("sgd"), schedule, task_order="uniform_random")
    real_step = schemes.step
    for r in range(R):
        iterates, selected = [w0], []

        def recording_step(*args):
            landed = real_step(*args)
            selected.extend(u for u, _, _ in landed)
            iterates.extend(w for _, _, w in landed)
            return landed

        monkeypatch.setattr(schemes, "step", recording_step)
        monkeypatch.setattr(schemes, "RngStream", lambda s, name, r=r: RngStream(s, f"{name}[{r}]"))
        trace = schemes.run(config, suite, w0, T, seed, validation_every=0)
        assert not trace.aborted and np.array_equal(trace.w_final, iterates[-1])
        assert np.array_equal(np.array(iterates), np.array([W[r] for W, _ in lockstep]))
        assert selected == [int(sel[r]) for _, sel in lockstep[:T]]


# ------------------------------------------------------------ theorem check


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


def test_verify_theorem_flags_mis_scaled_schedule():
    report = verify_theorem(
        two_task_suite(0.5), [10], replicates=20, seed=2, w0=[0.0], eta_scale=10.0
    )
    assert report["schedule_ok"] is False


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


def test_lemma1_rejects_step_sizes_above_curvature_limit():
    with pytest.raises(ScheduleError):
        verify_lemma1(two_task_suite(0.5), 10, replicates=3, seed=0, w0=[0.0], eta_scale=2.0)


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


def test_lemma2_flags_stale_grad_bound():
    calm = two_task_suite(0.2)
    stale = estimate_grad_bound(
        calm, theorem_schedule(1.0, 1.0), 10, 10, seed=5, w0=np.array([0.0])
    )
    loud = two_task_suite(5.0)  # noise inflated without re-estimating the bound
    report = verify_lemma2(loud, 10, replicates=10, seed=5, w0=[0.0], grad_bound=stale)
    assert report["grad_bound_supplied"]
    assert report["grad_bound_violated"]


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
