import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlopt.objectives import (
    Minibatch,
    QuadraticSuite,
    QuadraticTask,
    finite_difference_check,
    five_task_suite,
    suite_constants,
    two_task_suite,
)
from mtlopt.optimizers import OptimizerRule, fresh_state
from mtlopt.params import DimensionMismatchError, RngStream
from mtlopt.schemes import step


def noiseless_pair():
    return two_task_suite(noise_sigma=0.0)


def empty_batch(suite):
    return Minibatch(payload=np.zeros((suite.n_tasks, suite.dim)))


def all_task_update(suite, w, xi):
    """Loss and optimizer state of one update of the all-task unit from a fresh
    momentum state: the loss is the summed task value at w and, since
    0.9*0 + g == g, the state's m is the summed gradient."""
    mom = OptimizerRule.momentum(0.9)
    state = fresh_state(mom, suite.dim)
    [(_, loss, _)] = step(w, suite, [tuple(range(suite.n_tasks))], mom, [state], 1.0, xi, [0])
    return loss, state


def test_aggregated_loss_worked_example():
    suite = noiseless_pair()
    w = np.array([1.0])
    xi = empty_batch(suite)
    assert all_task_update(suite, w, xi)[0] == 1.0


def test_aggregated_loss_single_task_identity():
    suite = QuadraticSuite([QuadraticTask(0, [[2.0]], [1.0])])
    w = np.array([3.0])
    xi = empty_batch(suite)
    assert all_task_update(suite, w, xi)[0] == suite.tasks[0].value(w, xi)


def test_aggregated_loss_zero_at_common_minimizer():
    suite = QuadraticSuite(
        [QuadraticTask(0, [[1.0]], [1.5]), QuadraticTask(1, [[3.0]], [1.5])]
    )
    assert all_task_update(suite, np.array([1.5]), empty_batch(suite))[0] == 0.0


def test_aggregated_gradient_worked_example():
    suite = noiseless_pair()
    _, state = all_task_update(suite, np.array([1.0]), empty_batch(suite))
    np.testing.assert_array_equal(state.m, [0.0])


def test_aggregated_gradient_symmetric_pair_cancels():
    suite = QuadraticSuite(
        [QuadraticTask(0, [[1.0]], [-2.0]), QuadraticTask(1, [[1.0]], [2.0])]
    )
    _, state = all_task_update(suite, np.array([0.0]), empty_batch(suite))
    np.testing.assert_array_equal(state.m, [0.0])


def test_aggregated_gradient_equals_per_task_sum():
    suite = five_task_suite()
    gen = RngStream(0, "data").gen
    xi = suite.sample_minibatch(gen)
    w = gen.normal(size=suite.dim)
    total = sum(t.gradient(w, xi) for t in suite.tasks)
    np.testing.assert_array_equal(all_task_update(suite, w, xi)[1].m, total)


def test_minibatch_is_reusable():
    suite = two_task_suite(noise_sigma=1.0)
    xi = suite.sample_minibatch(RngStream(5, "data").gen)
    w = np.array([0.3])
    for t in suite.tasks:
        np.testing.assert_array_equal(t.gradient(w, xi), t.gradient(w, xi))
        assert t.value(w, xi) == t.value(w, xi)


def test_finite_difference_quadratic():
    suite = two_task_suite(noise_sigma=0.7)
    gen = RngStream(1, "data").gen
    xi = suite.sample_minibatch(gen)
    for t in suite.tasks:
        err = finite_difference_check(t, np.array([0.37]), xi, h=1e-5)
        assert err <= 1e-6


def test_finite_difference_random_points_quadratic():
    suite = five_task_suite()
    gen = RngStream(2, "data").gen
    for _ in range(100):
        xi = suite.sample_minibatch(gen)
        w = gen.normal(size=suite.dim)
        for t in suite.tasks:
            assert finite_difference_check(t, w, xi, h=1e-5) <= 1e-5


def test_finite_difference_zero_function():
    class ZeroTask(QuadraticTask):
        def value(self, w, xi):
            return 0.0

        def gradient(self, w, xi):
            return np.zeros_like(w)

    t = ZeroTask(0, [[1.0]], [0.0])
    assert finite_difference_check(t, np.array([1.0]), Minibatch(np.zeros((1, 1))), 1e-5) == 0.0


def test_exact_gradient_zero_at_center():
    t = QuadraticTask(0, [[4.0, 1.0], [1.0, 3.0]], [2.0, -1.0])
    np.testing.assert_array_equal(t.exact_gradient(np.array([2.0, -1.0])), [0.0, 0.0])


def test_suite_constants_worked_example():
    c = suite_constants(noiseless_pair())
    assert c.smoothness == 1.0
    assert c.strong_convexity == 1.0
    np.testing.assert_allclose(c.w_star, [1.0])
    assert c.f_star == pytest.approx(0.5)
    assert c.gamma_het == pytest.approx(0.5)


def test_suite_constants_identical_tasks_no_heterogeneity():
    suite = QuadraticSuite(
        [QuadraticTask(0, [[2.0]], [1.0]), QuadraticTask(1, [[2.0]], [1.0])]
    )
    c = suite_constants(suite)
    assert c.gamma_het == pytest.approx(0.0, abs=1e-14)


def test_suite_constants_single_task():
    suite = QuadraticSuite([QuadraticTask(0, [[3.0]], [0.7])])
    c = suite_constants(suite)
    assert c.gamma_het == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(c.w_star, [0.7])


def test_suite_constants_rejects_non_spd():
    suite = QuadraticSuite([QuadraticTask(0, [[-1.0]], [0.0])])
    with pytest.raises(ValueError):
        suite_constants(suite)


@given(st.lists(st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 4.0), st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_heterogeneity_nonnegative(specs):
    # random diagonal SPD 2-D tasks
    tasks = [
        QuadraticTask(i, [[l1, 0.0], [0.0, l2]], [c1, c2])
        for i, (l1, l2, c1, c2) in enumerate(specs)
    ]
    c = suite_constants(QuadraticSuite(tasks))
    assert c.gamma_het >= -1e-12


def test_noise_second_moment_matches_sigma():
    sigma = 0.8
    suite = QuadraticSuite([QuadraticTask(0, np.eye(3), np.zeros(3), sigma)])
    gen = RngStream(9, "data").gen
    draws = [suite.sample_minibatch(gen).payload[0] for _ in range(4000)]
    second_moment = np.mean([z @ z for z in draws])
    assert second_moment == pytest.approx(sigma**2, rel=0.05)


def test_dimension_mismatch_detected():
    with pytest.raises(DimensionMismatchError):
        QuadraticSuite(
            [QuadraticTask(0, [[1.0]], [0.0]), QuadraticTask(1, np.eye(2), [0.0, 0.0])]
        )


def test_quadratic_requires_symmetric_matrix():
    with pytest.raises(ValueError):
        QuadraticTask(0, [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])


@pytest.mark.parametrize("suite", [two_task_suite(), five_task_suite()], ids=["two_task", "five_task"])
def test_stacked_validation_equals_per_task_exact_values(suite):
    gen = np.random.default_rng(5)
    points = [gen.standard_normal(suite.dim) * 10.0 ** gen.uniform(-8.0, 8.0) for _ in range(2000)]
    # where r @ (A @ r) overflows but half of it does not, and where it is subnormal
    points += [np.full(suite.dim, 1.35e154), np.full(suite.dim, 3e-161)]
    for w in points:
        with np.errstate(over="ignore", under="ignore"):
            expected = np.array([t.exact_value(w) for t in suite.tasks])
            assert np.array_equal(suite.validation_task_losses(w), expected)
