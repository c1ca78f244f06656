import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ProbeRecordingTask, bits, empty_batch, loop_finite_difference_check, loop_unit_value_and_gradient,
                     noiseless_pair, same_bits)
from mtlopt.objectives import (
    QuadraticSuite,
    QuadraticTask,
    TaskSuite,
    finite_difference_check,
    five_task_suite,
    suite_constants,
    two_task_suite,
)
from mtlopt.optimizers import OptimizerRule, fresh_state
from mtlopt.params import DimensionMismatchError, RngStream
from mtlopt.schemes import step


def all_task_update(suite, w, xi):
    """Loss and optimizer state of one update of the all-task unit from a fresh
    momentum state: the loss is the summed task value at w and, since
    0.9*0 + g == g, the state's m is the summed gradient. step puts the
    next state into the list it was given."""
    mom = OptimizerRule("momentum", beta=0.9)
    states = [fresh_state(mom, suite.dim)]
    [(_, loss, _)] = step(w, suite, [tuple(range(suite.n_tasks))], mom, states, 1.0, xi, [0])
    return loss, states[0]


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


@pytest.mark.parametrize("factory", [two_task_suite, five_task_suite])
def test_finite_difference_check_keeps_the_bits_and_probes_of_the_loop(factory):
    # the shipped presets, every task, at steps small and large: the bits of
    # the numpy-scalar loop, as a float, from 2*dim value calls on one probe
    # array that moves one coordinate by +h, then by -h, then restores it
    suite = factory()
    gen = RngStream(31, "data").gen
    for h in (1e-5, 1e-2, 0.37):
        for _ in range(5):
            xi = suite.sample_minibatch(gen)
            w = gen.normal(scale=2.0, size=suite.dim)
            for t in suite.tasks:
                task = ProbeRecordingTask(t, w)
                got = finite_difference_check(task, w, xi, h=h)
                assert type(got) is float and same_bits(got, loop_finite_difference_check(t, w, xi, h))
                task.assert_probed(h)


def test_finite_difference_zero_function():
    class ZeroTask(QuadraticTask):
        def value(self, w, xi):
            return 0.0

        def gradient(self, w, xi):
            return np.zeros_like(w)

    t = ZeroTask(0, [[1.0]], [0.0])
    assert finite_difference_check(t, np.array([1.0]), np.zeros((1, 1)), 1e-5) == 0.0


def test_finite_difference_rejects_a_nonpositive_step_and_a_difference_that_overflows():
    class SteepTask(QuadraticTask):
        def value(self, w, xi):
            return 1e308 * float(w[0])

        def gradient(self, w, xi):
            return np.zeros_like(w)

    t = SteepTask(0, [[1.0]], [0.0])
    with pytest.raises(ValueError, match="^h must be positive$"):
        finite_difference_check(t, np.array([0.0]), np.zeros((1, 1)), h=0.0)
    # both values are finite, but 1e308 - (-1e308) overflows
    with pytest.raises(FloatingPointError, match="^central difference underflowed or overflowed$"):
        finite_difference_check(t, np.array([0.0]), np.zeros((1, 1)), h=1.0)


@pytest.mark.parametrize("size", [1, 3])
def test_finite_difference_rejects_a_gradient_of_another_size(size):
    class MisshapenTask(QuadraticTask):
        def gradient(self, w, xi):
            return np.zeros(size)

    t = MisshapenTask(0, [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        finite_difference_check(t, np.zeros(2), np.zeros((1, 2)), 1e-5)


@pytest.mark.parametrize("h, message", [(math.nan, "positive"), (-math.nan, "positive"), (0.0, "positive"),
                                        (-1.0, "positive"), (-math.inf, "positive"), (math.inf, "finite")])
def test_finite_difference_rejects_a_step_that_is_not_positive_and_finite_before_any_probe(h, message):
    # NaN passes a test of h <= 0, and h = inf gave a warning and a misleading
    # FloatingPointError
    suite = five_task_suite()
    w = RngStream(3, "init").gen.normal(size=suite.dim)
    task = ProbeRecordingTask(suite.tasks[1], w)
    with pytest.raises(ValueError, match=f"^h must be {message}$"):
        finite_difference_check(task, w, suite.sample_minibatch(RngStream(3, "data").gen), h)
    assert task.probes == []


def test_exact_gradient_zero_at_center():
    t = QuadraticTask(0, [[4.0, 1.0], [1.0, 3.0]], [2.0, -1.0])
    zero_noise = np.zeros((1, 2))
    np.testing.assert_array_equal(t.gradient(np.array([2.0, -1.0]), zero_noise), [0.0, 0.0])


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
    draws = [suite.sample_minibatch(gen)[0] for _ in range(4000)]
    second_moment = np.mean([z @ z for z in draws])
    assert second_moment == pytest.approx(sigma**2, rel=0.05)


def test_dimension_mismatch_detected():
    with pytest.raises(DimensionMismatchError):
        QuadraticSuite(
            [QuadraticTask(0, [[1.0]], [0.0]), QuadraticTask(1, np.eye(2), [0.0, 0.0])]
        )


def test_suite_task_k_must_have_index_k():
    # task k reads noise row k; a suite whose tasks' indices are not their
    # positions, or a lone task with index 5, is rejected when it is built
    swapped = [QuadraticTask(1, [[1.0]], [0.0], 0.0), QuadraticTask(0, [[1.0]], [2.0], 10.0)]
    with pytest.raises(ValueError, match="^task at position 0 has index 1; task k must have index k$"):
        QuadraticSuite(swapped)
    with pytest.raises(ValueError, match="^task at position 0 has index 5; task k must have index k$"):
        QuadraticSuite([QuadraticTask(5, [[1.0]], [0.0])])


def test_a_suite_needs_a_task():
    with pytest.raises(ValueError, match="^suite must contain at least one task$"):
        TaskSuite([])


def test_quadratic_requires_symmetric_matrix():
    with pytest.raises(ValueError):
        QuadraticTask(0, [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])


@pytest.mark.parametrize("sigma", [-1.0, -5e-324, float("nan")])
def test_quadratic_rejects_a_negative_or_nan_noise_sigma(sigma):
    # a NaN sigma would draw NaN noise, found only when verify reads it
    with pytest.raises(ValueError, match="^noise_sigma must be >= 0$"):
        QuadraticTask(0, [[1.0]], [0.0], sigma)


@pytest.mark.parametrize("sigma, d", [(float("inf"), 1), (float("inf"), 3), (1.5e308, 1)])
def test_quadratic_rejects_a_noise_halfwidth_that_is_not_finite(sigma, d):
    # sigma * sqrt(3 / d) overflows in 1-D for any sigma above DBL_MAX / sqrt(3)
    with pytest.raises(ValueError, match=r"^task 2: noise half-width noise_sigma \* sqrt\(3 / d\) is not finite$"):
        QuadraticTask(2, np.eye(d), np.zeros(d), sigma)


def test_quadratic_accepts_every_finite_noise_halfwidth():
    # in 3-D the half-width is sigma itself; 1e308 in 1-D gives h = 1.73e308,
    # above DBL_MAX/2, which the noise draw reaches by doubling
    assert QuadraticTask(0, np.eye(3), np.zeros(3), 1.5e308).noise_halfwidth == 1.5e308
    assert QuadraticTask(0, [[1.0]], [0.0], 1e308).noise_halfwidth == 1e308 * math.sqrt(3.0)


@pytest.mark.parametrize("suite", [two_task_suite(), five_task_suite()], ids=["two_task", "five_task"])
def test_stacked_validation_equals_per_task_exact_values(suite):
    def exact_value(task, w):  # one task's noise-free value, on its own
        r = w - task.center
        return float(0.5 * r @ (task.matrix @ r))

    gen = np.random.default_rng(5)
    points = [gen.standard_normal(suite.dim) * 10.0 ** gen.uniform(-8.0, 8.0) for _ in range(2000)]
    # where r @ (A @ r) overflows but half of it does not, and where it is subnormal
    points += [np.full(suite.dim, 1.35e154), np.full(suite.dim, 3e-161)]
    for w in points:
        with np.errstate(over="ignore", under="ignore"):
            expected = np.array([exact_value(t, w) for t in suite.tasks])
            assert np.array_equal(suite.validation_task_losses(w), expected)


@pytest.mark.parametrize("d", [1, 3, 5])
def test_stacked_unit_oracle_equals_per_task_loop(d):
    # ten tasks, one with a zero center, so that r is -0.0 at w = -0.0; every
    # unit of the first four, and units of nine and ten tasks, where a pairwise
    # sum would add in another order than the loop
    gen = np.random.default_rng(d)
    tasks = []
    for k in range(10):
        q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        mat = q @ np.diag(gen.uniform(0.5, 3.0, size=d)) @ q.T
        center = np.zeros(d) if k == 1 else gen.uniform(-2.0, 2.0, size=d)
        tasks.append(QuadraticTask(k, 0.5 * (mat + mat.T), center, noise_sigma=0.3))
    suite = QuadraticSuite(tasks)
    points = [gen.standard_normal(d) * 10.0 ** gen.uniform(-8.0, 8.0) for _ in range(40)]
    points += [np.full(d, -0.0), np.zeros(d), tasks[0].center.copy(), np.full(d, 1.35e154), np.full(d, 3e-161)]
    draws = [suite.sample_minibatch(gen) for _ in range(3)]
    draws += [np.full((10, d), -0.0), np.zeros((10, d))]
    signed = suite.sample_minibatch(gen)
    signed[:, ::2] = -0.0
    draws.append(signed)
    units = [u for size in range(1, 5) for u in itertools.combinations(range(4), size)]
    units += [tuple(range(10)), tuple(range(9, -1, -1)), (8, 1, 6, 3, 0, 5, 2, 7, 4)]
    for w, xi, unit in itertools.product(points, draws, units):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            loss, g = suite.unit_value_and_gradient(w, unit, xi)
            ref_loss, ref_g = loop_unit_value_and_gradient(suite, w, unit, xi)
        assert type(loss) is float
        assert bits(loss) == bits(ref_loss), (w, unit)
        assert np.array_equal(bits(g), bits(ref_g)), (w, unit)


def test_unit_loss_adds_task_values_in_order():
    # task values 1e16, 1.0 and -1e16 at w = 1: added in turn from 0 they give
    # 0.0, where sum() compensates since Python 3.12 and gives 1.0
    suite = QuadraticSuite([QuadraticTask(k, [[1.0]], [0.0]) for k in range(3)])
    w, xi = np.ones(1), np.array([[1e16], [0.5], [-1e16]])
    assert [t.value(w, xi) for t in suite.tasks] == [1e16, 1.0, -1e16]
    assert suite.unit_value_and_gradient(w, (0, 1, 2), xi)[0] == 0.0
    assert loop_unit_value_and_gradient(suite, w, (0, 1, 2), xi)[0] == 0.0


def _zero_sigma_suite():
    # two noise-free tasks, whose noise rows are signed zeros
    return QuadraticSuite(
        [
            QuadraticTask(0, np.eye(2), [1.0, 0.0], 0.0),
            QuadraticTask(1, np.eye(2), [0.0, 1.0], 0.7),
            QuadraticTask(2, np.eye(2), [0.0, 0.0], 0.0),
        ]
    )


_HALF_MAX = float(np.finfo(np.float64).max / 2)  # 2h overflows exactly above this


def _edge_suite(halfwidths):
    # in 3-D a task's half-width is its noise_sigma, since sqrt(3 / 3) == 1
    suite = QuadraticSuite([QuadraticTask(i, np.eye(3), np.zeros(3), h) for i, h in enumerate(halfwidths)])
    assert [t.noise_halfwidth for t in suite.tasks] == halfwidths
    return suite


# zero, the smallest subnormal, a tiny normal, DBL_MAX/2 and its neighbours:
# each 2h finite, so the suite scales by 2h; with 2h overflowing for some task
# (above DBL_MAX/2 and 1.7e308), it doubles the draw and scales by h. A task
# rejects a half-width of inf, so no draw reads one
_SMALL = [0.0, 5e-324, 1e-300, 1.0]
_EDGE_SUITES = {
    "edge_doubled_halfwidths": _edge_suite(_SMALL + [float(np.nextafter(_HALF_MAX, 0)), _HALF_MAX]),
    "edge_overflowing_halfwidths": _edge_suite(_SMALL + [_HALF_MAX, float(np.nextafter(_HALF_MAX, np.inf)), 1.7e308]),
}


@pytest.mark.parametrize(
    "suite",
    [two_task_suite(), five_task_suite(), _zero_sigma_suite(), *_EDGE_SUITES.values()],
    ids=["two_task", "five_task", "zero_sigma", *_EDGE_SUITES],
)
def test_sample_minibatch_equals_the_broadcast_draw(suite):
    # per step and in blocks, a draw has the bits of the uniform draw times an
    # (n, 1) half-width column, and consumes the same draws
    column = np.array([t.noise_halfwidth for t in suite.tasks])[:, None]
    shape = (suite.n_tasks, suite.dim)
    gen, ref = RngStream(4, "data").gen, RngStream(4, "data").gen
    draws = []
    for _ in range(50):
        got = suite.sample_minibatch(gen)
        assert same_bits(got, ref.uniform(-1.0, 1.0, size=shape) * column)
        draws.append(got)
    for k in (1, 7):
        got = suite.sample_minibatches(gen, k)
        assert got.shape == (k, *shape) and same_bits(got, ref.uniform(-1.0, 1.0, size=(k, *shape)) * column)
    zeros = np.array(draws)[:, column[:, 0] == 0.0]
    if zeros.size:  # both signs of zero occur
        assert not zeros.any() and 0 < np.signbit(zeros).sum() < zeros.size
    assert gen.bit_generator.state == ref.bit_generator.state


def _random_suite(gen, n, d):
    tasks = []
    for k in range(n):
        q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        mat = q @ np.diag(gen.uniform(0.1, 5.0, size=d) * 10.0 ** gen.uniform(-3.0, 3.0)) @ q.T
        center = np.full(d, -0.0) if k == 0 else gen.standard_normal(d) * 10.0 ** gen.uniform(-5.0, 5.0)
        tasks.append(QuadraticTask(k, 0.5 * (mat + mat.T), center, noise_sigma=0.2))
    return QuadraticSuite(tasks)


def test_suite_constants_equal_the_per_task_computation():
    # the stacked constants against one eigvalsh, matvec and value per task,
    # summed from 0 in task order, bit for bit
    gen = np.random.default_rng(12)
    suites = [two_task_suite(), five_task_suite(), five_task_suite(3)]
    suites += [_random_suite(gen, int(gen.integers(1, 12)), int(gen.integers(1, 6))) for _ in range(60)]
    for suite in suites:
        eigs = [np.linalg.eigvalsh(t.matrix) for t in suite.tasks]
        w_star = np.linalg.solve(sum(t.matrix for t in suite.tasks), sum(t.matrix @ t.center for t in suite.tasks))
        f_star = float(np.mean([0.5 * (w_star - t.center) @ (t.matrix @ (w_star - t.center)) for t in suite.tasks]))
        c = suite_constants(suite)
        assert bits(c.smoothness) == bits(max(e[-1] for e in eigs))
        assert bits(c.strong_convexity) == bits(min(e[0] for e in eigs))
        assert np.array_equal(bits(c.w_star), bits(w_star))
        assert bits(c.f_star) == bits(f_star) and bits(c.gamma_het) == bits(f_star)


def test_suite_constants_name_the_first_task_that_is_not_positive_definite():
    tasks = [QuadraticTask(k, [[lam]], [0.0]) for k, lam in enumerate([1.0, 0.0, -1.0])]
    with pytest.raises(ValueError, match="^task 1: curvature matrix is not positive definite$"):
        suite_constants(QuadraticSuite(tasks))


@pytest.mark.parametrize("d", [1, 3])
def test_task_gradients_equal_each_task_gradient(d):
    gen = np.random.default_rng(d)
    suite = _random_suite(gen, 6, d)
    W = gen.standard_normal((9, d)) * 10.0 ** gen.uniform(-6.0, 6.0, size=(9, 1))
    W[0] = -0.0
    xi = np.array([suite.sample_minibatch(gen) for _ in W])
    G = suite.task_gradients(W, xi)
    assert G.shape == (9, 6, d)
    for r, k in itertools.product(range(9), range(6)):
        assert np.array_equal(bits(G[r, k]), bits(suite.tasks[k].gradient(W[r], xi[r])))


def check_one_task_oracle():
    """The one-task unit oracle against QuadraticTask.value and .gradient,
    added to 0 and to zeros, bit for bit with every zero's sign: on the
    five-task suite, and on a 1-D suite where A @ r is -0.0 at w = -0.0 for
    task 0's zero center. Run in-process and under another BLAS kernel."""
    gen = np.random.default_rng(5)
    one_d = QuadraticSuite(
        [QuadraticTask(k, [[a]], [c], 0.4) for k, (a, c) in enumerate([(1.5, 0.0), (0.25, -1.0), (3.0, 2.0)])]
    )
    for suite in (five_task_suite(), one_d):
        n, d = suite.n_tasks, suite.dim
        points = [gen.standard_normal(d) * 10.0 ** gen.uniform(-8.0, 8.0) for _ in range(200)]
        points += [np.full(d, -0.0), np.zeros(d), np.full(d, 1.35e154), np.full(d, 3e-161)]
        points += [t.center.copy() for t in suite.tasks]
        draws = [suite.sample_minibatch(gen) for _ in range(3)] + [np.full((n, d), -0.0), np.zeros((n, d))]
        for w, xi, k in itertools.product(points, draws, range(n)):
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                loss, g = suite.unit_value_and_gradient(w, (k,), xi)
                ref_loss, ref_g = 0 + suite.tasks[k].value(w, xi), np.zeros(d) + suite.tasks[k].gradient(w, xi)
            assert type(loss) is float
            assert bits(loss) == bits(ref_loss), (w, k)
            assert np.array_equal(bits(g), bits(ref_g)), (w, k)


def test_one_task_oracle_equals_the_task_methods():
    check_one_task_oracle()


def test_one_task_oracle_equals_the_task_methods_under_the_prescott_kernel():
    # OpenBLAS picks its kernels once, at load, from OPENBLAS_CORETYPE
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott"}
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests), env.get("PYTHONPATH", "")])
    code = "import test_objectives; test_objectives.check_one_task_oracle()"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
