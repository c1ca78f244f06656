import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import (ConstantGradientSuite, assert_same_run, empty_batch, equivalent_pairs,
                     loop_unit_value_and_gradient, noiseless_pair, same_bits)
from mtlopt.mlp import init_mlp_params, synthetic_mlp_suite
from mtlopt.objectives import (
    QuadraticSuite,
    QuadraticTask,
    TaskSuite,
    five_task_suite,
    suite_constants,
    two_task_suite,
)
from mtlopt.optimizers import OptimizerRule, apply, fresh_state
from mtlopt.params import NonFiniteError, RngStream, axpy, l2_norm
from mtlopt.schemes import (
    ConstantLR,
    InverseTimeLR,
    SchemeConfig,
    make_grouping,
    run,
    step,
    theorem_schedule,
)
from mtlopt.tracing import write_trace_csv, write_trace_meta

SGD = OptimizerRule("sgd")


def shared_unit(suite):
    """The one unit of the shared scheme: every task."""
    return [tuple(range(suite.n_tasks))]


def task_units(suite):
    """The units of the ungrouped alternating schemes: one per task."""
    return [(k,) for k in range(suite.n_tasks)]


def final_w(updates):
    """The parameters after the last update of a `step` generator."""
    *_, (_, _, w) = updates
    return w


class CountingSuite(QuadraticSuite):
    """Counts unit-oracle calls for call-count assertions."""

    def __init__(self, tasks):
        super().__init__(tasks)
        self.unit_calls = 0

    def unit_value_and_gradient(self, w, unit, xi):
        self.unit_calls += 1
        return super().unit_value_and_gradient(w, unit, xi)


# ---------------------------------------------------------------- step math


def test_sus_step_worked_examples():
    suite = noiseless_pair()
    xi = empty_batch(suite)
    st0 = fresh_state(SGD, 1)
    out0 = final_w(step(np.array([1.0]), suite, shared_unit(suite), SGD, [st0], 0.1, xi, [0]))
    np.testing.assert_allclose(out0, [1.0])
    st1 = fresh_state(SGD, 1)
    out1 = final_w(step(np.array([0.0]), suite, shared_unit(suite), SGD, [st1], 0.1, xi, [0]))
    np.testing.assert_allclose(out1, [0.2])


def test_sus_single_task_equals_plain_step():
    suite = QuadraticSuite([QuadraticTask(0, [[2.0]], [1.0])])
    xi = empty_batch(suite)
    out = final_w(step(np.array([0.0]), suite, shared_unit(suite), SGD, [fresh_state(SGD, 1)], 0.1, xi, [0]))
    np.testing.assert_allclose(out, [0.0 - 0.1 * 2.0 * (0.0 - 1.0)])


def test_ius_step_order_matters():
    suite = noiseless_pair()
    xi = empty_batch(suite)
    units = task_units(suite)
    fwd = final_w(step(np.array([1.0]), suite, units, SGD, [fresh_state(SGD, 1)], 0.1, xi, [0, 1]))
    rev = final_w(step(np.array([1.0]), suite, units, SGD, [fresh_state(SGD, 1)], 0.1, xi, [1, 0]))
    np.testing.assert_allclose(fwd, [1.01])
    np.testing.assert_allclose(rev, [0.99])


def test_ius_single_task_equals_sus():
    suite = QuadraticSuite([QuadraticTask(0, [[1.0]], [2.0])])
    xi = empty_batch(suite)
    a = final_w(step(np.array([0.5]), suite, task_units(suite), SGD, [fresh_state(SGD, 1)], 0.2, xi, [0]))
    b = final_w(step(np.array([0.5]), suite, shared_unit(suite), SGD, [fresh_state(SGD, 1)], 0.2, xi, [0]))
    np.testing.assert_array_equal(a, b)


def test_io_step_with_sgd_bit_equals_ius():
    suite = two_task_suite(noise_sigma=0.4)
    xi = suite.sample_minibatch(RngStream(0, "data").gen)
    w = np.array([0.3])
    units = task_units(suite)
    a = final_w(step(w, suite, units, SGD, [fresh_state(SGD, 1)], 0.1, xi, [1, 0]))
    b = final_w(step(w, suite, units, SGD, [fresh_state(SGD, 1) for _ in range(2)], 0.1, xi, [1, 0]))
    np.testing.assert_array_equal(a, b)


def test_momentum_memory_leak_hand_trace():
    # constant gradients +1 / -1: shared state drifts, per-task states cancel
    suite = ConstantGradientSuite([[1.0], [-1.0]])
    units = task_units(suite)
    mom = OptimizerRule("momentum", beta=0.9)
    eta = 1.0
    xi = None

    w = np.zeros(1)
    shared = fresh_state(mom, 1)
    w_ius = final_w(step(w, suite, units, mom, [shared], eta, xi, [0, 1]))
    np.testing.assert_allclose(w_ius - w, [-0.9 * eta])

    states = [fresh_state(mom, 1), fresh_state(mom, 1)]
    w1 = final_w(step(w, suite, units, mom, states, eta, xi, [0, 1]))
    np.testing.assert_allclose(w1 - w, [0.0])
    w2 = final_w(step(w1, suite, units, mom, states, eta, xi, [0, 1]))
    np.testing.assert_allclose(w2 - w1, [0.0])


def test_step_yields_unit_loss_and_parameters_per_update():
    suite = noiseless_pair()
    xi = empty_batch(suite)
    w0 = np.array([1.0])
    updates = list(step(w0, suite, task_units(suite), SGD, [fresh_state(SGD, 1)], 0.1, xi, [1, 0]))
    assert [u for u, _, _ in updates] == [1, 0]
    # task 1 at w=1: 0.5*(1-2)^2; then task 0 at w=1.1: 0.5*1.1^2
    assert updates[0][1] == 0.5
    assert updates[1][1] == pytest.approx(0.5 * 1.1**2)
    np.testing.assert_allclose(updates[0][2], [1.1])
    np.testing.assert_allclose(updates[1][2], [0.99])


def test_step_draws_one_minibatch_per_update_from_a_callable():
    suite = two_task_suite(noise_sigma=0.5)
    gen_a, gen_b = RngStream(2, "data").gen, RngStream(2, "data").gen
    drawn = []

    def draw():
        drawn.append(suite.sample_minibatch(gen_a))
        return drawn[-1]

    w0 = np.array([0.4])
    units = task_units(suite)
    fresh = final_w(step(w0, suite, units, SGD, [fresh_state(SGD, 1)], 0.1, draw, [0, 1, 1]))
    assert len(drawn) == 3
    w = w0
    for k in (0, 1, 1):
        xi = suite.sample_minibatch(gen_b)
        w = final_w(step(w, suite, units, SGD, [fresh_state(SGD, 1)], 0.1, xi, [k]))
    np.testing.assert_array_equal(fresh, w)


# ---------------------------------------------------------------- grouping


def test_grouping_degenerate_cases():
    gen = RngStream(0, "grouping").gen
    singletons = make_grouping(4, 4, gen)
    assert singletons == ((0,), (1,), (2,), (3,))
    everything = make_grouping(4, 1, gen)
    assert everything == ((0, 1, 2, 3),)


def test_grouping_forty_tasks_eight_groups():
    g = make_grouping(40, 8, RngStream(3, "grouping").gen)
    sizes = [len(grp) for grp in g]
    assert sizes == [5] * 8
    assert sorted(k for grp in g for k in grp) == list(range(40))


@pytest.mark.parametrize("n_steps, w0, message", [
    (0, [0.0, 0.0, 0.0], "^n_steps must be >= 1$"),
    (10, [0.0, 0.0], "^w0 dimension 2 != suite dimension 3$"),
])
def test_run_rejects_no_steps_and_a_start_of_the_wrong_dimension(n_steps, w0, message):
    config = SchemeConfig("sus", OptimizerRule("sgd"), ConstantLR(0.1))
    with pytest.raises(ValueError, match=message):
        run(config, five_task_suite(), w0, n_steps, seed=0)


def test_grouping_rejects_bad_counts():
    gen = RngStream(0, "grouping").gen
    with pytest.raises(ValueError):
        make_grouping(4, 0, gen)
    with pytest.raises(ValueError):
        make_grouping(4, 5, gen)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(0, 10_000))))
@settings(max_examples=100)
def test_grouping_balanced_partition_property(args):
    n, n_hat, seed = args
    g = make_grouping(n, n_hat, RngStream(seed, "grouping").gen)
    sizes = [len(grp) for grp in g]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(k for grp in g for k in grp) == list(range(n))


def test_grouping_deterministic_given_seed():
    a = make_grouping(9, 3, RngStream(5, "grouping").gen)
    b = make_grouping(9, 3, RngStream(5, "grouping").gen)
    assert a == b


def test_grouping_draws_every_balanced_partition_equally_often():
    # 5 tasks in 2 groups: C(5, 2) = 10 balanced partitions, each drawn with
    # probability 1/10 from a uniform permutation
    gen = RngStream(17, "grouping").gen
    counts = {}
    for _ in range(4000):
        grouping = make_grouping(5, 2, gen)
        counts[grouping] = counts.get(grouping, 0) + 1
    assert len(counts) == 10
    assert all(sorted(len(g) for g in grouping) == [2, 3] for grouping in counts)
    assert stats.chisquare(list(counts.values())).pvalue > 0.01


def test_a_grouped_run_updates_the_units_of_its_grouping_stream():
    # the units of a run are make_grouping's draw from the run seed's
    # "grouping" stream, whatever the run draws from its other streams
    suite = five_task_suite()
    config = SchemeConfig("ius", OptimizerRule("adam"), ConstantLR(0.01), n_groups=2)
    groupings = set()
    for seed in range(8):
        grouping = make_grouping(5, 2, RngStream(seed, "grouping").gen)
        trace = run(config, suite, np.zeros(3), 3, seed=seed, validation_every=0)
        labels = ["+".join(str(k) for k in unit) for unit in grouping]
        for t in (1, 2, 3):
            assert sorted(l for s, l in zip(trace.steps, trace.labels) if s == t) == sorted(labels)
        groupings.add(grouping)
    assert len(groupings) > 1


def test_grouped_step_matches_worked_ius_example():
    suite = noiseless_pair()
    xi = empty_batch(suite)
    grouping = make_grouping(2, 2, RngStream(0, "grouping").gen)
    out = final_w(step(np.array([1.0]), suite, grouping, SGD, [fresh_state(SGD, 1)], 0.1, xi, [0, 1]))
    np.testing.assert_allclose(out, [1.01])


def test_grouped_step_state_count_validation():
    suite = noiseless_pair()
    grouping = make_grouping(2, 2, RngStream(0, "grouping").gen)
    with pytest.raises(ValueError):
        final_w(step(
            np.array([0.0]), suite, grouping, SGD,
            [fresh_state(SGD, 1)] * 3, 0.1, empty_batch(suite), [0, 1],
        ))


def test_masked_updates_keep_the_shared_state_of_a_masked_copy():
    # an update zeroes its unit's off coordinates in the direction itself:
    # the shared momentum state of an MLP's ius units, each masking the
    # other tasks' heads, must keep the bits of a loop that masks a copy with
    # np.where, which a direction that shares the state's memory fails
    suite = synthetic_mlp_suite(n_tasks=3, input_dim=2, hidden=(8,), batch_size=4, val_size=4)
    rule = OptimizerRule("momentum", beta=0.9)
    units = make_grouping(3, 3, RngStream(0, "grouping").gen)
    states = [fresh_state(rule, suite.dim)]
    w = init_mlp_params(suite, RngStream(0, "init").gen)
    ref_w, ref_state = w.copy(), states[0]
    gen = RngStream(0, "data").gen
    for order in ([2, 0, 1], [1, 2, 0], [0, 1, 2], [2, 1, 0]):
        xi = suite.sample_minibatch(gen)
        w = final_w(step(w, suite, units, rule, states, 0.05, xi, order))
        for u in order:
            _, g = suite.unit_value_and_gradient(ref_w, units[u], xi)
            direction, ref_state = apply(rule, ref_state, g)
            ref_w = axpy(ref_w, np.where(suite.unit_mask(units[u]), direction, 0.0), -0.05)
    assert states[0].step == ref_state.step == 12
    assert same_bits(states[0].m, ref_state.m) and same_bits(w, ref_w)
    assert np.count_nonzero(ref_state.m[~suite.shared_mask]) == suite.dim - suite.topology.trunk_size


# ---------------------------------------------------------------- run loop


def cfg(scheme, groups=None, opt=None, eta=0.05, order="round_robin"):
    return SchemeConfig(
        scheme=scheme,
        optimizer=opt or OptimizerRule("adam"),
        lr=ConstantLR(eta),
        n_groups=groups,
        task_order=order,
    )


def test_run_single_step_total_equals_shortest():
    suite = QuadraticSuite([QuadraticTask(0, [[1.0]], [2.0])])
    trace = run(cfg("sus", opt=SGD, eta=0.1), suite, np.zeros(1), 1, seed=0)
    assert len(trace.displacements) == 1
    from mtlopt.tracing import covered_distances

    d = covered_distances(trace)
    assert d.total == pytest.approx(d.shortest)
    assert d.ratio == pytest.approx(1.0)


def test_run_deterministic_bit_identical():
    suite = two_task_suite(0.5)
    a = run(cfg("ius", groups=2), suite, np.zeros(1), 25, seed=3)
    b = run(cfg("ius", groups=2), suite, np.zeros(1), 25, seed=3)
    assert_same_run(a, b)


@pytest.mark.parametrize("order", ["round_robin", "fixed", "uniform_random"])
def test_forced_equivalences(order):
    suite = two_task_suite(0.5)
    for _, a, b, states in equivalent_pairs(suite.n_tasks, order):
        assert_same_run(run(a, suite, np.zeros(1), 20, seed=11), run(b, suite, np.zeros(1), 20, seed=11), states)


def test_round_robin_updates_every_task_once_per_step():
    suite = two_task_suite(0.5)
    trace = run(cfg("ius"), suite, np.zeros(1), 15, seed=2)
    for t in range(1, 16):
        labels = [l for s, l in zip(trace.steps, trace.labels) if s == t]
        assert sorted(labels) == ["0", "1"]


def test_uniform_random_frequencies_converge():
    suite = QuadraticSuite([QuadraticTask(k, [[1.0]], [float(k)], 0.0) for k in range(4)])
    trace = run(
        cfg("ius", opt=SGD, eta=0.01, order="uniform_random"), suite, np.zeros(1), 2000, seed=9
    )
    counts = [trace.labels.count(str(k)) for k in range(4)]
    assert sum(counts) == 2000  # one task per multi-task step
    assert stats.chisquare(counts).pvalue > 0.01


def test_oracle_call_counts_per_step():
    tasks = [QuadraticTask(0, [[1.0]], [0.0], 0.1), QuadraticTask(1, [[1.0]], [2.0], 0.1),
             QuadraticTask(2, [[1.0]], [1.0], 0.1)]
    # one unit-oracle call per update
    # SUS: one call and one optimizer application per step
    suite = CountingSuite(tasks)
    trace = run(cfg("sus"), suite, np.zeros(1), 4, seed=0)
    assert suite.unit_calls == 4
    assert trace.final_states[0]["step"] == 4
    # IUS: N calls, N applications on the one shared state
    suite = CountingSuite(tasks)
    trace = run(cfg("ius"), suite, np.zeros(1), 4, seed=0)
    assert suite.unit_calls == 3 * 4
    assert trace.final_states[0]["step"] == 3 * 4
    # IO: N calls, one application per task state
    suite = CountingSuite(tasks)
    trace = run(cfg("io"), suite, np.zeros(1), 4, seed=0)
    assert suite.unit_calls == 3 * 4
    assert all(s["step"] == 4 for s in trace.final_states)


class LoopOracleSuite(QuadraticSuite):
    """A quadratic suite on the per-task loop, the reference that the stacked
    unit oracle must reproduce bit for bit."""

    unit_value_and_gradient = loop_unit_value_and_gradient


@pytest.mark.parametrize(
    "config",
    [
        cfg("sus"),
        cfg("ius", groups=2, opt=OptimizerRule("momentum", beta=0.9)),
        cfg("io"),
        SchemeConfig("ius", OptimizerRule("adam"), ConstantLR(0.05), n_groups=3, fresh_minibatch_per_task=True),
        cfg("io", groups=2, order="uniform_random"),
    ],
    ids=["sus", "ius_groups_momentum", "io_adam", "fresh_minibatch", "uniform_random"],
)
def test_stacked_oracle_runs_write_the_bytes_of_the_per_task_loop(config, tmp_path):
    tasks = five_task_suite().tasks
    for name, suite in (("stacked", QuadraticSuite(tasks)), ("loop", LoopOracleSuite(tasks))):
        trace = run(config, suite, np.array([2.0, -1.0, 0.5]), 200, seed=4)
        write_trace_csv(trace, tmp_path / f"{name}.csv")
        write_trace_meta(trace, tmp_path / f"{name}.meta.json")
    for ext in ("csv", "meta.json"):
        assert (tmp_path / f"stacked.{ext}").read_bytes() == (tmp_path / f"loop.{ext}").read_bytes()


def test_step_restores_the_error_state_on_return_and_on_raise():
    suite = two_task_suite(0.0)
    units = task_units(suite)
    before = np.geterr()
    step(np.array([1.0]), suite, units, SGD, [fresh_state(SGD, 1)], 0.1, empty_batch(suite), [0, 1])
    assert np.geterr() == before
    with pytest.raises(NonFiniteError):
        step(np.array([1e300]), suite, units, SGD, [fresh_state(SGD, 1)], 0.1, empty_batch(suite), [0, 1])
    assert np.geterr() == before


def test_abort_mid_step_keeps_the_update_that_landed_before_it():
    # unit 0 lands at w = 0 - 2 * (-1e154) = 2e154, where unit 1's loss,
    # 0.5 * (2e154)^2, overflows
    suite = QuadraticSuite([QuadraticTask(0, [[1.0]], [1e154]), QuadraticTask(1, [[1.0]], [0.0])])
    mom = OptimizerRule("momentum", beta=0.9)
    trace = run(cfg("ius", opt=mom, eta=2.0, order="fixed"), suite, np.zeros(1), 5, seed=0)
    assert trace.aborted
    assert trace.abort_reason == "step 1: training loss for unit 1 is non-finite"
    # one row; step 1 was never validated, so the row has no val_loss
    columns = (trace.steps, trace.labels, trace.train_losses, trace.displacements, trace.cumulative)
    assert columns == ([1], ["0"], [0.5 * 1e154 * 1e154], [2e154], [2e154])
    assert trace.val_steps == [0]
    np.testing.assert_array_equal(trace.w_final, [2e154])
    assert trace.final_states == [{"m": [-1e154], "v": None, "step": 1}]


def test_adam_schemes_reach_different_points_on_a_convex_suite():
    # noise-free diagonal quadratics: sus and ius step along gradients summed
    # into one Adam state and reach w*, the curvature-weighted mean of the task
    # optima. io's per-task states each tend to the sign of their own task's
    # gradient near a fixed point, so its steps balance those signs coordinate
    # by coordinate and reach the coordinate-wise median of the optima. After
    # 1,000 steps, measured: sus 9e-16 and ius 8.4e-4 from w*, io 3.9e-3 from
    # the median. The bounds of ius and io are about twice that, sus's allows
    # for rounding, and the two points lie 0.247 apart.
    gen = np.random.default_rng(3)
    curvatures, centers = gen.uniform(0.5, 5.0, size=(5, 3)), gen.uniform(-2.0, 2.0, size=(5, 3))
    suite = QuadraticSuite([QuadraticTask(k, np.diag(curvatures[k]), centers[k], 0.0) for k in range(5)])
    w_star, median = suite_constants(suite).w_star, np.median(centers, axis=0)
    assert np.abs(w_star - median).max() > 0.2
    end = {}
    for scheme in ("sus", "ius", "io"):
        config = SchemeConfig(scheme, OptimizerRule("adam"), InverseTimeLR(mu=1.0, offset=10.0))
        end[scheme] = run(config, suite, np.zeros(3), 1000, seed=0, validation_every=0).w_final
    assert np.abs(end["sus"] - w_star).max() < 1e-12
    assert np.abs(end["ius"] - w_star).max() < 2e-3
    assert np.abs(end["io"] - median).max() < 1e-2


def test_adam_io_ends_where_every_coordinate_has_a_stationary_task():
    # the shipped five-task suite without noise, not diagonal: io's per-task
    # Adam states balance the signs of the task gradients coordinate by
    # coordinate, so at its end point each coordinate has a task whose
    # gradient coordinate is near zero; at w* the smallest is 0.397. After
    # 2,000 steps at seed 0, measured: at most 5.0e-4 (3.3e-3 after 1,000);
    # sus and ius, which step through one state, end at w*.
    suite = QuadraticSuite([QuadraticTask(t.index, t.matrix, t.center, 0.0) for t in five_task_suite().tasks])

    def smallest_task_gradients(w):
        return np.abs((suite.matrices @ (w - suite.centers)[..., None])[..., 0]).min(axis=0)

    w_star = suite_constants(suite).w_star
    assert smallest_task_gradients(w_star).min() > 0.39
    config = SchemeConfig("io", OptimizerRule("adam"), InverseTimeLR(mu=1.0, offset=10.0))
    w = run(config, suite, np.zeros(3), 2000, seed=0, validation_every=0).w_final
    assert smallest_task_gradients(w).max() < 2e-3
    assert np.abs(w - w_star).max() > 0.4


def test_noise_free_average_loss_non_increasing():
    # deterministic visitation from a start well away from the joint optimum;
    # the decaying schedule starts at 1/L
    five_noise_free = QuadraticSuite(
        [QuadraticTask(t.index, t.matrix, t.center, 0.0) for t in five_task_suite().tasks]
    )
    for suite, w0 in [
        (two_task_suite(0.0), np.array([0.0])),
        (five_noise_free, np.array([2.0, -1.0, 0.5])),
    ]:
        consts = suite_constants(suite)
        sched = theorem_schedule(consts.smoothness, consts.strong_convexity)
        config = SchemeConfig(scheme="ius", optimizer=SGD, lr=sched, task_order="fixed")
        trace = run(config, suite, w0, 150, seed=1)
        gaps = np.array(trace.val_losses) - consts.f_star
        assert np.all(np.diff(gaps) <= 1e-12)


def test_non_finite_loss_aborts_with_diagnostic():
    suite = two_task_suite(0.0)
    trace = run(cfg("sus", opt=SGD, eta=5.0), suite, np.array([1e3]), 400, seed=0)
    assert trace.aborted
    assert trace.abort_reason and "step" in trace.abort_reason
    assert trace.steps[-1] < 400  # the last step with a row


@pytest.mark.parametrize("opt", [SGD, OptimizerRule("momentum", beta=0.9), OptimizerRule("adam")])
def test_abort_in_update_leaves_optimizer_state_of_last_landed_update(opt):
    # 0.5*w^2 at w0 = 1e150: the loss is finite, but w0 - 1e160*direction
    # overflows, so the first update fails in the parameter update (adam's
    # unit-size direction lands once and the next loss overflows instead)
    suite = QuadraticSuite([QuadraticTask(0, [[1.0]], [0.0])])
    trace = run(cfg("ius", opt=opt, eta=1e160), suite, np.array([1e150]), 5, seed=0)
    assert trace.aborted
    landed = len(trace.steps)
    assert trace.final_states[0]["step"] == landed
    if opt.kind == "momentum":
        assert landed == 0
        assert trace.final_states[0]["m"] == [0.0]
        np.testing.assert_array_equal(trace.w_final, [1e150])


class OneTaskStubSuite(TaskSuite):
    """One task whose loss, sum(w), stays finite while w does; its gradient
    at w is gradient(w), and its update may touch only `mask` (None: all)."""

    def __init__(self, gradient, dim=1, mask=None):
        super().__init__([None])
        self._gradient, self._dim, self._mask = gradient, dim, mask

    @property
    def dim(self):
        return self._dim

    def unit_mask(self, unit):
        return self._mask

    def unit_value_and_gradient(self, w, unit, xi):
        return float(w.sum()), self._gradient(w)

    def sample_minibatch(self, gen):
        return None


def _nan_below(level):
    # gradient 1 at every coordinate, NaN in the last one once w[0] < level
    def gradient(w):
        g = np.ones(w.size)
        if w[0] < level:
            g[-1] = math.nan
        return g
    return gradient


@pytest.mark.parametrize(
    "opt, eta, suite, landed, reason",
    [
        # sgd from 0 at eta 1: the gradient at w = -3 is NaN
        (SGD, 1.0, OneTaskStubSuite(_nan_below(-2.5)), 3, "non-finite gradient passed to optimizer"),
        # NaN only in the coordinate the unit's mask leaves out: the masked
        # direction would be finite, but the gradient check covers every entry
        (SGD, 1.0, OneTaskStubSuite(_nan_below(-2.5), dim=2, mask=np.array([True, False])), 3,
         "non-finite gradient passed to optimizer"),
        # adam on a constant gradient of the largest float: v overflows at
        # once, and the direction m_hat / inf = 0 would stall the run
        (OptimizerRule("adam"), 1.0, OneTaskStubSuite(lambda w: np.full(w.size, np.finfo(np.float64).max)), 0,
         "non-finite entries in adam second moment"),
        # a gradient of 1e155: v = 0.001 * g**2 is finite, but its bias
        # correction v_hat = g**2 overflows, with the same stall
        (OptimizerRule("adam"), 1.0, OneTaskStubSuite(lambda w: np.full(w.size, 1e155)), 0,
         "non-finite entries in adam second moment"),
        # without a second-moment average (beta2 = 0), a gradient of 1e150
        # and then 0 leaves m_hat at about 4.7e148 over a denominator of eps,
        # 1e-300: the second direction overflows
        (OptimizerRule("adam", beta2=0.0, eps=1e-300), 1.0,
         OneTaskStubSuite(lambda w: np.full(w.size, 1e150 if w[0] == 0.0 else 0.0)), 1,
         "non-finite entries in adam direction"),
        # momentum at eta 1e307 on a constant gradient of 1: the partial sums
        # of m reach 17.83, and the seventh update takes w below -1.8e308
        (OptimizerRule("momentum", beta=0.9), 1e307, OneTaskStubSuite(lambda w: np.ones(w.size)), 6,
         "non-finite entries in axpy result"),
    ],
    ids=["gradient", "gradient-outside-mask", "adam-second-moment", "adam-bias-corrected-second-moment",
         "adam-direction", "axpy-result"],
)
def test_update_path_aborts_name_the_check_and_keep_the_last_landed_state(opt, eta, suite, landed, reason):
    w0 = np.zeros(suite.dim)
    trace = run(cfg("ius", opt=opt, eta=eta), suite, w0, 20, seed=0)
    assert trace.aborted
    assert trace.abort_reason == f"step {landed + 1}: {reason}"
    assert len(trace.steps) == landed
    # replay the updates that landed, under run's error settings: the run
    # ends at their iterate and state
    w, state, mask = w0, fresh_state(opt, suite.dim), suite.unit_mask((0,))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(landed):
            direction, state = apply(opt, state, suite.unit_value_and_gradient(w, (0,), None)[1])
            w = w - eta * (direction if mask is None else np.where(mask, direction, 0.0))
    assert trace.final_states == [state.to_dict()]
    np.testing.assert_array_equal(trace.w_final, w)


def test_abort_mid_run_keeps_each_state_at_its_last_landed_update():
    # linear tasks keep every loss finite while momentum grows the steps until
    # the parameter update overflows, after several updates per state landed
    suite = ConstantGradientSuite([[1.0], [1.0]])
    trace = run(cfg("io", opt=OptimizerRule("momentum", beta=0.9), eta=1e307), suite, np.zeros(1), 50, seed=0)
    assert trace.aborted and "axpy" in trace.abort_reason
    for k, state in enumerate(trace.final_states):
        landed = trace.labels.count(str(k))
        assert landed > 0
        assert state["step"] == landed
        m = 0.0
        for _ in range(landed):
            m = 0.9 * m + 1.0
        assert state["m"] == [m]
    assert np.isfinite(trace.w_final).all()


@pytest.mark.parametrize("mu, offset", [(1e-320, -0.9999999999999999), (1e-320, 0.0)])
def test_step_size_that_overflows_aborts_naming_it(mu, offset):
    # mu * (offset + 1) underflows to 0 in the first case and is subnormal in
    # the second; either way eta_1 is inf, and no update may land
    lr = InverseTimeLR(mu=mu, offset=offset)
    config = SchemeConfig("ius", SGD, lr)
    trace = run(config, two_task_suite(), np.zeros(1), 3, seed=0)
    assert trace.aborted and trace.abort_reason == "step 1: step size inf is non-finite"
    assert trace.steps == [] and trace.final_states[0]["step"] == 0
    np.testing.assert_array_equal(trace.w_final, [0.0])


def test_validation_sum_overflow_aborts_without_a_warning():
    # each task's validation loss, 0.5 * (1.4e154)^2, is finite and their sum
    # is not; the tier-1 settings turn a RuntimeWarning into an error
    suite = QuadraticSuite([QuadraticTask(0, [[1.0]], [0.0]), QuadraticTask(1, [[1.0]], [0.0])])
    trace = run(cfg("sus", opt=SGD), suite, np.array([1.4e154]), 3, seed=0)
    assert trace.abort_reason == "step 0: validation loss is non-finite"


def test_huge_displacement_is_recorded_finite_without_a_warning():
    # sgd at eta 1e10 from (1e150, -1e150) moves by about 1e160 per entry:
    # the loss there is finite, the displacement's sum of squares is not
    suite = QuadraticSuite([QuadraticTask(0, np.eye(2), [0.0, 0.0])])
    w0 = np.array([1e150, -1e150])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = run(cfg("ius", opt=SGD, eta=1e10), suite, w0, 3, seed=0)
    assert trace.abort_reason == "step 1: validation loss is non-finite"
    (displacement,) = trace.displacements
    assert math.isfinite(displacement) and displacement > 1e160
    assert displacement == l2_norm(trace.w_final - w0)


@pytest.mark.parametrize("shared", ["trunk", "every third"])
def test_displacements_are_the_norms_of_each_update_over_the_shared_coordinates(monkeypatch, shared):
    # each update's displacement is the norm of its step over the shared
    # coordinates, for the MLP's trunk and for a mask that is not one run
    suite = synthetic_mlp_suite(n_tasks=3, input_dim=2, hidden=(4,), batch_size=4, val_size=4)
    if shared == "every third":
        suite.shared_mask = np.arange(suite.dim) % 3 == 0
    seen, oracle = [], suite.unit_value_and_gradient

    def recording(w, unit, xi):
        seen.append(w.copy())
        return oracle(w, unit, xi)

    monkeypatch.setattr(suite, "unit_value_and_gradient", recording)
    trace = run(cfg("ius"), suite, init_mlp_params(suite, RngStream(0, "init").gen), 2, seed=0)
    ws = seen + [trace.w_final]
    assert len(trace.displacements) == len(seen) == 6
    for displacement, w, w_next in zip(trace.displacements, ws, ws[1:]):
        assert same_bits(displacement, l2_norm((w_next - w)[suite.shared_mask]))


@pytest.mark.parametrize("config", [cfg("sus"), cfg("ius", groups=2, opt=OptimizerRule("momentum", beta=0.9)),
                                    cfg("io")])
def test_run_enters_one_errstate_scope_per_step_and_one_around_the_loop(config, monkeypatch):
    entered = []

    class CountingErrstate(np.errstate):
        def __enter__(self):
            entered.append(1)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", CountingErrstate)
    n_steps = 6
    trace = run(config, five_task_suite(), np.zeros(3), n_steps, seed=0)
    assert not trace.aborted and len(trace.val_steps) == n_steps + 1
    # at most one scope per step (step's own) and one around run's loop, not
    # one per update for the displacement and one per validation
    assert len(entered) <= n_steps + 1


def test_fresh_minibatch_mode_changes_draws_but_stays_deterministic():
    suite = two_task_suite(0.8)
    base = SchemeConfig(scheme="ius", optimizer=SGD, lr=ConstantLR(0.05))
    fresh = SchemeConfig(
        scheme="ius", optimizer=SGD, lr=ConstantLR(0.05), fresh_minibatch_per_task=True
    )
    a = run(base, suite, np.zeros(1), 10, seed=4)
    b = run(fresh, suite, np.zeros(1), 10, seed=4)
    c = run(fresh, suite, np.zeros(1), 10, seed=4)
    assert not np.array_equal(a.w_final, b.w_final)
    assert_same_run(b, c)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(scheme="sus", optimizer=SGD, lr=ConstantLR(0.1), n_groups=3)
    with pytest.raises(ValueError):
        SchemeConfig(scheme="mtl", optimizer=SGD, lr=ConstantLR(0.1))
    with pytest.raises(ValueError):
        SchemeConfig(scheme="ius", optimizer=SGD, lr=ConstantLR(0.1), task_order="sorted")
    with pytest.raises(ValueError):
        run(cfg("ius", groups=7), two_task_suite(), np.zeros(1), 2, seed=0)


def test_theorem_schedule_first_step_is_inverse_smoothness():
    sched = theorem_schedule(smoothness=3.0, strong_convexity=1.0)
    assert sched.at(1) == pytest.approx(1.0 / 3.0)
    assert sched.offset == pytest.approx(5.0)
