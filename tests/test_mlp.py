import itertools
import pickle

import numpy as np
import pytest

from helpers import ProbeRecordingTask, bits, loop_finite_difference_check, loop_unit_value_and_gradient, same_bits
from mtlopt import mlp, schemes
from mtlopt.mlp import MLPTask, MLPTopology, init_mlp_params, synthetic_mlp_suite
from mtlopt.objectives import finite_difference_check, two_task_suite
from mtlopt.optimizers import OptimizerRule
from mtlopt.params import RngStream
from mtlopt.schemes import ConstantLR, SchemeConfig, run


def small_suite():
    return synthetic_mlp_suite(n_tasks=3, input_dim=2, hidden=(8, 8), batch_size=8, val_size=32)


def test_gradient_matches_finite_differences():
    suite = small_suite()
    gen = RngStream(11, "data").gen
    w = init_mlp_params(suite, RngStream(11, "init").gen)
    for _ in range(10):
        xi = suite.sample_minibatch(gen)
        point = w + 0.1 * gen.normal(size=suite.dim)
        for task in suite.tasks:
            assert finite_difference_check(task, point, xi, h=1e-5) <= 1e-5


def test_gradient_sparsity_pattern():
    # every trunk coordinate is touched, plus only the task's own head
    suite = small_suite()
    xi = suite.sample_minibatch(RngStream(1, "data").gen)
    w = init_mlp_params(suite, RngStream(1, "init").gen)
    for k, task in enumerate(suite.tasks):
        g = task.gradient(w, xi)
        own = suite.unit_mask((k,))
        assert np.all(g[~own] == 0.0)
        assert np.all(g[suite.shared_mask] != 0.0)
        head = own & ~suite.shared_mask
        assert np.any(g[head] != 0.0)


def test_forward_deterministic_and_batch_reusable():
    suite = small_suite()
    xi = suite.sample_minibatch(RngStream(2, "data").gen)
    w = init_mlp_params(suite, RngStream(2, "init").gen)
    t = suite.tasks[1]
    assert t.value(w, xi) == t.value(w, xi)
    np.testing.assert_array_equal(t.gradient(w, xi), t.gradient(w, xi))


def test_masks_partition_parameters():
    suite = small_suite()
    trunk = suite.topology.trunk_size
    assert suite.shared_mask.sum() == trunk
    heads = np.zeros(suite.dim, dtype=bool)
    for k in range(suite.n_tasks):
        own_head = suite.unit_mask((k,)) & ~suite.shared_mask
        assert not np.any(heads & own_head)  # heads are disjoint
        heads |= own_head
    assert np.all(suite.shared_mask | heads)  # trunk + heads cover everything
    assert suite.unit_mask(range(suite.n_tasks)).all()


def test_init_and_targets_deterministic():
    a = synthetic_mlp_suite(n_tasks=2, hidden=(8,), dataset_seed=5)
    b = synthetic_mlp_suite(n_tasks=2, hidden=(8,), dataset_seed=5)
    wa = init_mlp_params(a, RngStream(3, "init").gen)
    wb = init_mlp_params(b, RngStream(3, "init").gen)
    np.testing.assert_array_equal(wa, wb)
    np.testing.assert_array_equal(a.validation_task_losses(wa), b.validation_task_losses(wb))
    x = RngStream(4, "data").gen.uniform(-1, 1, size=(5, 2))
    np.testing.assert_array_equal(a.targets[1](x), b.targets[1](x))


def test_validation_loss_is_mean_of_task_losses():
    suite = small_suite()
    w = init_mlp_params(suite, RngStream(6, "init").gen)
    per_task = suite.validation_task_losses(w)
    # the validation loss a run records is the mean of the task losses
    config = SchemeConfig(scheme="sus", optimizer=OptimizerRule("sgd"), lr=ConstantLR(0.01))
    trace = run(config, suite, w, 1, seed=0)
    assert trace.val_losses[0] == float(np.mean(per_task))
    np.testing.assert_array_equal(trace.val_task_losses[0], per_task)
    assert np.all(per_task >= 0.0)


def test_tasks_are_heterogeneous():
    # later tasks carry higher-frequency targets, so the same smooth function
    # family cannot fit them all equally
    suite = synthetic_mlp_suite(n_tasks=4, dataset_seed=7)
    x = RngStream(8, "data").gen.uniform(-1, 1, size=(400, 2))
    ys = [f(x) for f in suite.targets]
    for a in range(4):
        for b in range(a + 1, 4):
            assert not np.allclose(ys[a], ys[b])


def test_validation_losses_equal_per_task_values_exactly():
    # the shared trunk forward must give the same bits as one forward per task
    for suite in (small_suite(), synthetic_mlp_suite(n_tasks=4, dataset_seed=7)):
        w = init_mlp_params(suite, RngStream(9, "init").gen)
        w += 0.1 * RngStream(9, "perturb").gen.normal(size=suite.dim)
        losses = suite.validation_task_losses(w)
        assert losses.shape == (suite.n_tasks,)
        for k in range(suite.n_tasks):
            (expected,) = suite.topology.heads_value(w, suite.val_inputs, [(k, suite.val_targets[k])])
            assert losses[k] == expected


def test_layout_tiles_the_parameter_vector_with_views():
    topology = small_suite().topology
    covered = []
    for w_slice, w_shape, b_slice in topology.layout:
        assert w_slice.stop - w_slice.start == w_shape[0] * w_shape[1]
        assert b_slice.start == w_slice.stop and b_slice.stop - b_slice.start == w_shape[1]
        covered += [w_slice, b_slice]
    assert covered[0].start == 0 and covered[-1].stop == topology.dim
    assert all(a.stop == b.start for a, b in zip(covered, covered[1:]))  # no gaps, no overlaps
    n_trunk = len(topology.hidden)
    assert topology.layout[n_trunk][0].start == topology.trunk_size
    for k in range(topology.n_tasks):
        w_slice, _, b_slice = topology.layout[n_trunk + k]
        assert topology.head_slice(k) == slice(w_slice.start, b_slice.stop)

    w = np.zeros(topology.dim)
    trunk, heads = topology.unpack(w)
    assert len(trunk) == n_trunk and len(heads) == topology.n_tasks
    for i, (w_mat, b) in enumerate(trunk + heads):
        w_mat[...] = 2 * i + 1
        b[...] = 2 * i + 2
    expected = np.concatenate(
        [np.full(s.stop - s.start, float(j + 1)) for j, s in enumerate(covered)]
    )
    np.testing.assert_array_equal(w, expected)


def test_unit_mask_is_union_of_task_masks():
    suite = small_suite()
    n = suite.n_tasks
    for unit in [tuple(range(n)), (0,), (2, 0)]:
        fresh = np.zeros(suite.dim, dtype=bool)
        for k in unit:
            fresh |= suite.unit_mask((k,))
        np.testing.assert_array_equal(suite.unit_mask(unit), fresh)
    np.testing.assert_array_equal(suite.unit_mask(range(n)), suite.unit_mask(tuple(range(n))))
    assert two_task_suite().unit_mask((0, 1)) is None  # unrestricted tasks


# ------------------------------------------- reference kernels, bit for bit
# The kernels as first written: views of every layer, np.mean, one new array
# per operation and the gradient with respect to the input. The in-place
# kernels must give the same bits.


def _reference_forward(topology, w, x):
    trunk, heads = topology.unpack(w)
    h = x
    for w_mat, b in trunk:
        h = np.tanh(h @ w_mat + b)
    return h, heads


def _reference_head_loss(h, head, y):
    w_head, b_head = head
    return float(np.mean((h @ w_head + b_head - y) ** 2))


def _reference_value(topology, w, k, x, y):
    h, heads = _reference_forward(topology, w, x)
    return _reference_head_loss(h, heads[k], y)


def _reference_gradient(topology, w, k, x, y):
    trunk, heads = topology.unpack(w)
    activations = [x]
    for w_mat, b in trunk:
        activations.append(np.tanh(activations[-1] @ w_mat + b))
    h_last = activations[-1]
    w_head, b_head = heads[k]
    pred = h_last @ w_head + b_head
    grad = np.zeros_like(w)
    g_trunk, g_heads = topology.unpack(grad)
    d_pred = 2.0 * (pred - y) / y.shape[0]
    g_heads[k][0][...] = h_last.T @ d_pred
    g_heads[k][1][...] = d_pred.sum(axis=0)
    d_h = d_pred @ w_head.T
    for i in reversed(range(len(trunk))):
        d_z = d_h * (1.0 - activations[i + 1] ** 2)
        g_trunk[i][0][...] = activations[i].T @ d_z
        g_trunk[i][1][...] = d_z.sum(axis=0)
        d_h = d_z @ trunk[i][0].T
    return grad


SHIPPED_MLP = {"n_tasks": 4, "input_dim": 2, "hidden": (32, 32)}  # configs/mlp_four_task.json
SHAPES = [SHIPPED_MLP, {"n_tasks": 3, "input_dim": 2, "hidden": (5,)}, {"n_tasks": 2, "input_dim": 3, "hidden": (8, 8, 8)}]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("batch", [1, 7, 32])
@pytest.mark.parametrize("weights", ["normal", "saturated", "zero"])
def test_kernels_keep_the_bits_of_the_reference(shape, batch, weights):
    suite = synthetic_mlp_suite(**shape, batch_size=batch, val_size=batch)
    topology = suite.topology
    w = init_mlp_params(suite, RngStream(batch, "init").gen)
    w += 0.1 * RngStream(batch, "perturb").gen.normal(size=suite.dim)  # nonzero biases
    w *= {"normal": 1.0, "saturated": 50.0, "zero": 0.0}[weights]
    for draw in range(3):
        x, targets = suite.sample_minibatch(RngStream(draw, "data").gen)
        for k in range(suite.n_tasks):
            expected = _reference_value(topology, w, k, x, targets[k])
            assert topology.heads_value(w, x, [(k, targets[k])]) == [expected]
            (loss,), got = topology.heads_value_and_gradient(w, x, [(k, targets[k])])
            assert loss == expected and type(loss) is float
            assert same_bits(got, _reference_gradient(topology, w, k, x, targets[k]))
    h, heads = _reference_forward(topology, w, suite.val_inputs)
    expected = np.array([_reference_head_loss(h, head, y) for head, y in zip(heads, suite.val_targets)])
    assert same_bits(suite.validation_task_losses(w), expected)


@pytest.mark.parametrize("batch", [1, 7])
def test_every_evaluation_goes_through_the_two_kernels(batch):
    # heads in any order read their own head's view, with the bits of a
    # one-head call; the per-task oracles are the one-head kernels
    suite = synthetic_mlp_suite(**SHIPPED_MLP, batch_size=batch, val_size=batch)
    topology = suite.topology
    w = init_mlp_params(suite, RngStream(batch, "init").gen)
    w += 0.1 * RngStream(batch, "perturb").gen.normal(size=suite.dim)
    x, targets = xi = suite.sample_minibatch(RngStream(batch, "data").gen)
    order = list(reversed(range(suite.n_tasks)))
    losses = topology.heads_value(w, x, [(k, targets[k]) for k in order])
    assert len(losses) == suite.n_tasks
    for k, loss in zip(order, losses):
        assert topology.heads_value(w, x, [(k, targets[k])]) == [loss]
        assert loss == _reference_value(topology, w, k, x, targets[k]) and type(loss) is float
        assert same_bits(suite.tasks[k].value(w, xi), loss)
        _, grad = topology.heads_value_and_gradient(w, x, [(k, targets[k])])
        assert same_bits(suite.tasks[k].gradient(w, xi), grad)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("weights", ["normal", "saturated", "zero"])
def test_unit_oracle_keeps_the_bits_of_the_per_task_loop(shape, weights):
    # one trunk forward per task must sum to the default loop's value and
    # gradient calls, signed zeros included
    suite = synthetic_mlp_suite(**shape, batch_size=7, val_size=7)
    n = suite.n_tasks
    w = init_mlp_params(suite, RngStream(5, "init").gen)
    w += 0.1 * RngStream(5, "perturb").gen.normal(size=suite.dim)
    w *= {"normal": 1.0, "saturated": 50.0, "zero": 0.0}[weights]
    units = [u for size in range(1, n + 1) for u in itertools.combinations(range(n), size)]
    units.append(tuple(reversed(range(n))))
    for draw in range(2):
        xi = suite.sample_minibatch(RngStream(draw, "data").gen)
        for unit in units:
            loss, g = suite.unit_value_and_gradient(w, unit, xi)
            ref_loss, ref_g = loop_unit_value_and_gradient(suite, w, unit, xi)
            assert loss == ref_loss and type(loss) is float
            assert same_bits(g, ref_g)


@pytest.mark.parametrize("shape", SHAPES + [{"n_tasks": 3, "input_dim": 1, "hidden": (1, 1)}])
@pytest.mark.parametrize("batch", [1, 7, 13, 32])
@pytest.mark.parametrize("weights", ["normal", "saturated", "zero"])
def test_unit_oracle_keeps_the_bits_of_the_reference_kernels(shape, batch, weights):
    # the stacked backward against the reference kernels, which share no code
    # with it: each task's reference value added to 0 and its reference
    # gradient to zeros, in unit order, signed zeros included. Layers of
    # width 1 make BLAS dot products, whose bits depend on the operands'
    # alignment under OpenBLAS's Prescott kernels, as do the heads' products
    # at batch 1. From 8 rows numpy sums a column pairwise, so batches 13 and
    # 32 (the shipped one) check the order of the loss and bias reductions,
    # and 13 the padding of odd-sized slices there too
    suite = synthetic_mlp_suite(**shape, batch_size=batch, val_size=batch)
    topology, n = suite.topology, suite.n_tasks
    w = init_mlp_params(suite, RngStream(batch, "init").gen)
    w += 0.1 * RngStream(batch, "perturb").gen.normal(size=suite.dim)
    w *= {"normal": 1.0, "saturated": 50.0, "zero": 0.0}[weights]
    units = [u for size in range(1, n + 1) for u in itertools.combinations(range(n), size)]
    units.append(tuple(reversed(range(n))))
    for draw in range(2):
        x, targets = xi = suite.sample_minibatch(RngStream(draw, "data").gen)
        for unit in units:
            ref_loss, ref_g = 0, np.zeros(suite.dim)
            for k in unit:
                ref_loss += _reference_value(topology, w, k, x, targets[k])
                ref_g += _reference_gradient(topology, w, k, x, targets[k])
            loss, g = suite.unit_value_and_gradient(w, unit, xi)
            assert loss == ref_loss and type(loss) is float
            assert same_bits(g, ref_g), unit


def test_unit_oracle_keeps_the_zero_signs_of_the_loop_whatever_the_kernel_gives(monkeypatch):
    # a BLAS kernel may give -0.0 where this host's gives 0.0; the unit's sum
    # must still be zeros plus each task's gradient, whose zeros are all 0.0
    kernel = MLPTopology.heads_value_and_gradient

    def negative_zeros(self, w, x, heads):
        losses, grad = kernel(self, w, x, heads)
        grad[grad == 0.0] = -0.0
        return losses, grad

    monkeypatch.setattr(MLPTopology, "heads_value_and_gradient", negative_zeros)
    suite = synthetic_mlp_suite(**SHIPPED_MLP, batch_size=7, val_size=7)
    w = init_mlp_params(suite, RngStream(5, "init").gen)
    xi = suite.sample_minibatch(RngStream(0, "data").gen)
    for unit in [(0,), (2, 1), (0, 1, 2, 3)]:
        loss, g = suite.unit_value_and_gradient(w, unit, xi)
        ref_loss, ref_g = loop_unit_value_and_gradient(suite, w, unit, xi)
        assert loss == ref_loss and same_bits(g, ref_g) and not np.signbit(g[g == 0.0]).any()


@pytest.mark.parametrize("scheme, n_groups, forwards", [("sus", None, 1), ("ius", 2, 2), ("ius", None, 4),
                                                       ("io", None, 4)])
def test_one_trunk_forward_per_unit(monkeypatch, scheme, n_groups, forwards):
    # a step of the shipped four-task suite makes one trunk forward per
    # update, however many tasks its unit holds
    suite = synthetic_mlp_suite(**SHIPPED_MLP)
    config = SchemeConfig(scheme, OptimizerRule("adam"), ConstantLR(0.01), n_groups=n_groups)
    units, states = schemes._materialize_units(config, suite, 0)
    w = init_mlp_params(suite, RngStream(0, "init").gen)
    xi = suite.sample_minibatch(RngStream(0, "data").gen)
    calls = []
    forward = MLPTopology.forward_trunk

    def counted(self, *args, **kwargs):
        calls.append(args)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(MLPTopology, "forward_trunk", counted)
    rows = schemes.step(w, suite, units, config.optimizer, states, 0.01, xi, range(len(units)))
    assert len(rows) == len(units) and len(calls) == forwards


def test_forward_trunk_writes_neither_input_nor_parameters():
    suite = synthetic_mlp_suite(**SHIPPED_MLP)
    topology = suite.topology
    w = init_mlp_params(suite, RngStream(3, "init").gen)
    x, _ = suite.sample_minibatch(RngStream(3, "data").gen)
    w_before, x_before = w.copy(), x.copy()
    activations = topology.forward_trunk(w, x)
    assert activations[0] is x and len(activations) == len(SHIPPED_MLP["hidden"]) + 1
    assert not any(np.shares_memory(a, b) for a in activations[1:] for b in (x, w))
    for a, b in zip(activations[1:], activations[2:]):
        assert not np.shares_memory(a, b)
    assert same_bits(w, w_before) and same_bits(x, x_before)
    for k in range(suite.n_tasks):  # the oracles that write into their activations
        topology.heads_value_and_gradient(w, x, [(k, x[:, :1])])
        topology.heads_value(w, x, [(k, x[:, :1])])
    assert same_bits(w, w_before) and same_bits(x, x_before)


class _FreshTask:
    """Task k's oracles from a new MLPTask for every call, so a reference
    that shares no value memo with the task under test."""

    def __init__(self, k, topology):
        self.k, self.topology = k, topology

    def value(self, w, xi):
        return MLPTask(self.k, self.topology).value(w, xi)

    def gradient(self, w, xi):
        return MLPTask(self.k, self.topology).gradient(w, xi)


@pytest.mark.parametrize("k", range(SHIPPED_MLP["n_tasks"]))
def test_finite_difference_check_keeps_the_bits_and_probes_of_the_loop(k):
    # each head of the shipped MLP at 3 points: the bits of the numpy-scalar
    # loop, as a float, from 2*dim value calls on one probe array that moves
    # one coordinate by +h, then by -h, then restores it
    suite = synthetic_mlp_suite(**SHIPPED_MLP)
    gen = RngStream(k, "data").gen
    base = init_mlp_params(suite, RngStream(k, "init").gen)
    for _ in range(3):
        xi = suite.sample_minibatch(gen)
        w = base + 0.2 * gen.normal(size=suite.dim)
        task = ProbeRecordingTask(suite.tasks[k], w)
        got = finite_difference_check(task, w, xi, h=1e-5)
        assert type(got) is float and got > 0.0
        assert same_bits(got, loop_finite_difference_check(_FreshTask(k, suite.topology), w, xi, 1e-5))
        task.assert_probed(1e-5)


# ------------------------------------------------- the value memo, bit for bit
# MLPTask.value reuses each leading trunk layer whose input and parameters
# have its last call's exact bytes, read through views it binds once per
# array; every value must keep the bits of the memo-free reference.


def _point(shape, seed):
    suite = synthetic_mlp_suite(**shape, batch_size=7, val_size=7)
    w = init_mlp_params(suite, RngStream(seed, "init").gen)
    w += 0.2 * RngStream(seed, "perturb").gen.normal(size=suite.dim)
    return suite, w, suite.sample_minibatch(RngStream(seed, "data").gen)


def _assert_reference_value(task, w, xi):
    x, targets = xi
    expected = _reference_value(task.topology, w, task.index, x, targets[task.index])
    assert bits(task.value(w, xi)) == bits(expected)


@pytest.mark.parametrize("shape", [SHIPPED_MLP, SHAPES[2]])
def test_value_memo_keeps_the_bits_of_every_probe_of_a_point(shape):
    # the probe sequence of finite_difference_check, one probe array moved in
    # place: first-layer probes rerun the trunk, later ones reuse its start
    suite, w, xi = _point(shape, 3)
    for task in suite.tasks:
        probe = w.copy()
        for i, orig in enumerate(w.tolist()):
            for moved in (orig + 1e-5, orig - 1e-5):
                probe[i] = moved
                _assert_reference_value(task, probe, xi)
            probe[i] = orig


def test_value_memo_sees_an_input_rewritten_in_place():
    suite, w, (x, targets) = _point(SHIPPED_MLP, 4)
    task = suite.tasks[1]
    _assert_reference_value(task, w, (x, targets))
    x[...] = RngStream(5, "data").gen.uniform(-1.0, 1.0, size=x.shape)
    _assert_reference_value(task, w, (x, targets))


def test_value_memo_sees_the_same_bytes_in_another_shape_or_dtype():
    suite, w, (x, targets) = _point(SHIPPED_MLP, 4)
    task = suite.tasks[2]
    _assert_reference_value(task, w, (x, targets))
    for _ in range(2):  # the memo-free forward raises on it, each time
        with pytest.raises(ValueError):
            task.value(w, (x.reshape(-1, 1), targets))
    _assert_reference_value(task, w, (x, targets))
    _assert_reference_value(task, w, (x.view(np.int64), targets))
    _assert_reference_value(task, w.view(np.int64), (x, targets))
    _assert_reference_value(task, w, (np.asfortranarray(x), targets))
    w.dtype = np.int64  # in place: the same array, read otherwise
    _assert_reference_value(task, w, (x, targets))
    w.dtype = np.float64
    w.shape = (2, -1)
    for _ in range(2):  # the memo-free forward raises on it, each time
        with pytest.raises(ValueError):
            task.value(w, (x, targets))


def test_value_memo_reuses_exact_bytes_only(monkeypatch):
    # a zero's sign and a NaN's bits: == says -0.0 equals 0.0 and NaN differs
    # from itself, so the memo must compare bytes; a reused layer's activation
    # is the same array as the last call's
    suite, w, xi = _point(SHIPPED_MLP, 6)
    task = suite.tasks[1]
    layer, calls = mlp._layer, []

    def recorded(h, w_mat, b):
        calls.append((h, layer(h, w_mat, b)))
        return calls[-1][1]

    monkeypatch.setattr(mlp, "_layer", recorded)
    w[5] = 0.0
    _assert_reference_value(task, w, xi)
    last = [a for _, a in calls]
    for coordinate, value, reused in [(5, -0.0, 0), (5, -0.0, 2), (5, 0.0, 0), (100, np.nan, 1),
                                      (100, np.nan, 2), (0, np.nan, 0), (0, np.nan, 2)]:
        w[coordinate] = value
        calls.clear()
        _assert_reference_value(task, w, xi)
        assert len(calls) == 2 - reused
        if 0 < reused < 2:
            assert calls[0][0] is last[reused - 1]
        last = last[:reused] + [a for _, a in calls]


def test_value_binds_each_array_it_is_given():
    # views bound to one array read its in-place moves; another array, the
    # first one again, an equal-bytes copy and the rows of one stack (a freed
    # row's id may come back for the next) each get views of their own
    suite, w, xi = _point(SHIPPED_MLP, 11)
    _, v, _ = _point(SHIPPED_MLP, 12)
    task = suite.tasks[2]
    moved = [7, 500, suite.topology.head_slice(2).start]  # a first-layer, a second-layer and a head coordinate
    for point in (w, v, w, None):
        point = w.copy() if point is None else point
        _assert_reference_value(task, point, xi)
        point[moved] += 0.5
        _assert_reference_value(task, point, xi)
    stack = np.stack([w, v, w + 0.25])
    for row in (0, 1, 2, 1, 0):
        _assert_reference_value(task, stack[row], xi)


def test_a_pickled_suite_carries_no_memo():
    # a sweep's pool workers get the loaded RunConfig, with its suite, pickled:
    # a used task pickles as a new one, and its copy reads its own arrays
    suite, w, xi = _point(SHIPPED_MLP, 13)
    fresh = pickle.dumps(suite)
    for task in suite.tasks:
        _assert_reference_value(task, w, xi)
    assert pickle.dumps(suite) == fresh
    copy = pickle.loads(pickle.dumps(suite))
    for task in copy.tasks:
        _assert_reference_value(task, w, xi)
        w[[3, 400]] += 0.5
        _assert_reference_value(task, w, xi)


def test_value_memo_keeps_the_bits_of_nan_parameters():
    suite, w, xi = _point(SHIPPED_MLP, 7)
    task = suite.tasks[0]
    for i in (3, 500, suite.topology.head_slice(0).start):  # each layer in turn
        w[i] = np.nan
        _assert_reference_value(task, w, xi)
        _assert_reference_value(task, w, xi)


def test_value_memo_survives_a_gradient_call():
    # the gradient kernel squares its activations in place: they must never be
    # the memo's
    suite, w, (x, targets) = _point(SHIPPED_MLP, 8)
    task = suite.tasks[3]
    _assert_reference_value(task, w, (x, targets))
    assert same_bits(task.gradient(w, (x, targets)), _reference_gradient(suite.topology, w, 3, x, targets[3]))
    _assert_reference_value(task, w, (x, targets))


def test_tasks_of_one_suite_keep_their_own_memo():
    suite, w, xi = _point(SHIPPED_MLP, 9)
    _, v, zeta = _point(SHIPPED_MLP, 10)
    for task, point, batch in [(0, w, xi), (1, v, zeta), (0, w, xi), (1, w, zeta), (0, v, xi), (1, v, zeta)]:
        _assert_reference_value(suite.tasks[task], point, batch)
