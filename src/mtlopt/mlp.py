"""Shared-trunk multi-head regression MLP with manual reverse-mode gradients.

All parameters live in one flat vector: trunk layers first (shared across
tasks), then one single-layer linear head per task. Targets are synthetic
random sinusoid mixtures, with higher-frequency mixtures for later tasks so
the tasks are genuinely heterogeneous. Task loss is per-head mean squared
error.
"""

from dataclasses import dataclass, field

import numpy as np

from .objectives import TaskSuite
from .params import RngStream

__all__ = ["MLPTopology", "MLPTask", "MLPSuite", "synthetic_mlp_suite", "init_mlp_params"]


@dataclass(frozen=True)
class MLPTopology:
    """Trunk widths and head count, plus the flat parameter layout.

    `layout` is computed once, at construction: one (W slice, W shape,
    b slice) entry per layer, trunk layers in order, then one per head.
    """

    input_dim: int
    hidden: tuple
    n_tasks: int
    layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        widths = (self.input_dim, *self.hidden)
        shapes = list(zip(widths, self.hidden)) + [(widths[-1], 1)] * self.n_tasks
        layout, offset = [], 0
        for w_shape in shapes:
            w_stop = offset + w_shape[0] * w_shape[1]
            b_stop = w_stop + w_shape[1]
            layout.append((slice(offset, w_stop), w_shape, slice(w_stop, b_stop)))
            offset = b_stop
        object.__setattr__(self, "layout", tuple(layout))

    @property
    def trunk_size(self) -> int:
        return self.head_slice(0).start

    @property
    def dim(self) -> int:
        return self.layout[-1][2].stop

    def head_slice(self, k: int) -> slice:
        w_slice, _, b_slice = self.layout[len(self.hidden) + k]
        return slice(w_slice.start, b_slice.stop)

    def unpack(self, w: np.ndarray):
        """Views into w: list of trunk (W, b), list of head (W, b)."""
        parts = [_view(w, entry) for entry in self.layout]
        n_trunk = len(self.hidden)
        return parts[:n_trunk], parts[n_trunk:]

    def forward_trunk(self, w: np.ndarray, x: np.ndarray):
        """Activations of every trunk layer, input first, each layer's W and b
        read from the flat parameter vector w through `layout`. Each layer's
        activation is a new array; neither w nor x is written."""
        activations = [x]
        h = x
        for w_slice, w_shape, b_slice in self.layout[: len(self.hidden)]:
            h = h @ w[w_slice].reshape(w_shape)  # the bits of np.tanh(h @ W + b), without temporaries
            h += w[b_slice]
            np.tanh(h, out=h)
            activations.append(h)
        return activations

    def heads_value(self, w, x, heads):
        """The loss of each (k, y) in `heads`, in turn, from one trunk forward:
        the forward half of heads_value_and_gradient, with the same bits.

        Each loss is the mean squared error of head k on the last activations,
        with the bits of np.mean((h @ W_k + b_k - y) ** 2): np.mean is
        add.reduce over every entry divided by the count, and ** 2 is r * r;
        the division of a Python float rounds as np.float64's does.
        """
        h = self.forward_trunk(w, x)[-1]
        n_trunk = len(self.hidden)
        losses = []
        for k, y in heads:
            w_slice, w_shape, b_slice = self.layout[n_trunk + k]
            r = h @ w[w_slice].reshape(w_shape)
            r += w[b_slice]
            r -= y
            r *= r
            losses.append(float(np.add.reduce(r, axis=None)) / r.size)
        return losses

    def heads_value_and_gradient(self, w, x, heads):
        """The loss of each (k, y) in `heads`, in turn, and the sum of their
        gradients, from one trunk forward shared by the heads' distinct tasks.

        Each head backpropagates on its own, layer by layer, with the bits of
        a backward of its own: the first head writes each trunk block of the
        gradient through out=, and each later head adds its term in turn.
        """
        n_trunk = len(self.hidden)
        activations = self.forward_trunk(w, x)
        h_last = activations[-1]

        grad = np.zeros(w.shape)
        losses, d_hs = [], []
        for k, y in heads:
            w_head, b_head = _view(w, self.layout[n_trunk + k])
            g_w_head, g_b_head = _view(grad, self.layout[n_trunk + k])
            d_pred = h_last @ w_head  # the residual h_last @ w_head + b_head - y
            d_pred += b_head
            d_pred -= y
            losses.append(float(np.add.reduce(d_pred * d_pred, axis=None)) / d_pred.size)  # as heads_value
            d_pred *= 2.0  # the bits of 2.0 * residual / n
            d_pred /= y.shape[0]
            np.matmul(h_last.T, d_pred, out=g_w_head)
            d_pred.sum(axis=0, out=g_b_head)
            d_hs.append(d_pred @ w_head.T)
        for i in reversed(range(n_trunk)):
            # the tanh slope 1.0 - a ** 2, once per layer and in place: the
            # activation a = activations[i + 1] is not read again
            a = activations[i + 1]
            a *= a
            np.subtract(1.0, a, out=a)
            g_w, g_b = _view(grad, self.layout[i])
            w_t = _view(w, self.layout[i])[0].T if i else None  # the gradient with respect to x is not needed
            for j, d_z in enumerate(d_hs):
                d_z *= a  # d_z = d_h * slope, in place: d_h is not read again
                if j:
                    g_w += activations[i].T @ d_z
                    g_b += d_z.sum(axis=0)
                else:
                    np.matmul(activations[i].T, d_z, out=g_w)
                    d_z.sum(axis=0, out=g_b)
                if i:
                    d_hs[j] = d_z @ w_t
        return losses, grad


def _view(w, entry):
    w_slice, w_shape, b_slice = entry
    return w[w_slice].reshape(w_shape), w[b_slice]


class _SinusoidTarget:
    """Smooth random function: amplitude-weighted mixture of sinusoids."""

    def __init__(self, input_dim, n_terms, freq_scale, gen):
        self.freqs = gen.normal(0.0, freq_scale, size=(n_terms, input_dim))
        self.phases = gen.uniform(0.0, 2.0 * np.pi, size=n_terms)
        amps = gen.uniform(0.5, 1.0, size=n_terms)
        self.amps = amps / np.sqrt(n_terms)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (np.sin(x @ self.freqs.T + self.phases) @ self.amps)[..., None]


class MLPTask:
    """One task's value and gradient, for finite_difference_check."""

    def __init__(self, index: int, topology: MLPTopology):
        self.index = index
        self.topology = topology

    def value(self, w, xi) -> float:
        x, targets = xi
        return self.topology.heads_value(w, x, ((self.index, targets[self.index]),))[0]

    def gradient(self, w, xi) -> np.ndarray:
        x, targets = xi
        return self.topology.heads_value_and_gradient(w, x, [(self.index, targets[self.index])])[1]


class MLPSuite(TaskSuite):
    def __init__(self, topology: MLPTopology, targets, batch_size: int, val_inputs: np.ndarray):
        super().__init__([MLPTask(k, topology) for k in range(topology.n_tasks)])
        self.topology = topology
        self.targets = targets
        self.batch_size = batch_size
        self.val_inputs = val_inputs
        self.val_targets = [f(val_inputs) for f in targets]
        self.shared_mask = np.zeros(topology.dim, dtype=bool)
        self.shared_mask[: topology.trunk_size] = True

    @property
    def dim(self) -> int:
        return self.topology.dim

    def unit_mask(self, unit) -> np.ndarray:
        """The trunk plus the unit's heads."""
        mask = self.shared_mask.copy()
        for k in unit:
            mask[self.topology.head_slice(k)] = True
        return mask

    def unit_value_and_gradient(self, w: np.ndarray, unit, xi) -> tuple:
        """The per-task loop's sums from one trunk forward per unit: each task's
        value added to 0 in unit order, and its gradient's terms added in unit
        order, then to zeros."""
        x, targets = xi
        values, g = self.topology.heads_value_and_gradient(w, x, [(k, targets[k]) for k in unit])
        loss = 0
        for value in values:  # not sum(), which compensates since Python 3.12
            loss += value
        g += 0.0  # the signed zeros of zeros plus each task's gradient
        return loss, g

    def sample_minibatch(self, gen: np.random.Generator) -> tuple:
        """(x, targets): the inputs and a list of each task's targets for them."""
        return self.sample_minibatches(gen, 1)[0]

    def sample_minibatches(self, gen: np.random.Generator, count: int) -> list:
        # the Generator fills values in order, so one (count, batch, input_dim)
        # draw holds count draws of one minibatch's inputs; each target's
        # stacked matmuls make the BLAS call of one minibatch per minibatch
        x = gen.uniform(-1.0, 1.0, size=(count, self.batch_size, self.topology.input_dim))
        ys = [f(x) for f in self.targets]
        return [(x[i], [y[i] for y in ys]) for i in range(count)]

    def validation_task_losses(self, w: np.ndarray) -> np.ndarray:
        # each w along the leading axes in turn; a single w is a stack of one
        rows = [self.topology.heads_value(x, self.val_inputs, enumerate(self.val_targets))
                for x in w.reshape(-1, w.shape[-1])]
        return np.array(rows).reshape(*w.shape[:-1], self.n_tasks)


def synthetic_mlp_suite(
    n_tasks: int = 4,
    input_dim: int = 2,
    hidden=(32, 32),
    batch_size: int = 32,
    dataset_seed: int = 7,
    target_terms: int = 3,
    val_size: int = 128,
) -> MLPSuite:
    """Build the synthetic heterogeneous regression suite.

    Task k's target uses frequency scale 1 + 0.8k, so later tasks demand
    progressively sharper functions of the same inputs.
    """
    topology = MLPTopology(input_dim=input_dim, hidden=tuple(hidden), n_tasks=n_tasks)
    target_gen = RngStream(dataset_seed, "targets").gen
    targets = [
        _SinusoidTarget(input_dim, target_terms, 1.0 + 0.8 * k, target_gen)
        for k in range(n_tasks)
    ]
    val_inputs = RngStream(dataset_seed, "validation").gen.uniform(
        -1.0, 1.0, size=(val_size, input_dim)
    )
    return MLPSuite(topology, targets, batch_size, val_inputs)


def init_mlp_params(suite: MLPSuite, gen: np.random.Generator) -> np.ndarray:
    """Scaled-normal weights, zero biases, packed flat."""
    w = np.zeros(suite.dim)
    trunk, heads = suite.topology.unpack(w)
    for w_mat, _ in trunk + heads:
        fan_in = w_mat.shape[0]
        w_mat[...] = gen.normal(0.0, 1.0 / np.sqrt(fan_in), size=w_mat.shape)
    return w
