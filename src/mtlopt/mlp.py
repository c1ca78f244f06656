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
    `trunk_size`, the number of trunk parameters, is where the heads start.
    """

    input_dim: int
    hidden: tuple
    n_tasks: int
    layout: tuple = field(init=False, repr=False, compare=False)
    trunk_size: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "trunk_size", layout[len(self.hidden)][0].start)

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
        for w_slice, w_shape, b_slice in self.layout[: len(self.hidden)]:
            activations.append(_layer(activations[-1], w[w_slice].reshape(w_shape), w[b_slice]))
        return activations

    def heads_value(self, w, x, heads):
        """The loss of each (k, y) in `heads`, in turn, from one trunk forward:
        the forward half of heads_value_and_gradient, with the same bits."""
        h = self.forward_trunk(w, x)[-1]
        layout = self.layout[len(self.hidden):]
        losses = []
        for k, y in heads:
            w_slice, w_shape, b_slice = layout[k]
            losses.append(_head_loss(h, w[w_slice].reshape(w_shape), w[b_slice], y))
        return losses

    def heads_value_and_gradient(self, w, x, heads):
        """The loss of each (k, y) in `heads`, in turn, and the sum of their
        gradients, from one trunk forward and one backward shared by the
        heads' distinct tasks.

        Several heads run the backward once, over (H, batch, width) stacks
        with one slice per head in the order of `heads`. Each slice of a
        stacked product makes the BLAS call of one head's own product, on
        operands that start on the same 16-byte boundary, so each head's
        terms have the bits of a backward of its own. Each trunk block of the
        gradient is the first head's term plus each later head's in turn,
        from one reduction over the head axis. One head keeps no head axis:
        its 2-D arrays take its terms straight into the gradient, and its
        head block reads its own views of w, which measured 2-3 µs faster
        than the stack's indexing on the shipped MLP's 42 µs call.
        """
        activations = self.forward_trunk(w, x)
        h_last = activations[-1]
        trunk = self.trunk_size
        grad = np.zeros(w.shape)
        if len(heads) == 1:
            ((k, y),) = heads
            w_slice, w_shape, b_slice = self.layout[len(self.hidden) + k]
            w_heads = w[w_slice].reshape(w_shape)
            r = h_last @ w_heads  # the residual h_last @ W + b - y
            r += w[b_slice]
            r -= y
            losses = [float(np.add.reduce(r * r, axis=None)) / r.size]  # as _head_loss
            r *= 2.0  # the bits of 2.0 * residual / n
            r /= y.shape[0]
            np.matmul(h_last.T, r, out=grad[w_slice].reshape(w_shape))
            np.add.reduce(r, axis=0, out=grad[b_slice])
            terms, pad = grad[:trunk], False
        else:
            ks, ys = zip(*heads)
            rows, pick = _head_rows(ks)
            y = np.array(ys)
            batch = y.shape[-2]
            pad = batch % 2  # a stack's slices may start 8 bytes off 16
            width = h_last.shape[1]
            params = w[trunk:].reshape(self.n_tasks, width + 1)[rows]  # each head's W, then its b
            # the residuals h_last @ W + b - y; each head's product reads its
            # own view of w, as OpenBLAS's Prescott ddot rounds by alignment
            r = h_last @ params[:, :width, None]
            if pick is not None:
                r, params = r[pick], params[pick]
            if pad:
                r = _aligned(r)
            w_heads = params[:, :width, None]
            r += params[:, None, width:]
            r -= y
            losses = [s / batch for s in np.add.reduce(r * r, axis=-2).ravel().tolist()]  # as _head_loss
            r *= 2.0
            r /= batch
            grad_heads = grad[trunk:].reshape(self.n_tasks, width + 1)[rows]
            g_heads = grad_heads if pick is None else np.empty(params.shape)
            np.matmul(h_last.T, r, out=g_heads[:, :width, None])
            np.add.reduce(r, axis=-2, out=g_heads[:, width:])
            if pick is not None:
                grad_heads[pick] = g_heads
            terms = np.empty((len(ks), trunk))
        d = r @ w_heads.swapaxes(-1, -2)  # d_h; a K=1 product, whose zeros are all +0.0
        lead = d.shape[:-2]
        for i in reversed(range(len(self.hidden))):
            if pad:
                d = _aligned(d)
            # the tanh slope 1.0 - a ** 2, once per layer and in place: the
            # activation a = activations[i + 1] is not read again
            a = activations[i + 1]
            a *= a
            np.subtract(1.0, a, out=a)
            d *= a  # d_z = d_h * slope, in place: d_h is not read again
            w_slice, w_shape, b_slice = self.layout[i]
            np.matmul(activations[i].T, d, out=terms[..., w_slice].reshape(lead + w_shape))
            np.add.reduce(d, axis=-2, out=terms[..., b_slice])
            if i:  # the gradient with respect to x is not needed
                d = d @ w[w_slice].reshape(w_shape).T
        if lead:
            # a row of two or more floats keeps the head axis outermost, so
            # numpy adds the rows strictly in turn (a lone column would be
            # summed pairwise); from -0.0, the first row keeps its bits
            np.add.reduce(terms, axis=0, out=grad[:trunk], initial=-0.0)
        return losses, grad


def _head_rows(ks):
    """Where heads ks, two or more, sit in the (n_tasks, width + 1) stack of
    heads, as (rows, pick): the slice from the lowest to the highest and,
    unless they are that slice in order, the index array that picks them
    from it in order."""
    lo, hi = min(ks), max(ks)
    rows = slice(lo, hi + 1)
    return rows, None if ks == tuple(range(lo, hi + 1)) else np.array(ks) - lo


def _aligned(stack):
    """The (H, ...) stack, or a copy of it whose slices each start 16 bytes
    after the last, as a fresh array of one slice starts: OpenBLAS's
    Prescott ddot rounds operands 8 bytes off 16 otherwise."""
    size = stack[0].size
    if size % 2 == 0:
        return stack
    out = np.empty((len(stack), size + 1))[:, :size].reshape(stack.shape)
    out[...] = stack
    return out


def _view(w, entry):
    w_slice, w_shape, b_slice = entry
    return w[w_slice].reshape(w_shape), w[b_slice]


def _layer(h, w_mat, b):
    """A trunk layer's activation, a new array with the bits of
    np.tanh(h @ W + b), without temporaries."""
    h = h @ w_mat
    h += b
    return np.tanh(h, out=h)


def _head_loss(h, w_head, b_head, y):
    """A head's mean squared error on the last activations h, with the bits of
    np.mean((h @ W + b - y) ** 2): np.mean is add.reduce over every entry
    divided by the count, and ** 2 is r * r; the division of a Python float
    rounds as np.float64's does."""
    r = h @ w_head
    r += b_head
    r -= y
    r *= r
    return float(np.add.reduce(r, axis=None)) / r.size


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
    """One task's value and gradient, for finite_difference_check.

    `value` keeps a memo of its last call, so a call recomputes only the trunk
    layers from the first one whose input or parameters changed: a probe that
    moves a head coordinate reruns no trunk layer. The memo compares exact
    bytes (x's, with its dtype, shape and strides, then each trunk layer's W
    and b as one run of w), never values: -0.0 == 0.0 and NaN != NaN. It reads
    w through views bound on the first call with that array, and bound again,
    dropping the memo, only for another array or a dtype or shape set in
    place, since the probe loop moves one array in place. The memo never
    reaches `gradient`, whose kernel writes its activations, and a pickled
    task carries none of it.
    """

    def __init__(self, index: int, topology: MLPTopology):
        self.index = index
        self.topology = topology
        self._w = None

    def __reduce__(self):
        return MLPTask, (self.index, self.topology)

    def _bind(self, w):
        """Views of w: each trunk layer's run, W and b, then this head's W and b."""
        layout = self.topology.layout
        n_trunk = len(self.topology.hidden)
        layers = [(w[entry[0].start:entry[2].stop], *_view(w, entry))  # W and b are one run of w
                  for entry in layout[:n_trunk]]
        self._layers, self._head = layers, _view(w, layout[n_trunk + self.index])
        self._keys = [None] * (n_trunk + 1)  # x's, then each layer's run's
        self._activations = [None] * n_trunk
        self._w, self._dtype, self._shape = w, w.dtype, w.shape

    def value(self, w, xi) -> float:
        x, targets = xi
        if w is not self._w or w.dtype is not self._dtype or w.shape != self._shape:  # either may be set in place
            self._bind(w)
        keys, activations = self._keys, self._activations
        key = (x.dtype, x.shape, x.strides, x.tobytes())
        same = key == keys[0]
        keys[0] = key
        h = x
        try:
            for i, (run, w_mat, b) in enumerate(self._layers):
                key = run.tobytes()
                if same and key == keys[i + 1]:  # the input and every layer so far unchanged
                    h = activations[i]
                else:
                    same = False
                    keys[i + 1] = key
                    h = activations[i] = _layer(h, w_mat, b)
        except BaseException:
            self._w = None  # a layer that raised leaves its key without its activation
            raise
        return _head_loss(h, *self._head, targets[self.index])

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
