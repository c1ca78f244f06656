"""Task suites behind one unit-level oracle: the summed stochastic value and
gradient of a unit of tasks under a sampled minibatch.

Quadratic suites also have noise-free validation losses and closed-form
curvature constants, which is what makes them usable for numerical
verification of the convergence bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .params import DimensionMismatchError, RngStream, as_params

__all__ = [
    "QuadraticTask",
    "TaskSuite",
    "QuadraticSuite",
    "SuiteConstants",
    "finite_difference_check",
    "suite_constants",
    "two_task_suite",
    "five_task_suite",
]


class QuadraticTask:
    """0.5 (w-a)^T A (w-a) with additive bounded-support gradient noise.

    The stochastic gradient is A(w-a) + zeta with zeta per-coordinate uniform
    on [-b, b], b chosen so E||zeta||^2 = noise_sigma^2. Bounded support keeps
    the squared-norm gradient bound satisfiable on a bounded region, unlike
    Gaussian noise. The stochastic value adds zeta.(w-a) so that the value and
    gradient oracles stay consistent under finite differencing at fixed noise.
    zeta is row `index` of the suite's (n_tasks, d) noise draw xi, and a
    suite holds task k at position k. A task whose half-width b is not finite
    (noise_sigma = inf, or a finite sigma where sqrt(3/d) > 1 overflows it)
    is rejected with a ValueError.

    The suite stacks these records; value() and gradient() are the one-task
    oracle that finite_difference_check probes.
    """

    def __init__(self, index: int, matrix, center, noise_sigma: float = 0.0):
        self.index = int(index)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.center = as_params(center)
        d = self.center.size
        if self.matrix.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {self.matrix.shape} incompatible with center dim {d}"
            )
        if not np.allclose(self.matrix, self.matrix.T):
            raise ValueError(f"task {index}: curvature matrix must be symmetric")
        if not noise_sigma >= 0:  # NaN fails every comparison
            raise ValueError("noise_sigma must be >= 0")
        self.noise_sigma = float(noise_sigma)
        # per-coordinate half-width so E||zeta||^2 == sigma^2
        self.noise_halfwidth = self.noise_sigma * math.sqrt(3.0 / d)
        if not math.isfinite(self.noise_halfwidth):
            raise ValueError(f"task {index}: noise half-width noise_sigma * sqrt(3 / d) is not finite")

    def value(self, w: np.ndarray, xi) -> float:
        r = w - self.center
        return float(0.5 * r @ (self.matrix @ r) + xi[self.index] @ r)

    def gradient(self, w: np.ndarray, xi) -> np.ndarray:
        return self.matrix @ (w - self.center) + xi[self.index]


class TaskSuite:
    """Tasks over one shared parameter space, reached a unit at a time.

    A subclass implements `dim`, the unit oracle, minibatch sampling and, when
    supported, noise-free per-task validation losses. `shared_mask` marks the
    coordinates shared across tasks and `unit_mask(unit)` the ones a unit's
    update may touch (None means all of them).
    """

    def __init__(self, tasks):
        if len(tasks) < 1:
            raise ValueError("suite must contain at least one task")
        self.tasks = list(tasks)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    shared_mask: np.ndarray | None = None

    def unit_mask(self, unit) -> np.ndarray | None:
        return None

    def unit_value_and_gradient(self, w: np.ndarray, unit, xi) -> tuple:
        """The unit's summed value and gradient at (w, xi): the bits of adding
        each task's value to 0 and its gradient to zeros, in unit order."""
        raise NotImplementedError

    def sample_minibatch(self, gen: np.random.Generator):
        """One minibatch, in the layout the suite's tasks read. All randomness
        is drawn here, so two evaluations on the same (w, xi) agree."""
        raise NotImplementedError

    def sample_minibatches(self, gen: np.random.Generator, count: int):
        """`count` minibatches with the bits of `count` sample_minibatch calls,
        here one call each. A subclass whose draws stack overrides this to draw
        them in one call; QuadraticSuite and MLPSuite do."""
        return [self.sample_minibatch(gen) for _ in range(count)]

    def validation_task_losses(self, w: np.ndarray) -> np.ndarray | None:
        """Every task's noise-free loss at each w along the leading axes of a
        (..., d) array, as a (..., n) array; their mean is the validation loss."""
        return None


# Stacked matmuls over the task axis (and any leading axes). Each runs every
# product through the same kernel as one task's `matrix @ r` or `r @ r` on
# OpenBLAS's SkylakeX kernels, and there reproduces the numbers of a per-task
# loop bit for bit; under OPENBLAS_CORETYPE=Prescott a stacked product was
# seen 1 ulp off. einsum sums in another order.
def _matvec(mats, vecs):
    return (mats @ vecs[..., None])[..., 0]


def _dot(a, b):
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


# 0-d float64 operands for the hot paths: a ufunc call with a Python-float
# operand costs about 0.2 µs more on numpy 2.4, for the same bits
_HALF, _ZERO = np.array(0.5), np.array(0.0)
_HALF.flags.writeable = _ZERO.flags.writeable = False


class QuadraticSuite(TaskSuite):
    """Quadratic tasks of one dimension d. The curvature matrices and centers
    are stacked once, read-only, as `matrices` (n, d, d) and `centers` (n, d).
    Task k must have index k: every oracle reads its noise from row k of xi.

    The tasks are fixed after construction: the stacks, and the per-unit
    stacks `unit_value_and_gradient` builds from them, never see a task that
    is replaced or changed later.
    """

    def __init__(self, tasks):
        super().__init__(tasks)
        for k, t in enumerate(self.tasks):
            if t.index != k:
                raise ValueError(f"task at position {k} has index {t.index}; task k must have index k")
        dims = {t.center.size for t in self.tasks}
        if len(dims) != 1:
            raise DimensionMismatchError(f"tasks disagree on dimension: {sorted(dims)}")
        self._dim = dims.pop()
        # each task's half-width repeated along its row: scaling a draw by a
        # same-shape grid skips a broadcast and multiplies the same pairs
        self._noise_shape = (self.n_tasks, self._dim)
        self._halfwidths = np.repeat([[t.noise_halfwidth] for t in self.tasks], self._dim, axis=1)
        # and doubled, exactly, where every 2h is finite (h <= DBL_MAX/2)
        fits = (self._halfwidths <= np.finfo(np.float64).max / 2).all()
        self._doubled_halfwidths = self._halfwidths * 2.0 if fits else None
        self.matrices = np.stack([t.matrix for t in self.tasks])
        self.centers = np.stack([t.center for t in self.tasks])
        self.matrices.flags.writeable = False
        self.centers.flags.writeable = False
        # each task's (matrix, center) rows of the stacks, read-only views
        # that the one-task oracle reads without indexing the stacks per call
        self._task_rows = list(zip(self.matrices, self.centers))
        self._unit_stacks = {}

    @property
    def dim(self) -> int:
        return self._dim

    def _noise(self, gen: np.random.Generator, shape) -> np.ndarray:
        """Noise of `shape` (..., n, d) with the bits of
        gen.uniform(-1.0, 1.0, shape) times each task's half-width h, and the
        same advance of gen. random() gives r = k*2**-53 where uniform gives
        -1 + 2r, so r - 0.5 and its double are exact and equal that uniform
        value; times h, both round the same real number once. A grid of 2h
        saves the doubling's ufunc call, a tenth of a per-step verify pass;
        where some 2h overflows (h > DBL_MAX/2), u is doubled instead."""
        u = gen.random(shape)
        u -= _HALF
        if self._doubled_halfwidths is None:
            u += u
            u *= self._halfwidths
        else:
            u *= self._doubled_halfwidths
        return u

    def sample_minibatch(self, gen: np.random.Generator) -> np.ndarray:
        """One (n, d) draw per step, however many tasks get evaluated: task
        k's row uniform on [-h, h] for its half-width h (see _noise)."""
        return self._noise(gen, self._noise_shape)

    def sample_minibatches(self, gen: np.random.Generator, count: int) -> np.ndarray:
        # the Generator fills values in order, so one (count, n, d) draw holds
        # count draws of sample_minibatch, and the scaling multiplies the same pairs
        return self._noise(gen, (count, *self._noise_shape))

    def validation_task_losses(self, w: np.ndarray) -> np.ndarray:
        # every task's noise-free value (0.5*r) @ (A @ r) in one stacked pass
        r = w[..., None, :] - self.centers
        return _dot(0.5 * r, _matvec(self.matrices, r))

    def task_gradients(self, W: np.ndarray, xi: np.ndarray) -> np.ndarray:
        # every task's stochastic gradient at each row of W (R, d) under that
        # row's draw xi (R, n, d), as an (R, n, d) array
        return _matvec(self.matrices, W[:, None, :] - self.centers) + xi

    def unit_value_and_gradient(self, w: np.ndarray, unit, xi) -> tuple:
        # The bits of the per-task loop, every zero's sign included: `0 +`,
        # `0.0 +` and `_ZERO +` play the loop's zero starts, and the tasks are
        # summed in unit order. np.add.accumulate adds rows strictly in turn;
        # np.add.reduce may add pairwise, and sum() of floats compensates
        # since Python 3.12.
        if len(unit) == 1:
            # the stacks' rows are the tasks' arrays, and ndarray.dot runs the
            # BLAS routines of `@` with less dispatch
            k = unit[0]
            matrix, center = self._task_rows[k]
            r = w - center
            ar = matrix.dot(r)
            noise = xi[k]
            g = ar + noise
            g += _ZERO
            return 0.0 + float((_HALF * r).dot(ar) + noise.dot(r)), g
        key = tuple(unit)
        if key not in self._unit_stacks:
            rows = np.array(key)  # an index array spares xi[rows] converting a list per call
            self._unit_stacks[key] = (self.matrices[rows], self.centers[rows], rows)
        mats, centers, rows = self._unit_stacks[key]
        r = w - centers
        ar = _matvec(mats, r)
        noise = xi[rows]
        loss = 0
        for val in (_dot(_HALF * r, ar) + _dot(noise, r)).tolist():
            loss += val
        return loss, _ZERO + np.add.accumulate(ar + noise, axis=0)[-1]


def finite_difference_check(task, w: np.ndarray, xi, h: float = 1e-5) -> float:
    """Max per-coordinate relative error of a task's gradient(w, xi) against
    central differences of its value(w, xi).

    The same fixed minibatch is used for every probe. Each probe is one
    `task.value` call on one probe array with one coordinate moved by +h or
    -h, and then restored: 2*dim calls per point, the count the benchmark
    tracer pins. Relative error per coordinate is
    |analytic - fd| / max(1, |analytic|), worked on Python floats, which give
    the bits of the same arithmetic on numpy scalars.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    analytic = task.gradient(w, xi).tolist()
    probe = w.astype(np.float64, copy=True)
    two_h = 2.0 * h
    worst = 0.0
    for i, (orig, a) in enumerate(zip(probe.tolist(), analytic, strict=True)):
        probe[i] = orig + h
        f_plus = task.value(probe, xi)
        probe[i] = orig - h
        f_minus = task.value(probe, xi)
        probe[i] = orig
        diff = (f_plus - f_minus) / two_h
        if not math.isfinite(diff):
            raise FloatingPointError("central difference underflowed or overflowed")
        worst = max(worst, abs(a - diff) / max(1.0, abs(a)))
    return worst


@dataclass(frozen=True)
class SuiteConstants:
    """Curvature and heterogeneity constants of a quadratic suite.

    smoothness: largest curvature eigenvalue over tasks; strong_convexity:
    smallest. w_star minimizes the uniform-average objective, f_star is its
    value there, and gamma_het = f_star - mean of per-task minima (each 0 for
    centered quadratics).
    """

    smoothness: float
    strong_convexity: float
    sigmas: tuple
    gamma_het: float
    w_star: np.ndarray
    f_star: float


def suite_constants(suite: QuadraticSuite) -> SuiteConstants:
    eigs = np.linalg.eigvalsh(suite.matrices)  # (n, d), ascending per task
    bad = np.flatnonzero(eigs[:, 0] <= 0)
    if bad.size:
        raise ValueError(f"task {bad[0]}: curvature matrix is not positive definite")
    # the bits of sum() over the tasks: rows added in turn, from a zero start
    a_sum = 0.0 + np.add.accumulate(suite.matrices)[-1]
    rhs = 0.0 + np.add.accumulate(_matvec(suite.matrices, suite.centers))[-1]
    w_star = np.linalg.solve(a_sum, rhs)
    f_star = float(suite.validation_task_losses(w_star).mean())
    # per-task minima are all exactly 0, so heterogeneity equals f_star
    return SuiteConstants(
        smoothness=float(eigs[:, -1].max()),
        strong_convexity=float(eigs[:, 0].min()),
        sigmas=tuple(t.noise_sigma for t in suite.tasks),
        gamma_het=f_star,
        w_star=w_star,
        f_star=f_star,
    )


def two_task_suite(noise_sigma: float = 0.5) -> QuadraticSuite:
    """The shipped 1-D pair 0.5*w^2 and 0.5*(w-2)^2 with equal noise."""
    return QuadraticSuite([QuadraticTask(k, [[1.0]], [2.0 * k], noise_sigma) for k in range(2)])


def five_task_suite(seed: int = 7) -> QuadraticSuite:
    """The shipped heterogeneous 5-task, 3-D suite (deterministic given seed)."""
    gen = RngStream(seed, "suite").gen
    tasks = []
    for k in range(5):
        q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        lam = gen.uniform(1.0, 3.0, size=3)
        a_mat = q @ np.diag(lam) @ q.T
        a_mat = 0.5 * (a_mat + a_mat.T)
        center = gen.uniform(-1.5, 1.5, size=3)
        tasks.append(QuadraticTask(k, a_mat, center, noise_sigma=0.3 + 0.1 * k))
    return QuadraticSuite(tasks)
