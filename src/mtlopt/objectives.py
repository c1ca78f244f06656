"""Stochastic task objectives behind one value/gradient oracle interface.

A task exposes a stochastic value and gradient under a sampled minibatch, and
optionally noise-free exact evaluations. Quadratic tasks have closed-form
curvature constants, which is what makes them usable for numerical
verification of the convergence bound.
"""

from dataclasses import dataclass
from typing import Any

import numpy as np

from .params import DimensionMismatchError, as_params
from .params import RngStream

__all__ = [
    "Minibatch",
    "TaskObjective",
    "QuadraticTask",
    "TaskSuite",
    "QuadraticSuite",
    "SuiteConstants",
    "finite_difference_check",
    "suite_constants",
    "two_task_suite",
    "five_task_suite",
]


@dataclass(frozen=True)
class Minibatch:
    """One sampled data instance, opaque to callers.

    Reusable: evaluating any task twice on the same (w, minibatch) yields
    identical results; all randomness is materialized at sampling time.
    """

    payload: Any


class TaskObjective:
    """Value + gradient oracle for one task under a sampled minibatch.

    Subclasses set `index` (position in the suite) and implement value() and
    gradient(); exact_value()/exact_gradient() are optional noise-free
    counterparts.
    """

    index: int = 0

    def value(self, w: np.ndarray, xi: Minibatch) -> float:
        raise NotImplementedError

    def gradient(self, w: np.ndarray, xi: Minibatch) -> np.ndarray:
        raise NotImplementedError

    def exact_value(self, w: np.ndarray) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no noise-free value")

    def exact_gradient(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no noise-free gradient")


class QuadraticTask(TaskObjective):
    """0.5 (w-a)^T A (w-a) with additive bounded-support gradient noise.

    The stochastic gradient is A(w-a) + zeta with zeta per-coordinate uniform
    on [-b, b], b chosen so E||zeta||^2 = noise_sigma^2. Bounded support keeps
    the squared-norm gradient bound satisfiable on a bounded region, unlike
    Gaussian noise. The stochastic value adds zeta.(w-a) so that the value and
    gradient oracles stay consistent under finite differencing at fixed noise.
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
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self.noise_sigma = float(noise_sigma)
        # per-coordinate half-width so E||zeta||^2 == sigma^2
        self.noise_halfwidth = noise_sigma * np.sqrt(3.0 / d)

    @property
    def dim(self) -> int:
        return self.center.size

    def _noise(self, xi: Minibatch) -> np.ndarray:
        return xi.payload[self.index]

    def value(self, w: np.ndarray, xi: Minibatch) -> float:
        r = w - self.center
        return float(0.5 * r @ (self.matrix @ r) + self._noise(xi) @ r)

    def gradient(self, w: np.ndarray, xi: Minibatch) -> np.ndarray:
        return self.matrix @ (w - self.center) + self._noise(xi)

    def exact_value(self, w: np.ndarray) -> float:
        r = w - self.center
        return float(0.5 * r @ (self.matrix @ r))

    def exact_gradient(self, w: np.ndarray) -> np.ndarray:
        return self.matrix @ (w - self.center)


class TaskSuite:
    """A list of tasks over one shared parameter space, uniform unit weights.

    Subclasses define minibatch sampling and, when supported, noise-free
    per-task validation losses. `shared_mask`/`task_mask` describe which
    coordinates are shared across tasks and which ones a given task's update
    may touch (None means all of them).
    """

    def __init__(self, tasks):
        if len(tasks) < 1:
            raise ValueError("suite must contain at least one task")
        self.tasks = list(tasks)
        self._unit_masks = {}

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def dim(self) -> int:
        raise NotImplementedError

    shared_mask: np.ndarray | None = None

    def task_mask(self, k: int) -> np.ndarray | None:
        return None

    def unit_mask(self, indices) -> np.ndarray | None:
        """Union of the member tasks' update masks; None when unrestricted.

        Task masks are fixed per suite, so each union is built once per unit
        and returned read-only.
        """
        key = tuple(indices)
        if key not in self._unit_masks:
            masks = [self.task_mask(k) for k in key]
            out = None
            if any(m is not None for m in masks):
                out = np.zeros(self.dim, dtype=bool)
                for m in masks:
                    out |= np.ones(self.dim, dtype=bool) if m is None else m
                out.flags.writeable = False
            self._unit_masks[key] = out
        return self._unit_masks[key]

    def sample_minibatch(self, gen: np.random.Generator) -> Minibatch:
        raise NotImplementedError

    def validation_task_losses(self, w: np.ndarray) -> np.ndarray | None:
        return None


# Stacked matmuls over the task axis (and any leading axes). Each runs every
# product through the same kernel as one task's `matrix @ r` or `r @ r`, so it
# reproduces the numbers of a per-task loop bit for bit; einsum sums in
# another order.
def _matvec(mats, vecs):
    return (mats @ vecs[..., None])[..., 0]


def _dot(a, b):
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


class QuadraticSuite(TaskSuite):
    """Quadratic tasks of one dimension d. The curvature matrices and centers
    are stacked once, read-only, as `matrices` (n, d, d) and `centers` (n, d).
    """

    def __init__(self, tasks):
        super().__init__(tasks)
        dims = {t.dim for t in self.tasks}
        if len(dims) != 1:
            raise DimensionMismatchError(f"tasks disagree on dimension: {sorted(dims)}")
        self._dim = dims.pop()
        self._halfwidths = np.array([t.noise_halfwidth for t in self.tasks])[:, None]
        self.matrices = np.stack([t.matrix for t in self.tasks])
        self.centers = np.stack([t.center for t in self.tasks])
        self.matrices.flags.writeable = False
        self.centers.flags.writeable = False

    @property
    def dim(self) -> int:
        return self._dim

    def sample_minibatch(self, gen: np.random.Generator) -> Minibatch:
        # one draw per step regardless of how many tasks get evaluated
        u = gen.uniform(-1.0, 1.0, size=(self.n_tasks, self._dim))
        return Minibatch(payload=u * self._halfwidths)

    def validation_task_losses(self, w: np.ndarray) -> np.ndarray:
        # every task's exact_value, (0.5*r) @ (A @ r), in one stacked pass;
        # their mean is the validation loss
        r = w - self.centers
        return _dot(0.5 * r, _matvec(self.matrices, r))


def finite_difference_check(task: TaskObjective, w: np.ndarray, xi: Minibatch, h: float = 1e-5) -> float:
    """Max per-coordinate relative error of the gradient vs central differences.

    The same fixed minibatch is used for every probe. Relative error per
    coordinate is |analytic - fd| / max(1, |analytic|).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    analytic = task.gradient(w, xi)
    worst = 0.0
    probe = w.astype(np.float64, copy=True)
    for i in range(w.size):
        orig = probe[i]
        probe[i] = orig + h
        f_plus = task.value(probe, xi)
        probe[i] = orig - h
        f_minus = task.value(probe, xi)
        probe[i] = orig
        diff = (f_plus - f_minus) / (2.0 * h)
        if not np.isfinite(diff):
            raise FloatingPointError("central difference underflowed or overflowed")
        err = abs(analytic[i] - diff) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
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
    mats = [t.matrix for t in suite.tasks]
    eig_max, eig_min = [], []
    for t in suite.tasks:
        eigs = np.linalg.eigvalsh(t.matrix)
        if eigs[0] <= 0:
            raise ValueError(f"task {t.index}: curvature matrix is not positive definite")
        eig_min.append(eigs[0])
        eig_max.append(eigs[-1])
    a_sum = sum(mats)
    rhs = sum(t.matrix @ t.center for t in suite.tasks)
    w_star = np.linalg.solve(a_sum, rhs)
    f_star = float(np.mean([t.exact_value(w_star) for t in suite.tasks]))
    # per-task minima are all exactly 0, so heterogeneity equals f_star
    return SuiteConstants(
        smoothness=float(max(eig_max)),
        strong_convexity=float(min(eig_min)),
        sigmas=tuple(t.noise_sigma for t in suite.tasks),
        gamma_het=f_star,
        w_star=w_star,
        f_star=f_star,
    )


def two_task_suite(noise_sigma: float = 0.5) -> QuadraticSuite:
    """The shipped 1-D pair 0.5*w^2 and 0.5*(w-2)^2 with equal noise."""
    return QuadraticSuite(
        [
            QuadraticTask(0, [[1.0]], [0.0], noise_sigma),
            QuadraticTask(1, [[1.0]], [2.0], noise_sigma),
        ]
    )


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
