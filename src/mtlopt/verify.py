"""Monte-Carlo verification of the convex-case convergence bound and its two
supporting per-step inequalities, on quadratic suites.

The verified regime is the single-task-selection form of the alternating
scheme: at each step every task's candidate SGD update is available, one task
is selected uniformly at random, and the iterate follows that task's update.
The initial iterate is indexed 1, so the expected optimality gap "at T" is
measured after T-1 update steps.

Each pass steps all its R replicates in lockstep, with array ops over an (R, d)
array of iterates. Replicate r draws from its own streams, data[r] and
task-order[r], so every number equals that of the replicate stepped alone.

Statistical policy: the bound is an upper bound in expectation, so a check
passes when the Monte-Carlo estimate does not exceed it by more than three
standard errors. The uniform gradient-norm bound has no closed form for
quadratics on an unbounded domain, so it is estimated empirically: a pre-run
on the same seeds and schedule records the largest stochastic gradient norm
seen over all (task, step, replicate) triples, inflated by a 5% safety factor.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .objectives import QuadraticSuite, _dot, _matvec, suite_constants
from .params import RngStream, check_finite, l2_norm
from .schemes import theorem_schedule

__all__ = [
    "ScheduleError",
    "BoundInputs",
    "theorem_bound",
    "theorem_bound_max_form",
    "estimate_grad_bound",
    "verify_theorem",
    "verify_lemma1",
    "verify_lemma2",
    "fit_rate",
]

B_FORM_NOTE = (
    "noise term uses sum(sigma_k^2)/N^2, which equals sum(p_k^2 sigma_k^2) "
    "for uniform selection probability p_k = 1/N"
)


class ScheduleError(ValueError):
    """Learning-rate schedule violates a precondition of the check."""


@dataclass(frozen=True)
class BoundInputs:
    """Constants entering the convergence bound."""

    smoothness: float  # largest curvature eigenvalue over tasks
    strong_convexity: float  # smallest curvature eigenvalue over tasks
    sigmas: tuple  # per-task gradient-noise scales
    grad_bound: float  # uniform bound on stochastic gradient norms
    gamma_het: float  # heterogeneity: average task loss at the joint optimum
    offset: float  # schedule offset, >= 2L/mu - 1
    w1_dist_sq: float  # squared distance from the initial iterate to the optimum
    n_tasks: int

    def __post_init__(self):
        if not self.strong_convexity > 0:
            raise ValueError("strong_convexity must be positive")
        if self.smoothness < self.strong_convexity:
            raise ValueError("smoothness must be >= strong_convexity")
        min_offset = 2.0 * self.smoothness / self.strong_convexity - 1.0
        if self.offset < min_offset - 1e-12:
            raise ValueError(f"offset must be >= {min_offset}, got {self.offset}")
        if min(self.grad_bound, self.gamma_het, self.w1_dist_sq, *self.sigmas, 0.0) < 0:
            raise ValueError("sigmas, grad_bound, gamma_het, w1_dist_sq must be nonnegative")

    @property
    def noise_total(self) -> float:
        """B: averaged noise variance + heterogeneity + squared norm bound."""
        return (
            float(np.sum(np.square(self.sigmas))) / self.n_tasks**2
            + 2.0 * self.smoothness * self.gamma_het
            + self.grad_bound**2
        )


def theorem_bound(inputs: BoundInputs, t: int) -> float:
    """Upper bound on the expected average-objective gap at iterate t."""
    lead = inputs.smoothness / (inputs.offset + t)
    return lead * (
        2.0 * inputs.noise_total / inputs.strong_convexity**2
        + 0.5 * (inputs.offset + 1.0) * inputs.w1_dist_sq
    )


def theorem_bound_max_form(inputs: BoundInputs, t: int) -> float:
    """Tighter max-form variant from the induction; logged alongside."""
    v = max(
        4.0 * inputs.noise_total / inputs.strong_convexity**2,
        (inputs.offset + 1.0) * inputs.w1_dist_sq,
    )
    return 0.5 * inputs.smoothness * v / (inputs.offset + t)


def _norms(x):  # np.linalg.norm of every vector along the last axis
    return np.sqrt(_dot(x, x))


def _max_grad_norm(G) -> float:
    check_finite(G, "stochastic gradients")
    return float(_norms(G).max())


def _lockstep(suite, schedule, w0, n_steps, replicates, seed, eta_scale=1.0):
    """Yield (t, eta, W, G, sel) for t = 1..n_steps: the iterates W (R, d)
    before the update, every task's stochastic gradient there G (R, n, d) and
    the selected tasks sel (R,). Replicate r's noise is one sample_minibatch
    call per step on its stream data[r]."""
    n = suite.n_tasks
    data = [RngStream(seed, f"data[{r}]").gen for r in range(replicates)]
    # one bulk draw yields the same values as n_steps draws of integers(n)
    order = np.array([RngStream(seed, f"task-order[{r}]").gen.integers(n, size=n_steps)
                      for r in range(replicates)])
    rows = np.arange(replicates)
    W = np.tile(np.asarray(w0, dtype=np.float64), (replicates, 1))
    for t in range(1, n_steps + 1):
        eta = eta_scale * schedule.at(t)
        noise = np.stack([suite.sample_minibatch(gen).payload for gen in data])
        G = _matvec(suite.matrices, W[:, None, :] - suite.centers) + noise
        sel = order[:, t - 1]
        yield t, eta, W, G, sel
        W = W - eta * G[rows, sel]


def estimate_grad_bound(
    suite, schedule, n_steps, replicates, seed, w0, eta_scale=1.0, safety=1.05
) -> float:
    """Empirical uniform gradient-norm bound from a pre-run on the same seeds."""
    worst = 0.0
    for _, _, _, G, _ in _lockstep(suite, schedule, w0, n_steps, replicates, seed, eta_scale):
        worst = max(worst, _max_grad_norm(G))
    return worst * safety


def verify_theorem(
    suite: QuadraticSuite,
    T_list,
    replicates: int,
    seed: int,
    w0,
    eta_scale: float = 1.0,
) -> dict:
    """Estimate the expected average-objective gap at each T and compare it
    with the closed-form bound. eta_scale != 1 departs from the admissible
    schedule; the run still executes but is flagged, and passing is no longer
    guaranteed.
    """
    T_list = sorted(int(t) for t in T_list)
    if min(T_list) < 1:
        raise ValueError("every T must be >= 1")
    if replicates < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    consts = suite_constants(suite)
    schedule = theorem_schedule(consts.smoothness, consts.strong_convexity)
    w0 = np.asarray(w0, dtype=np.float64)
    n_steps = max(T_list)

    grad_bound = estimate_grad_bound(suite, schedule, n_steps, replicates, seed, w0, eta_scale)
    inputs = BoundInputs(
        smoothness=consts.smoothness,
        strong_convexity=consts.strong_convexity,
        sigmas=consts.sigmas,
        grad_bound=grad_bound,
        gamma_het=consts.gamma_het,
        offset=schedule.offset,
        w1_dist_sq=l2_norm(w0 - consts.w_star) ** 2,
        n_tasks=suite.n_tasks,
    )

    gaps = {}
    for t, _, W, _, _ in _lockstep(suite, schedule, w0, n_steps, replicates, seed, eta_scale):
        if t in T_list:
            D = W[:, None, :] - suite.centers
            task_values = 0.5 * _dot(D, _matvec(suite.matrices, D))
            gaps[t] = task_values.mean(axis=1) - consts.f_star

    rows = []
    for t in T_list:
        vals = gaps[t]
        est = float(vals.mean())
        std = float(vals.std(ddof=1))
        se = std / np.sqrt(replicates)
        bound = theorem_bound(inputs, t)
        rows.append(
            {
                "T": t,
                "estimate": est,
                "std": std,
                "std_error": se,
                "bound": bound,
                "bound_max_form": theorem_bound_max_form(inputs, t),
                "margin": bound - est,
                "pass": bool(est <= bound + 3.0 * se),
            }
        )
    return {
        "kind": "convergence_bound",
        "b_form_note": B_FORM_NOTE,
        "constants": {
            "smoothness": inputs.smoothness,
            "strong_convexity": inputs.strong_convexity,
            "sigmas": list(inputs.sigmas),
            "grad_bound": grad_bound,
            "gamma_het": inputs.gamma_het,
            "offset": inputs.offset,
            "w1_dist_sq": inputs.w1_dist_sq,
            "noise_total": inputs.noise_total,
            "f_star": consts.f_star,
            "w_star": consts.w_star.tolist(),
        },
        "replicates": replicates,
        "seed": seed,
        "eta_scale": eta_scale,
        "schedule_ok": bool(eta_scale == 1.0),
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows),
    }


def verify_lemma1(
    suite: QuadraticSuite, n_steps: int, replicates: int, seed: int, w0, eta_scale: float = 1.0
) -> dict:
    """Per-step check that the averaged candidate update contracts toward the
    optimum up to the heterogeneity and noise terms.

    Requires eta_t <= 1/L at every checked step (an eta_scale > 1 violates
    this and raises). The check is paired: for each replicate the contraction
    term is subtracted before averaging, so only the additive terms remain on
    the right side.
    """
    consts = suite_constants(suite)
    schedule = theorem_schedule(consts.smoothness, consts.strong_convexity)
    for t in range(1, n_steps + 1):
        if eta_scale * schedule.at(t) > 1.0 / consts.smoothness + 1e-12:
            raise ScheduleError(f"eta at step {t} exceeds 1/L")
    w0 = np.asarray(w0, dtype=np.float64)
    n = suite.n_tasks
    mu = consts.strong_convexity
    noise_term = float(np.sum(np.square(consts.sigmas))) / n**2

    excess, lhs = [], []  # per step: lhs - contraction, and lhs, over replicates
    for _, eta, W, G, _ in _lockstep(suite, schedule, w0, n_steps, replicates, seed, eta_scale):
        vbar = W - eta * G.mean(axis=1)  # the average of the candidate updates
        check_finite(vbar, "averaged candidate update")  # non-finite whenever W is
        vbar_sq = _norms(vbar - consts.w_star) ** 2
        here_sq = _norms(W - consts.w_star) ** 2
        lhs.append(vbar_sq)
        excess.append(vbar_sq - (1.0 - mu * eta) * here_sq)

    rows = []
    for t, (vals, lhs_t) in enumerate(zip(excess, lhs), start=1):
        eta = eta_scale * schedule.at(t)
        rhs = 2.0 * consts.smoothness * eta**2 * consts.gamma_het + eta**2 * noise_term
        est = float(vals.mean())
        se = float(vals.std(ddof=1)) / np.sqrt(replicates) if replicates > 1 else 0.0
        rows.append(
            {
                "t": t,
                "eta": eta,
                "lhs_mean": float(lhs_t.mean()),
                "excess_mean": est,
                "rhs": rhs,
                "std_error": se,
                "pass": bool(est <= rhs + 3.0 * se),
            }
        )
    return {
        "kind": "contraction_inequality",
        "replicates": replicates,
        "seed": seed,
        "constants": {
            "smoothness": consts.smoothness,
            "strong_convexity": mu,
            "gamma_het": consts.gamma_het,
            "sigmas": list(consts.sigmas),
        },
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows),
    }


def verify_lemma2(
    suite: QuadraticSuite,
    n_steps: int,
    replicates: int,
    seed: int,
    w0,
    grad_bound: float | None = None,
) -> dict:
    """Per-step check that the selection variance (exact expectation over the
    selected task, by enumerating all candidates) stays below eta_t^2 G^2.

    Requires the schedule to be non-increasing with eta_t <= 2*eta_{t+1}. When
    grad_bound is not supplied it is estimated from a pre-run on the same
    seeds; a supplied (possibly stale) value is checked against the gradients
    actually observed and flagged if exceeded.
    """
    consts = suite_constants(suite)
    schedule = theorem_schedule(consts.smoothness, consts.strong_convexity)
    for t in range(1, n_steps + 1):
        e_now, e_next = schedule.at(t), schedule.at(t + 1)
        if e_now < e_next - 1e-12 or e_now > 2.0 * e_next + 1e-12:
            raise ScheduleError(f"step {t}: schedule must be non-increasing with eta_t <= 2*eta_(t+1)")
    w0 = np.asarray(w0, dtype=np.float64)

    supplied = grad_bound is not None
    if not supplied:
        grad_bound = estimate_grad_bound(suite, schedule, n_steps, replicates, seed, w0)

    # per step: exact expectation over the selection, and the run's own
    # selection (MC cross-check)
    enum, sampled = [], []
    observed_max = 0.0
    for _, eta, W, G, sel in _lockstep(suite, schedule, w0, n_steps, replicates, seed):
        observed_max = max(observed_max, _max_grad_norm(G))
        candidates = W[:, None, :] - eta * G
        vbar = W - eta * G.mean(axis=1)
        dists = _norms(candidates - vbar[:, None, :]) ** 2
        enum.append(dists.mean(axis=1))
        sampled.append(dists[np.arange(replicates), sel])

    rows = []
    for t, (enum_vals, mc_vals) in enumerate(zip(enum, sampled), start=1):
        bound = (schedule.at(t) * grad_bound) ** 2
        est = float(enum_vals.mean())
        se = float(enum_vals.std(ddof=1)) / np.sqrt(replicates) if replicates > 1 else 0.0
        mc_se = float(mc_vals.std(ddof=1)) / np.sqrt(replicates) if replicates > 1 else 0.0
        rows.append(
            {
                "t": t,
                "eta": schedule.at(t),
                "lhs_mean": est,
                "lhs_max": float(enum_vals.max()),
                "mc_mean": float(mc_vals.mean()),
                "mc_std_error": mc_se,
                "bound": bound,
                "std_error": se,
                "pass": bool(est <= bound + 3.0 * se),
            }
        )
    return {
        "kind": "selection_variance_inequality",
        "replicates": replicates,
        "seed": seed,
        "grad_bound": float(grad_bound),
        "grad_bound_supplied": supplied,
        "observed_max_grad_norm": observed_max,
        "grad_bound_violated": bool(observed_max > grad_bound),
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows),
    }


def fit_rate(report: dict) -> float:
    """Least-squares slope of log(gap estimate) against log(T).

    Needs at least three T values spanning two decades. Nonpositive estimates
    cannot be log-transformed; they are clamped to a tiny positive value with
    a warning.
    """
    rows = report["rows"]
    if len(rows) < 3:
        raise ValueError("need at least 3 values of T to fit a rate")
    ts = np.array([r["T"] for r in rows], dtype=np.float64)
    if ts.max() / ts.min() < 100.0:
        raise ValueError("T values must span at least two decades")
    ests = np.array([r["estimate"] for r in rows], dtype=np.float64)
    if np.any(ests <= 0.0):
        warnings.warn("nonpositive gap estimates clamped for rate fitting")
        ests = np.maximum(ests, np.finfo(np.float64).tiny)
    slope = np.polyfit(np.log(ts), np.log(ests), 1)[0]
    return float(slope)
