"""Monte-Carlo verification of the convex-case convergence bound and its two
supporting per-step inequalities, on quadratic suites.

The verified regime is the single-task-selection form of the alternating
scheme: at each step every task's candidate SGD update is available, one task
is selected uniformly at random, and the iterate follows that task's update.
The initial iterate is indexed 1, so the expected optimality gap "at T" is
measured after T-1 update steps.

The bound's check (verify_theorem) and the per-step checks (verify_lemmas)
each simulate their own replicates. A pass steps all its R replicates in
lockstep, with array ops over an (R, d) array of iterates. Replicate r draws
from its own streams, data[r] and task-order[r], so every number equals that
of the replicate stepped alone. The engine (_lockstep) yields a block of k
steps at a time: its step sizes (k,), iterates (k, R, d), every task's
gradients there (k, R, n, d) and selected tasks (k, R). Both passes run
through run's failure rule (schemes._in_blocks): a pass whose blocks fail
anywhere runs again step by step, to fail as a per-step pass does, so lemma
1's statistics are reduced as each block is read, before a later step
can fail first; lemma 2's bound needs the gradient norms of the whole pass,
so its statistics are reduced once, over the (n_steps, R) arrays, after it.

Statistical policy: the bound is an upper bound in expectation, so a check
passes when the Monte-Carlo estimate does not exceed it by more than three
standard errors, and all three numbers are finite. The uniform gradient-norm
bound has no closed form for quadratics on an unbounded domain, so it is
estimated empirically: the largest stochastic gradient norm over all (task,
step, replicate) triples that a check reads, inflated by a 5% safety factor.
Trajectories do not depend on it, so the bounds are evaluated once the check
has read them all.
"""

import functools
import math
import warnings
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .objectives import QuadraticSuite, _dot, suite_constants
from .params import RngStream, check_finite, l2_norm
from .schemes import _BLOCK_FLOATS, _in_blocks, theorem_schedule

__all__ = [
    "BoundInputs",
    "theorem_bound",
    "theorem_bound_max_form",
    "estimate_grad_bound",
    "verify_theorem",
    "verify_lemmas",
    "verify_lemma1",
    "verify_lemma2",
    "fit_rate",
]

B_FORM_NOTE = (
    "noise term uses sum(sigma_k^2)/N^2, which equals sum(p_k^2 sigma_k^2) "
    "for uniform selection probability p_k = 1/N"
)


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
        if not np.isfinite(np.hstack(astuple(self))).all():  # a NaN passes most comparisons below
            raise ValueError("every bound input must be finite")
        if not self.strong_convexity > 0:
            raise ValueError("strong_convexity must be positive")
        if self.smoothness < self.strong_convexity:
            raise ValueError("smoothness must be >= strong_convexity")
        min_offset = 2.0 * self.smoothness / self.strong_convexity - 1.0
        if self.offset < min_offset - 1e-12:
            raise ValueError(f"offset must be >= {min_offset}, got {self.offset}")
        if min(self.grad_bound, self.gamma_het, self.w1_dist_sq, *self.sigmas, 0.0) < 0:
            raise ValueError("sigmas, grad_bound, gamma_het, w1_dist_sq must be nonnegative")
        # finite inputs whose B overflows: an overflow, as grad_bound**2 alone raises
        if not math.isfinite(self.noise_total):
            raise OverflowError("the noise total B is not finite")

    @property
    def noise_total(self) -> float:
        """B: averaged noise variance + heterogeneity + squared norm bound."""
        return (
            float(np.sum(np.square(self.sigmas))) / self.n_tasks**2
            + 2.0 * self.smoothness * self.gamma_het
            + self.grad_bound**2
        )


def theorem_bound(inputs: BoundInputs, t: int) -> float:
    """Upper bound on the expected average-objective gap at iterate t. A bound
    that overflows raises OverflowError: an infinite bound checks nothing."""
    lead = inputs.smoothness / (inputs.offset + t)
    bound = lead * (
        2.0 * inputs.noise_total / inputs.strong_convexity**2
        + 0.5 * (inputs.offset + 1.0) * inputs.w1_dist_sq
    )
    if not math.isfinite(bound):
        raise OverflowError(f"the bound at T={t} is not finite")
    return bound


def theorem_bound_max_form(inputs: BoundInputs, t: int) -> float:
    """Tighter max-form variant from the induction; logged alongside. It
    raises OverflowError where it overflows, as theorem_bound does."""
    v = max(
        4.0 * inputs.noise_total / inputs.strong_convexity**2,
        (inputs.offset + 1.0) * inputs.w1_dist_sq,
    )
    bound = 0.5 * inputs.smoothness * v / (inputs.offset + t)
    if not math.isfinite(bound):
        raise OverflowError(f"the max-form bound at T={t} is not finite")
    return bound


def _passes(est, bound, se) -> bool:
    """est <= bound within three standard errors, with all three finite."""
    return bool(all(map(math.isfinite, (est, bound, se))) and est <= bound + 3.0 * se)


def _std_errors(vals):
    """The standard error of the mean of each row of an (S, R) array of
    replicate values: 0.0 at one replicate, where ddof=1 has no degrees left."""
    if vals.shape[1] < 2:
        return np.zeros(len(vals))
    return vals.std(axis=1, ddof=1) / np.sqrt(vals.shape[1])


def _norms(x):  # np.linalg.norm of every vector along the last axis
    return np.sqrt(_dot(x, x))


def _max_grad_norm(G) -> float:
    check_finite(G, "stochastic gradients")
    return float(_norms(G).max())


def _block(suite, replicates) -> int:
    """The steps whose gradients, (R, n, d) each, fit in run's block of floats."""
    return max(1, _BLOCK_FLOATS // (replicates * suite.n_tasks * suite.dim))


def _lockstep(suite, schedule, w0, n_steps, replicates, seed, block=1, per_call=False):
    """Yield (start, eta, W, G, sel) for each block of k <= `block` steps
    t = start+1..start+k: eta (k,), the iterates W (k, R, d) before each
    update, G (k, R, n, d), written over the block's draws, and sel (k, R).
    The block's last update is made after it is read. Replicate r draws a
    block's noise on its stream data[r] in one sample_minibatches call or,
    `per_call`, with the same values, in one sample_minibatch call per step,
    step-major so that each stream is read in step order: the benchmark's
    tracer (perfbench/tracer.py) counts verify_theorem's replicate-steps as
    sample_minibatch calls."""
    n = suite.n_tasks
    labels = range(replicates)
    data = [RngStream(seed, f"data[{r}]").gen for r in labels]
    # one bulk draw yields the same values as n_steps draws of integers(n)
    order = np.array([RngStream(seed, f"task-order[{r}]").gen.integers(n, size=n_steps) for r in labels])
    rows = np.arange(replicates)
    draws_shape = (replicates, n, suite.dim)
    w = np.tile(np.asarray(w0, dtype=np.float64), (replicates, 1))
    for start in range(0, n_steps, block):
        k = min(block, n_steps - start)
        if per_call:  # np.concatenate copies the draws as np.array would, with less dispatch
            G = np.concatenate([suite.sample_minibatch(gen) for _ in range(k) for gen in data])
            G = G.reshape(k, *draws_shape)
        else:
            G = np.stack([suite.sample_minibatches(gen, k) for gen in data], axis=1)
        eta = np.array([schedule.at(t) for t in range(start + 1, start + k + 1)])
        W, sel = np.empty((k, *w.shape)), order[:, start:start + k].T
        for i in range(k):
            if i:
                w = w - eta[i - 1] * G[i - 1, rows, sel[i - 1]]
            W[i], G[i] = w, suite.task_gradients(w, G[i])
        yield start, eta, W, G, sel
        w = w - eta[-1] * G[-1, rows, sel[-1]]


GRAD_BOUND_SAFETY = 1.05


def estimate_grad_bound(suite, schedule, n_steps, replicates, seed, w0) -> float:
    """Empirical uniform gradient-norm bound from a stand-alone pass on the same seeds."""
    blocks = _lockstep(suite, schedule, w0, n_steps, replicates, seed, per_call=True)
    return max((_max_grad_norm(G) for _, _, _, G, _ in blocks), default=0.0) * GRAD_BOUND_SAFETY


def verify_theorem(suite: QuadraticSuite, T_list, replicates: int, seed: int, w0) -> dict:
    """Estimate the expected average-objective gap at each T and compare it
    with the closed-form bound."""
    T_list = sorted(int(t) for t in T_list)
    if min(T_list) < 1:
        raise ValueError("every T must be >= 1")
    if replicates < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    consts = suite_constants(suite)
    schedule = theorem_schedule(consts.smoothness, consts.strong_convexity)
    w0 = np.asarray(w0, dtype=np.float64)
    theorem_pass = functools.partial(_theorem_pass, suite, replicates, consts, schedule, w0, T_list, seed)
    worst, gaps = _in_blocks(theorem_pass, _block(suite, replicates))
    grad_bound = worst * GRAD_BOUND_SAFETY  # as estimate_grad_bound on the same pass
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

    rows = []
    for t in T_list:
        vals = gaps[t]
        est, std = float(vals.mean()), float(vals.std(ddof=1))
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
                "pass": _passes(est, bound, se),
            }
        )
    constants = asdict(inputs)
    del constants["n_tasks"]
    constants.update(noise_total=inputs.noise_total, f_star=consts.f_star, w_star=consts.w_star.tolist())
    return {
        "kind": "convergence_bound",
        "b_form_note": B_FORM_NOTE,
        "constants": constants,
        "replicates": replicates,
        "seed": seed,
        # kept output keys: the check always runs theorem_schedule unscaled
        "eta_scale": 1.0,
        "schedule_ok": True,
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows),
    }


def _theorem_pass(suite, replicates, consts, schedule, w0, T_list, seed, block):
    """verify_theorem's largest stochastic gradient norm, taken over `block`
    steps at a time, and each replicate's average-objective gap at every T."""
    worst, gaps = 0.0, {}
    for start, _, W, G, _ in _lockstep(suite, schedule, w0, T_list[-1], replicates, seed, block, per_call=True):
        worst = max(worst, _max_grad_norm(G))
        for t in T_list:
            if start < t <= start + len(W):  # every replicate's exact average objective, less f_star
                gaps[t] = suite.validation_task_losses(W[t - start - 1]).mean(axis=1) - consts.f_star
    return worst, gaps


def verify_lemmas(suite: QuadraticSuite, n_steps: int, replicates: int, seed: int, w0):
    """Both per-step checks, read off one lockstep pass: returns the reports
    (lemma1, lemma2).

    Lemma 1: the averaged candidate update contracts toward the optimum up to
    the heterogeneity and noise terms. The check is paired: for each replicate
    the contraction term is subtracted before averaging, so only the additive
    terms remain on the right side.

    Lemma 2: the selection variance (exact expectation over the selected task,
    by enumerating all candidates) stays below eta_t^2 G^2, with G estimated,
    as estimate_grad_bound does, from the gradients that the check reads.

    theorem_schedule meets both premises: eta_t <= 1/L (lemma 1), and a
    non-increasing schedule with eta_t <= 2*eta_(t+1) (lemma 2).
    """
    for name, value in (("n_steps", n_steps), ("replicates", replicates)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    consts = suite_constants(suite)
    schedule = theorem_schedule(consts.smoothness, consts.strong_convexity)
    w0 = np.asarray(w0, dtype=np.float64)
    lemma_pass = functools.partial(_lemma_reports, suite, replicates, consts, schedule, w0, n_steps, seed)
    return _in_blocks(lemma_pass, _block(suite, replicates))


def _lemma_reports(suite, replicates, consts, schedule, w0, n_steps, seed, block):
    """verify_lemmas' reports, with each replicate's noise drawn, and lemma
    1's statistics reduced over an (S, R) array of per-replicate values, for
    a block of S steps at a time; lemma 2's, which need the gradient bound of
    the whole pass, over the (n_steps, R) arrays once the pass is done."""
    n = suite.n_tasks
    mu = consts.strong_convexity
    noise_term = float(np.sum(np.square(consts.sigmas))) / n**2

    rows1, observed_max = [], 0.0
    # per replicate: exact expectation over the selection; the run's own
    # selection (MC check)
    enum_vals, mc_vals = np.empty((n_steps, replicates)), np.empty((n_steps, replicates))
    for start, eta, W, G, sel in _lockstep(suite, schedule, w0, n_steps, replicates, seed, block):
        rows = slice(start, start + len(eta))
        e = eta[:, None, None]
        vbar = W - e * G.mean(axis=2)  # the average of the candidate updates
        check_finite(vbar, "averaged candidate update")  # non-finite whenever W or G is
        observed_max = max(observed_max, _max_grad_norm(G))
        vbar_sq = _norms(vbar - consts.w_star) ** 2
        here_sq = _norms(W - consts.w_star) ** 2
        excess = vbar_sq - (1.0 - mu * eta)[:, None] * here_sq  # paired, per replicate
        rhs = [2.0 * consts.smoothness * x**2 * consts.gamma_het + x**2 * noise_term for x in eta.tolist()]
        stats = (excess.mean(axis=1), _std_errors(excess), vbar_sq.mean(axis=1))
        for t, x, r, est, se, lhs in zip(range(start + 1, n_steps + 1), eta.tolist(), rhs,
                                          *(v.tolist() for v in stats)):
            rows1.append(
                {
                    "t": t,
                    "eta": x,
                    "lhs_mean": lhs,
                    "excess_mean": est,
                    "rhs": r,
                    "std_error": se,
                    "pass": _passes(est, r, se),
                }
            )
        dists = _norms(W[:, :, None, :] - e[..., None] * G - vbar[:, :, None, :]) ** 2
        enum_vals[rows] = dists.mean(axis=2)
        mc_vals[rows] = np.take_along_axis(dists, sel[..., None], axis=2)[..., 0]
    lemma1 = {
        "kind": "contraction_inequality",
        "replicates": replicates,
        "seed": seed,
        "constants": {
            "smoothness": consts.smoothness,
            "strong_convexity": mu,
            "gamma_het": consts.gamma_het,
            "sigmas": list(consts.sigmas),
        },
        "rows": rows1,
        "all_pass": all(r["pass"] for r in rows1),
    }

    grad_bound = observed_max * GRAD_BOUND_SAFETY
    bounds = [(r["eta"] * grad_bound) ** 2 for r in rows1]
    stats = (enum_vals.mean(axis=1), _std_errors(enum_vals), enum_vals.max(axis=1), mc_vals.mean(axis=1),
             _std_errors(mc_vals))
    rows2 = [
        {
            "t": r["t"],
            "eta": r["eta"],
            "lhs_mean": est,
            "lhs_max": lhs_max,
            "mc_mean": mc_mean,
            "mc_std_error": mc_se,
            "bound": bound,
            "std_error": se,
            "pass": _passes(est, bound, se),
        }
        for r, bound, est, se, lhs_max, mc_mean, mc_se in zip(rows1, bounds, *(v.tolist() for v in stats))
    ]
    lemma2 = {
        "kind": "selection_variance_inequality",
        "replicates": replicates,
        "seed": seed,
        "grad_bound": float(grad_bound),
        # kept output keys: G is always estimated from this pass, so no
        # observed gradient norm exceeds it
        "grad_bound_supplied": False,
        "observed_max_grad_norm": observed_max,
        "grad_bound_violated": False,
        "rows": rows2,
        "all_pass": all(r["pass"] for r in rows2),
    }
    return lemma1, lemma2


# cmd_verify calls verify_lemmas; perfbench/tracer.py wraps these two by name
# in every traced run, so they stay as selections from it.
def verify_lemma1(suite: QuadraticSuite, n_steps: int, replicates: int, seed: int, w0) -> dict:
    """Lemma 1's report of verify_lemmas."""
    return verify_lemmas(suite, n_steps, replicates, seed, w0)[0]


def verify_lemma2(suite: QuadraticSuite, n_steps: int, replicates: int, seed: int, w0) -> dict:
    """Lemma 2's report of verify_lemmas."""
    return verify_lemmas(suite, n_steps, replicates, seed, w0)[1]


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
