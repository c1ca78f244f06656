"""Moving-average optimizer rules with explicit state.

The rule maps a raw gradient to an adjusted descent direction; the learning
rate is applied outside, by the update scheme. Keeping state explicit is what
lets a scheme hold one shared state or one independent state per task.
"""

from dataclasses import dataclass

import numpy as np

from .params import NonFiniteError, all_finite, check_finite

__all__ = ["OptimizerRule", "OptimizerState", "fresh_state", "apply"]

_KINDS = ("sgd", "momentum", "adam")


@dataclass(frozen=True)
class OptimizerRule:
    """Which direction rule to use and its hyperparameters.

    momentum uses heavy-ball accumulation m <- beta*m + g; adam uses the
    standard bias-corrected first/second moment update.
    """

    kind: str = "sgd"
    beta: float = 0.9  # momentum
    beta1: float = 0.9  # adam
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}, expected one of {_KINDS}")
        for name in ("beta", "beta1", "beta2"):
            b = getattr(self, name)
            if not (0.0 <= b < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {b}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    @staticmethod
    def sgd() -> "OptimizerRule":
        return OptimizerRule(kind="sgd")

    @staticmethod
    def momentum(beta: float = 0.9) -> "OptimizerRule":
        return OptimizerRule(kind="momentum", beta=beta)

    @staticmethod
    def adam(beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "OptimizerRule":
        return OptimizerRule(kind="adam", beta1=beta1, beta2=beta2, eps=eps)


@dataclass
class OptimizerState:
    """First/second moment accumulators plus a step counter.

    Fresh state has zero accumulators and counter 0. States are single-owner
    and mutable; to_dict/from_dict give an independent copy.
    """

    m: np.ndarray
    v: np.ndarray | None = None  # adam only
    step: int = 0

    def to_dict(self) -> dict:
        return {
            "m": self.m.tolist(),
            "v": None if self.v is None else self.v.tolist(),
            "step": self.step,
        }

    @staticmethod
    def from_dict(d: dict) -> "OptimizerState":
        return OptimizerState(
            m=np.asarray(d["m"], dtype=np.float64),
            v=None if d["v"] is None else np.asarray(d["v"], dtype=np.float64),
            step=int(d["step"]),
        )


def fresh_state(rule: OptimizerRule, dim: int) -> OptimizerState:
    v = np.zeros(dim) if rule.kind == "adam" else None
    return OptimizerState(m=np.zeros(dim), v=v, step=0)


def apply(rule: OptimizerRule, state: OptimizerState, g: np.ndarray) -> np.ndarray:
    """Advance `state` with gradient `g` and return the adjusted direction.

    It rebinds state.m, state.v and state.step and never writes into the old
    arrays, so restoring the three references undoes the update.
    """
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} != state shape {state.m.shape}")
    if not all_finite(g):
        raise NonFiniteError("non-finite gradient passed to optimizer")
    state.step += 1
    if rule.kind == "sgd":
        return g.copy()
    if rule.kind == "momentum":
        state.m = rule.beta * state.m + g
        return state.m.copy()
    # adam
    t = state.step
    state.m = rule.beta1 * state.m + (1.0 - rule.beta1) * g
    state.v = rule.beta2 * state.v + (1.0 - rule.beta2) * g * g
    m_hat = state.m / (1.0 - rule.beta1**t)
    v_hat = state.v / (1.0 - rule.beta2**t)
    out = m_hat / (np.sqrt(v_hat) + rule.eps)
    check_finite(out, "adam direction")
    return out

