"""Moving-average optimizer rules with explicit, immutable state.

The rule maps a raw gradient to an adjusted descent direction; the learning
rate is applied outside, by the update scheme. `apply` is pure and returns
the next state, which is what lets a scheme hold one shared state or one
independent state per task, and commit a state only once its update lands.
"""

from dataclasses import dataclass
from typing import NamedTuple

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


class OptimizerState(NamedTuple):
    """First/second moment accumulators plus a step counter.

    Fresh state has zero accumulators and counter 0. A state is an immutable
    value: `apply` returns a new one and never writes into the arrays of the
    one it was given, so holding a state keeps its bits.
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


def apply(rule: OptimizerRule, state: OptimizerState, g: np.ndarray) -> tuple:
    """The adjusted direction of gradient `g` and the state after it, as
    (direction, next_state).

    Pure: `state`, its arrays and `g` keep their bits, and the direction and
    each moment the rule updates are fresh arrays.
    """
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} != state shape {state.m.shape}")
    if not all_finite(g):
        raise NonFiniteError("non-finite gradient passed to optimizer")
    t = state.step + 1
    if rule.kind == "sgd":
        return g.copy(), OptimizerState(state.m, None, t)
    if rule.kind == "momentum":
        m = rule.beta * state.m + g
        return m.copy(), OptimizerState(m, None, t)
    # adam: each moment is a fresh array, built in place from its first
    # temporary; one scratch array, tmp, holds each gradient term and then
    # the denominator
    m = rule.beta1 * state.m
    tmp = (1.0 - rule.beta1) * g
    m += tmp
    v = rule.beta2 * state.v
    np.multiply(1.0 - rule.beta2, g, out=tmp)
    tmp *= g
    v += tmp
    out = m / (1.0 - rule.beta1**t)
    np.divide(v, 1.0 - rule.beta2**t, out=tmp)  # v_hat
    np.sqrt(tmp, out=tmp)
    tmp += rule.eps
    out /= tmp
    check_finite(out, "adam direction")
    return out, OptimizerState(m, v, t)
