"""Moving-average optimizer rules with explicit, immutable state.

The rule maps a raw gradient to an adjusted descent direction; the learning
rate is applied outside, by the update scheme. `apply` is pure and returns
the next state, which is what lets a scheme hold one shared state or one
independent state per task, and commit a state only once its update lands.
"""

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .params import NonFiniteError, _count_nonzero, all_finite, check_finite

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
        # apply's constant operands as read-only 0-d float64 arrays: a Python
        # float operand adds about 0.25 µs to a ufunc call on numpy 2.4, and
        # the products keep their bits. They are attributes, not fields, so
        # asdict, describe(), ==, hash and repr do not see them, and
        # dataclasses.replace, which calls __init__, builds them anew.
        for name, value in (("_beta", self.beta), ("_beta1", self.beta1), ("_one_minus_beta1", 1.0 - self.beta1),
                            ("_beta2", self.beta2), ("_one_minus_beta2", 1.0 - self.beta2), ("_eps", self.eps)):
            const = np.array(value, dtype=np.float64)
            const.flags.writeable = False
            object.__setattr__(self, name, const)

    def __reduce__(self):
        # rebuilt through __init__, as dataclasses.replace does: an unpickled
        # array would be writeable
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


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


# apply builds each next state as _new_state(OptimizerState, (m, v, step)):
# the value OptimizerState(m, v, step) gives, without the NamedTuple's
# Python-level __new__
_new_state = tuple.__new__


def fresh_state(rule: OptimizerRule, dim: int) -> OptimizerState:
    v = np.zeros(dim) if rule.kind == "adam" else None
    return OptimizerState(m=np.zeros(dim), v=v, step=0)


def apply(rule: OptimizerRule, state: OptimizerState, g: np.ndarray) -> tuple:
    """The adjusted direction of gradient `g` and the state after it, as
    (direction, next_state).

    Pure: `state`, its arrays and `g` keep their bits, and the direction and
    each moment the rule updates are fresh arrays. Raises NonFiniteError if
    `g`, adam's denominator sqrt(v_hat) + eps or adam's direction has a
    non-finite entry.
    """
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} != state shape {state.m.shape}")
    if not all_finite(g):
        raise NonFiniteError("non-finite gradient passed to optimizer")
    t = state.step + 1
    if rule.kind == "sgd":
        return g.copy(), _new_state(OptimizerState, (state.m, None, t))
    if rule.kind == "momentum":
        m = rule._beta * state.m + g
        return m.copy(), _new_state(OptimizerState, (m, None, t))
    # adam: each moment is a fresh array, built in place from its first
    # temporary; one scratch array, tmp, holds each gradient term and then
    # the denominator
    m = rule._beta1 * state.m
    tmp = rule._one_minus_beta1 * g
    m += tmp
    v = rule._beta2 * state.v
    np.multiply(rule._one_minus_beta2, g, tmp)  # out passed positionally: less dispatch
    tmp *= g
    v += tmp
    out = m / (1.0 - rule.beta1**t)
    np.divide(v, 1.0 - rule.beta2**t, tmp)  # v_hat
    np.sqrt(tmp, tmp)
    tmp += rule._eps
    out /= tmp
    # A second moment that overflowed, in v or in v_hat, leaves a direction
    # entry m_hat / inf = 0 (or NaN), and every later step on that coordinate
    # would be 0 too: the run would stall without an abort. So a direction
    # with a zero or non-finite entry has its denominator checked first.
    finite = _count_nonzero(np.isfinite(out))
    if finite + _count_nonzero(out) < 2 * out.size:
        check_finite(tmp, "adam second moment")
        if finite < out.size:
            raise NonFiniteError("non-finite entries in adam direction")
    return out, _new_state(OptimizerState, (m, v, t))
