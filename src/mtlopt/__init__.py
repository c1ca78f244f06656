"""Multi-task optimization schemes, random task grouping, trajectory
exploration metrics, and convex-case convergence verification."""

from .params import (
    DimensionMismatchError,
    NonFiniteError,
    RngStream,
    as_params,
    axpy,
    l2_norm,
)
from .objectives import (
    QuadraticSuite,
    QuadraticTask,
    TaskSuite,
    finite_difference_check,
    five_task_suite,
    suite_constants,
    two_task_suite,
)
from .mlp import MLPSuite, init_mlp_params, synthetic_mlp_suite
from .optimizers import OptimizerRule, OptimizerState, apply, fresh_state
from .schemes import (
    ConstantLR,
    InverseTimeLR,
    SchemeConfig,
    make_grouping,
    run,
    step,
    theorem_schedule,
)
from .tracing import RunTrace, covered_distances

# loaded on first use, so that `run` and `sweep` never import the verifier
_VERIFY_NAMES = {"BoundInputs", "estimate_grad_bound", "fit_rate", "theorem_bound", "verify_lemma1",
                 "verify_lemma2", "verify_lemmas", "verify_theorem"}


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _VERIFY_NAMES)


__version__ = "0.1.0"
__all__ = sorted(name for name in globals() if not name.startswith("_")) + sorted(_VERIFY_NAMES)
