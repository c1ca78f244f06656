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
from .verify import (
    BoundInputs,
    estimate_grad_bound,
    fit_rate,
    theorem_bound,
    verify_lemma1,
    verify_lemma2,
    verify_lemmas,
    verify_theorem,
)

__version__ = "0.1.0"
