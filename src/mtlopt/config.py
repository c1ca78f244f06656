"""Run configuration: strict JSON schema with no silently-ignored keys.

Every config is validated before any compute; unknown keys and out-of-range
values are rejected with the offending field named, so two runs can only
differ when their configs visibly differ.
"""

import json
import sys

import numpy as np

from .mlp import MLPSuite, init_mlp_params, synthetic_mlp_suite
from .objectives import QuadraticSuite, QuadraticTask, five_task_suite, suite_constants, two_task_suite
from .optimizers import OptimizerRule
from .params import RngStream
from .schemes import ConstantLR, InverseTimeLR, SchemeConfig, theorem_schedule

__all__ = ["ConfigError", "RunConfig", "load_config"]

_SEED_MAX = 2**64 - 1  # RngStream reduces a seed mod 2**64: one outside [0, _SEED_MAX] aliases one inside


class ConfigError(ValueError):
    """Invalid run configuration; the message names the field."""


def _require_keys(d: dict, path: str, allowed: set, required: set = frozenset()):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{path}: missing required keys {sorted(missing)}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _get_int(d, key, path, default=None, minimum=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = d[key]
    if not _is_int(v):
        raise ConfigError(f"{path}.{key}: expected integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {v}")
    return v


def _number(v, path) -> float:
    """v as a float. A boolean, a non-number, NaN, an infinity (JSON reads
    1e400 as one) or an integer beyond the float range raises ConfigError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected number, got {v!r}")
    if not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    return float(v)


def _numbers(v, path, length=None) -> list:
    """A nonempty list of finite numbers (of `length` entries when given) as floats."""
    if not isinstance(v, list) or not v or length not in (None, len(v)):
        raise ConfigError(f"{path}: expected a list of {length or 'one or more'} numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _get_number(d, key, path, default=None, minimum=None, above=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = _number(d[key], f"{path}.{key}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {v}")
    if above is not None and not v > above:
        raise ConfigError(f"{path}.{key}: must be > {above}, got {v}")
    return v


_PRESETS = {"two_task": two_task_suite, "five_task": five_task_suite}


def _build_objective(obj: dict):
    _require_keys(
        obj,
        "objective",
        {
            "family",
            "preset",
            "tasks",
            "n_tasks",
            "input_dim",
            "hidden",
            "batch_size",
            "dataset_seed",
            "target_terms",
            "val_size",
        },
        {"family"},
    )
    family = obj["family"]
    if family == "quadratic":
        if ("preset" in obj) == ("tasks" in obj):
            raise ConfigError("objective: quadratic family needs exactly one of 'preset' or 'tasks'")
        for key in ("n_tasks", "input_dim", "hidden", "batch_size", "dataset_seed", "target_terms", "val_size"):
            if key in obj:
                raise ConfigError(f"objective.{key}: not valid for the quadratic family")
        if "preset" in obj:
            if obj["preset"] not in _PRESETS:
                raise ConfigError(
                    f"objective.preset: unknown preset {obj['preset']!r}, expected one of {sorted(_PRESETS)}"
                )
            return _PRESETS[obj["preset"]]()
        tasks = obj["tasks"]
        if not isinstance(tasks, list) or not tasks:
            raise ConfigError("objective.tasks: expected a nonempty list")
        built = []
        for i, entry in enumerate(tasks):
            path = f"objective.tasks[{i}]"
            _require_keys(entry, path, {"matrix", "center", "noise_sigma"}, {"matrix", "center"})
            matrix = entry["matrix"]
            if not isinstance(matrix, list) or not matrix:
                raise ConfigError(f"{path}.matrix: expected a nonempty list of rows")
            matrix = [_numbers(row, f"{path}.matrix[{j}]") for j, row in enumerate(matrix)]
            center = _numbers(entry["center"], f"{path}.center")
            sigma = _get_number(entry, "noise_sigma", path, default=0.0, minimum=0.0)
            try:
                built.append(QuadraticTask(i, matrix, center, sigma))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"objective.tasks[{i}]: {exc}") from exc
        return QuadraticSuite(built)
    if family == "mlp":
        for key in ("preset", "tasks"):
            if key in obj:
                raise ConfigError(f"objective.{key}: not valid for the mlp family")
        hidden = obj.get("hidden", [32, 32])
        if not isinstance(hidden, list) or not hidden or not all(_is_int(h) and h > 0 for h in hidden):
            raise ConfigError("objective.hidden: expected a nonempty list of positive integers")
        return synthetic_mlp_suite(
            n_tasks=_get_int(obj, "n_tasks", "objective", default=4, minimum=1),
            input_dim=_get_int(obj, "input_dim", "objective", default=2, minimum=1),
            hidden=tuple(hidden),
            batch_size=_get_int(obj, "batch_size", "objective", default=32, minimum=1),
            dataset_seed=_get_int(obj, "dataset_seed", "objective", default=7),
            target_terms=_get_int(obj, "target_terms", "objective", default=3, minimum=1),
            val_size=_get_int(obj, "val_size", "objective", default=128, minimum=1),
        )
    raise ConfigError(f"objective.family: unknown family {family!r}, expected 'quadratic' or 'mlp'")


def _build_optimizer(opt: dict, path: str) -> OptimizerRule:
    _require_keys(opt, path, {"kind", "beta", "beta1", "beta2", "eps"}, {"kind"})
    kind = opt["kind"]
    try:
        if kind == "sgd":
            _require_keys(opt, path, {"kind"})
            return OptimizerRule.sgd()
        if kind == "momentum":
            _require_keys(opt, path, {"kind", "beta"})
            return OptimizerRule.momentum(_get_number(opt, "beta", path, default=0.9))
        if kind == "adam":
            _require_keys(opt, path, {"kind", "beta1", "beta2", "eps"})
            return OptimizerRule.adam(
                _get_number(opt, "beta1", path, default=0.9),
                _get_number(opt, "beta2", path, default=0.999),
                _get_number(opt, "eps", path, default=1e-8),
            )
    except ConfigError:
        raise  # already names its field
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown optimizer {kind!r}")


def _build_lr(lr: dict, path: str, suite):
    _require_keys(lr, path, {"kind", "eta", "mu", "offset"}, {"kind"})
    kind = lr["kind"]
    if kind == "constant":
        _require_keys(lr, path, {"kind", "eta"}, {"kind", "eta"})
        return ConstantLR(eta=_get_number(lr, "eta", path, minimum=0.0))
    if kind == "inverse_time":
        _require_keys(lr, path, {"kind", "mu", "offset"})
        if ("mu" in lr) != ("offset" in lr):
            raise ConfigError(f"{path}: inverse_time needs both 'mu' and 'offset', or neither")
        if "mu" in lr:
            # mu > 0 and offset > -1 keep every step size 2 / (mu * (offset + t)) positive
            return InverseTimeLR(
                mu=_get_number(lr, "mu", path, above=0.0), offset=_get_number(lr, "offset", path, above=-1.0)
            )
        if not isinstance(suite, QuadraticSuite):
            raise ConfigError(f"{path}: inverse_time without mu/offset needs a quadratic objective")
        consts = suite_constants(suite)
        return theorem_schedule(consts.smoothness, consts.strong_convexity)
    raise ConfigError(f"{path}.kind: unknown schedule {kind!r}")


def _build_scheme(sch: dict, path: str, suite) -> SchemeConfig:
    _require_keys(
        sch,
        path,
        {"kind", "n_groups", "task_order", "optimizer", "lr", "fresh_minibatch_per_task"},
        {"kind", "optimizer", "lr"},
    )
    kind = sch["kind"]
    if kind not in ("sus", "ius", "io"):
        raise ConfigError(f"{path}.kind: unknown scheme {kind!r}, expected 'sus', 'ius' or 'io'")
    n_groups = sch.get("n_groups")
    if n_groups is not None:
        if not _is_int(n_groups):
            raise ConfigError(f"{path}.n_groups: expected integer or null")
        if not 1 <= n_groups <= suite.n_tasks:
            raise ConfigError(
                f"{path}.n_groups: must be between 1 and {suite.n_tasks} (number of tasks), got {n_groups}"
            )
    task_order = sch.get("task_order", "round_robin")
    fresh = sch.get("fresh_minibatch_per_task", False)
    if not isinstance(fresh, bool):
        raise ConfigError(f"{path}.fresh_minibatch_per_task: expected boolean")
    try:
        return SchemeConfig(
            scheme=kind,
            optimizer=_build_optimizer(sch["optimizer"], f"{path}.optimizer"),
            lr=_build_lr(sch["lr"], f"{path}.lr", suite),
            n_groups=n_groups,
            task_order=task_order,
            fresh_minibatch_per_task=fresh,
        )
    except ConfigError:
        raise  # already names its field
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_VERIFY_DEFAULTS = {"T_list": [10, 100, 1000], "replicates": 200, "lemma_steps": 50, "lemma_replicates": 500}


class RunConfig:
    """Validated configuration plus the objects built from it."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be an object")
        _require_keys(
            raw,
            "config",
            {
                "objective",
                "scheme",
                "schemes",
                "steps",
                "seeds",
                "validation_every",
                "w0",
                "verify",
            },
            {"objective"},
        )
        self.raw = raw
        self.suite = _build_objective(raw["objective"])

        if ("scheme" in raw) and ("schemes" in raw):
            raise ConfigError("config: give either 'scheme' or 'schemes', not both")
        if "scheme" in raw:
            self.schemes = [_build_scheme(raw["scheme"], "scheme", self.suite)]
        elif "schemes" in raw:
            entries = raw["schemes"]
            if not isinstance(entries, list) or not entries:
                raise ConfigError("schemes: expected a nonempty list")
            self.schemes = [
                _build_scheme(s, f"schemes[{i}]", self.suite) for i, s in enumerate(entries)
            ]
        else:
            self.schemes = []

        self.steps = _get_int(raw, "steps", "config", default=1, minimum=1)
        seeds = raw.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds or not all(_is_int(s) and 0 <= s <= _SEED_MAX for s in seeds):
            raise ConfigError("config.seeds: expected a nonempty list of integers in [0, 2**64 - 1]")
        self.seeds = list(seeds)
        self.validation_every = _get_int(raw, "validation_every", "config", default=1, minimum=1)

        self.w0 = None
        if "w0" in raw:
            if isinstance(self.suite, MLPSuite):
                raise ConfigError("config.w0: mlp objectives are initialized from the run seed")
            self.w0 = np.asarray(_numbers(raw["w0"], "config.w0", self.suite.dim))

        verify = raw.get("verify", {})
        _require_keys(verify, "verify", set(_VERIFY_DEFAULTS))
        self.verify = dict(_VERIFY_DEFAULTS)
        for key in verify:
            self.verify[key] = verify[key]
        t_list = self.verify["T_list"]
        if not isinstance(t_list, list) or not t_list or not all(_is_int(t) and t >= 1 for t in t_list):
            raise ConfigError("verify.T_list: expected a nonempty list of integers >= 1")
        if len(set(t_list)) < len(t_list):
            raise ConfigError(f"verify.T_list: values must be distinct, got {t_list}")
        if len(t_list) < 3 or max(t_list) < 100 * min(t_list):  # what the rate fit needs
            raise ConfigError("verify.T_list: need at least 3 values spanning two decades (max >= 100 * min)")
        for key in ("replicates", "lemma_steps", "lemma_replicates"):
            self.verify[key] = _get_int(self.verify, key, "verify", minimum=2)

    def run_seeds(self, seed_offset: int) -> list:
        """The configured seeds shifted by seed_offset, each kept in [0, 2**64 - 1]."""
        seeds = [s + seed_offset for s in self.seeds]
        if not all(0 <= s <= _SEED_MAX for s in seeds):
            raise ConfigError(f"--seed-offset: {seed_offset} moves a seed of {self.seeds} out of [0, 2**64 - 1]")
        return seeds

    def initial_point(self, seed: int) -> np.ndarray:
        if isinstance(self.suite, MLPSuite):
            return init_mlp_params(self.suite, RngStream(seed, "init").gen)
        if self.w0 is not None:
            return self.w0.copy()
        return np.zeros(self.suite.dim)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    return RunConfig(raw)
