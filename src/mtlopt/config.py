"""Run configuration: one schema table, `SCHEMA`, checked by one walker before any compute.

Unknown keys and bad values are rejected with the field's full path from `config.`, so two
runs can only differ when their configs visibly differ. Checked values go to the library
constructors as given, so the constructors' defaults are the only defaults.
"""

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .mlp import MLPSuite, init_mlp_params, synthetic_mlp_suite
from .objectives import QuadraticSuite, QuadraticTask, five_task_suite, suite_constants, two_task_suite
from .optimizers import OptimizerRule
from .params import RngStream
from .schemes import _ORDER_POLICIES, _SCHEMES, ConstantLR, InverseTimeLR, SchemeConfig, theorem_schedule

__all__ = ["ConfigError", "RunConfig", "load_config", "SCHEMA"]

_SEED_MAX = 2**64 - 1  # RngStream reduces a seed mod 2**64: one outside [0, _SEED_MAX] aliases one inside


class ConfigError(ValueError):
    """Invalid run configuration; the message names the field by its path from `config`."""


@dataclass(frozen=True)
class Int:
    """An integer in [lo, hi], or JSON null when `null`."""

    lo: int
    hi: float = math.inf
    null: bool = False


@dataclass(frozen=True)
class Num:
    """A finite number in [lo, hi), or (lo, hi) when `open_lo`; checked as a float."""

    lo: float = -math.inf
    hi: float = math.inf
    open_lo: bool = False


@dataclass(frozen=True)
class Bool:
    """true or false."""


@dataclass(frozen=True)
class Choice:
    """One of the strings `options`."""

    options: tuple


@dataclass(frozen=True)
class List:
    """A nonempty list of values that each match `item`."""

    item: object


@dataclass(frozen=True)
class Obj:
    """An object with keys from `fields` (key -> spec), the `required` ones present."""

    fields: dict
    required: tuple = ()


@dataclass(frozen=True)
class Tagged:
    """An object whose required `tag` key, one of `kinds`, names its variant: the Obj that checks it."""

    tag: str
    variants: dict  # name -> Obj of the other keys; construction adds the tag to each

    def __post_init__(self):
        tag, kinds = self.tag, Choice(tuple(self.variants))
        merged = {k: Obj({tag: kinds, **o.fields}, (tag, *o.required)) for k, o in self.variants.items()}
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "variants", merged)


def _interval(lo, hi, open_lo=False, open_hi=False) -> str:
    left, right = "(" if open_lo or lo == -math.inf else "[", ")" if open_hi or hi == math.inf else "]"
    return f"{left}{lo}, {hi}{right}"


def _walk(spec, v, path: str):
    """v checked against spec, with objects as new dicts of their given keys and
    numbers as floats; a bad value raises ConfigError naming its path."""
    kind = type(spec)  # leaves first: they are most of the nodes
    if kind is Num:
        # JSON reads NaN, Infinity and literals beyond the float range (1e400) as non-finite floats
        finite = isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
        if not finite or not (spec.lo < v if spec.open_lo else spec.lo <= v) or not v < spec.hi:
            bounds = _interval(spec.lo, spec.hi, spec.open_lo, True)
            raise ConfigError(f"{path}: expected a finite number in {bounds}, got {v!r}")
        return float(v)
    if kind is Int:
        integer = isinstance(v, int) and not isinstance(v, bool)
        if not (v is None and spec.null or integer and spec.lo <= v <= spec.hi):
            null = " or null" if spec.null else ""
            raise ConfigError(f"{path}: expected an integer in {_interval(spec.lo, spec.hi)}{null}, got {v!r}")
        return v
    if kind is Choice:
        if not isinstance(v, str) or v not in spec.options:
            raise ConfigError(f"{path}: expected one of {list(spec.options)}, got {v!r}")
        return v
    if kind is Bool:
        if not isinstance(v, bool):
            raise ConfigError(f"{path}: expected true or false, got {v!r}")
        return v
    if kind is List:
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{path}: expected a nonempty list, got {v!r}")
        return [_walk(spec.item, x, f"{path}[{i}]") for i, x in enumerate(v)]
    if kind is Tagged:  # the tag, checked first, picks the variant; any variant reports a missing tag
        if isinstance(v, dict) and spec.tag in v:
            spec = spec.variants[_walk(spec.kinds, v[spec.tag], f"{path}.{spec.tag}")]
        else:
            spec = spec.variants[spec.kinds.options[0]]
    if not isinstance(v, dict):
        raise ConfigError(f"{path}: expected an object, got {v!r}")
    for key in spec.required:
        if key not in v:
            raise ConfigError(f"{path}.{key}: required")
    for key in v:
        if key not in spec.fields:
            raise ConfigError(f"{path}.{key}: unknown key, expected one of {sorted(spec.fields)}")
    return {key: _walk(spec.fields[key], x, f"{path}.{key}") for key, x in v.items()}


_PRESETS = {"two_task": two_task_suite, "five_task": five_task_suite}
_COUNT, _SEED, _REAL = Int(1), Int(0, _SEED_MAX), Num()
_MOVING_AVERAGE, _POSITIVE = Num(0.0, 1.0), Num(0.0, open_lo=True)

_TASK = Obj({"matrix": List(List(_REAL)), "center": List(_REAL), "noise_sigma": Num(0.0)}, ("matrix", "center"))
_MLP = Obj({
    "n_tasks": _COUNT, "input_dim": _COUNT, "hidden": List(_COUNT), "batch_size": _COUNT,
    "dataset_seed": _SEED, "target_terms": _COUNT, "val_size": _COUNT,
})
_OPTIMIZER = Tagged("kind", {
    "sgd": Obj({}),
    "momentum": Obj({"beta": _MOVING_AVERAGE}),
    "adam": Obj({"beta1": _MOVING_AVERAGE, "beta2": _MOVING_AVERAGE, "eps": _POSITIVE}),
})
_LR = Tagged("kind", {
    "constant": Obj({"eta": Num(0.0)}, ("eta",)),
    # mu > 0 and offset > -1 keep every step size 2 / (mu * (offset + t)) positive
    "inverse_time": Obj({"mu": _POSITIVE, "offset": Num(-1.0, open_lo=True)}),
})
_SCHEME = Obj({
    "kind": Choice(_SCHEMES), "n_groups": Int(1, null=True), "task_order": Choice(_ORDER_POLICIES),
    "optimizer": _OPTIMIZER, "lr": _LR, "fresh_minibatch_per_task": Bool(),
}, ("kind", "optimizer", "lr"))
_QUADRATIC = Obj({"preset": Choice(tuple(_PRESETS)), "tasks": List(_TASK)})
_VERIFY = Obj({"T_list": List(_COUNT), "replicates": Int(2), "lemma_steps": Int(2), "lemma_replicates": Int(2)})

SCHEMA = Obj({
    "objective": Tagged("family", {"quadratic": _QUADRATIC, "mlp": _MLP}),
    "scheme": _SCHEME, "schemes": List(_SCHEME), "steps": _COUNT, "seeds": List(_SEED),
    "validation_every": _COUNT, "w0": List(_REAL), "verify": _VERIFY,
}, ("objective",))


def _build_objective(fields: dict):
    if fields.pop("family") == "mlp":
        return synthetic_mlp_suite(**fields)
    if ("preset" in fields) == ("tasks" in fields):
        raise ConfigError("config.objective: the quadratic family needs exactly one of 'preset' or 'tasks'")
    if "preset" in fields:
        return _PRESETS[fields["preset"]]()
    tasks = []
    for i, task in enumerate(fields["tasks"]):
        try:  # a symmetric matrix that matches its center
            tasks.append(QuadraticTask(i, **task))
        except ValueError as exc:
            raise ConfigError(f"config.objective.tasks[{i}]: {exc}") from exc
    try:  # all of one dimension
        return QuadraticSuite(tasks)
    except ValueError as exc:
        raise ConfigError(f"config.objective.tasks: {exc}") from exc


def _build_lr(fields: dict, path: str, suite):
    if fields.pop("kind") == "constant":
        return ConstantLR(**fields)
    if len(fields) == 1:
        raise ConfigError(f"{path}: inverse_time needs both 'mu' and 'offset', or neither")
    if fields:
        lr = InverseTimeLR(**fields)
        # step sizes only shrink with t; at(1) is inf when mu * (offset + 1) underflows to 0
        if not math.isfinite(lr.at(1)):
            raise ConfigError(f"{path}: the first step size 2 / (mu * (offset + 1)) overflows")
        return lr
    if not isinstance(suite, QuadraticSuite):
        raise ConfigError(f"{path}: inverse_time without mu/offset needs a quadratic objective")
    try:
        # only L and mu feed the schedule, so an overflow in w_star or f_star is no error here
        with np.errstate(all="ignore"):
            consts = suite_constants(suite)
        return theorem_schedule(consts.smoothness, consts.strong_convexity)
    except (ValueError, OverflowError) as exc:  # a curvature matrix not positive definite, or 2L/mu overflows
        raise ConfigError(f"{path}: {exc}") from exc


def _build_scheme(fields: dict, path: str, suite) -> SchemeConfig:
    n_groups = fields.get("n_groups")
    if n_groups is not None and n_groups > suite.n_tasks:
        raise ConfigError(f"{path}.n_groups: expected at most {suite.n_tasks} (the task count), got {n_groups}")
    fields["scheme"] = fields.pop("kind")
    fields["optimizer"] = OptimizerRule(**fields["optimizer"])
    fields["lr"] = _build_lr(fields["lr"], f"{path}.lr", suite)
    try:  # the schema admits only known schemes and orders, so n_groups is what remains
        return SchemeConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}.n_groups: {exc}") from exc


_VERIFY_DEFAULTS = {"T_list": [10, 100, 1000], "replicates": 200, "lemma_steps": 50, "lemma_replicates": 500}


class RunConfig:
    """Validated configuration plus the objects built from it."""

    def __init__(self, raw: dict):
        cfg = _walk(SCHEMA, raw, "config")
        self.raw = raw
        self.suite = _build_objective(cfg["objective"])

        if "scheme" in cfg and "schemes" in cfg:
            raise ConfigError("config.schemes: give either 'scheme' or 'schemes', not both")
        schemes = {"config.scheme": cfg["scheme"]} if "scheme" in cfg else {
            f"config.schemes[{i}]": s for i, s in enumerate(cfg.get("schemes", []))}
        self.schemes = [_build_scheme(s, path, self.suite) for path, s in schemes.items()]
        self.steps = cfg.get("steps", 1)
        self.seeds = cfg.get("seeds", [0])
        self.validation_every = cfg.get("validation_every", 1)
        self.w0 = None
        if "w0" in cfg:
            if isinstance(self.suite, MLPSuite):
                raise ConfigError("config.w0: mlp objectives are initialized from the run seed")
            if len(cfg["w0"]) != self.suite.dim:
                raise ConfigError(f"config.w0: expected {self.suite.dim} numbers, got {len(cfg['w0'])}")
            self.w0 = np.asarray(cfg["w0"])

        self.verify = {**_VERIFY_DEFAULTS, **cfg.get("verify", {})}
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"config.seeds: values must be distinct, got {self.seeds}")
        t_list = self.verify["T_list"]
        if len(set(t_list)) < len(t_list):
            raise ConfigError(f"config.verify.T_list: values must be distinct, got {t_list}")
        if len(t_list) < 3 or max(t_list) < 100 * min(t_list):
            raise ConfigError("config.verify.T_list: the rate fit needs 3 or more values with max >= 100 * min")

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
