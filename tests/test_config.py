"""Bad configs generated from the schema table, and the table's bounds
against the README's.

Every node of `SCHEMA` is reached in one of the valid BASES. Each node is
given a wrong type and a boolean; a number also NaN, Infinity, -Infinity, the
bare literal 1e400 and an integer beyond the float range; a bounded value one
just outside each bound; an object an unknown key and, in turn, each missing
required key. Each case must exit 1 with `config error:` and the path of the
bad field, print no traceback and make no output directory.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mtlopt.cli import main
from mtlopt.config import SCHEMA, Bool, Choice, Int, List, Num, Obj, RunConfig, Tagged

SCHEME = {
    "kind": "ius",
    "n_groups": 1,
    "task_order": "fixed",
    "optimizer": {"kind": "momentum", "beta": 0.9},
    "lr": {"kind": "inverse_time", "mu": 1.0, "offset": 1.0},
    "fresh_minibatch_per_task": True,
}
ADAM_SCHEME = {
    "kind": "io",
    "optimizer": {"kind": "adam", "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
    "lr": {"kind": "constant", "eta": 0.1},
}

# valid configs that between them hold every key and variant of the table
BASES = [
    {
        "objective": {"family": "quadratic", "tasks": [{"matrix": [[1.0]], "center": [2.0], "noise_sigma": 0.3}]},
        "scheme": SCHEME,
        "steps": 2,
        "seeds": [0],
        "validation_every": 1,
        "w0": [0.0],
        "verify": {"T_list": [10, 100, 1000], "replicates": 2, "lemma_steps": 2, "lemma_replicates": 2},
    },
    {
        "objective": {"family": "quadratic", "preset": "two_task"},
        "schemes": [SCHEME, ADAM_SCHEME, {"kind": "sus", "optimizer": {"kind": "sgd"}, "lr": {"kind": "constant", "eta": 0.1}}],
    },
    {
        "objective": {"family": "mlp", "n_tasks": 2, "input_dim": 1, "hidden": [2], "batch_size": 2,
                      "dataset_seed": 7, "target_terms": 1, "val_size": 2},
        "scheme": ADAM_SCHEME,
    },
]


def table_paths(spec, path="config"):
    """Every path of the table, every variant's keys included; list entries are []."""
    paths = {path}
    if isinstance(spec, Tagged):
        for variant in spec.variants.values():
            paths |= table_paths(variant, path)
    elif isinstance(spec, Obj):
        for key, field in spec.fields.items():
            paths |= table_paths(field, f"{path}.{key}")
    elif isinstance(spec, List):
        paths |= table_paths(spec.item, f"{path}[]")
    return paths


def config_nodes(spec, value, path="config", keys=()):
    """(path, keys, spec, value) of every node of a valid config."""
    yield path, keys, spec, value
    if isinstance(spec, Tagged):
        spec = spec.variants[value[spec.tag]]
    if isinstance(spec, Obj):
        for key, v in value.items():
            yield from config_nodes(spec.fields[key], v, f"{path}.{key}", (*keys, key))
    elif isinstance(spec, List):
        for i, v in enumerate(value):
            yield from config_nodes(spec.item, v, f"{path}[{i}]", (*keys, i))


# table path -> (base, path, keys, spec, value) of its first node in BASES
NODES = {}
for _base in BASES:
    for _path, _keys, _spec, _value in config_nodes(SCHEMA, _base):
        NODES.setdefault(re.sub(r"\[\d+\]", "[]", _path), (_base, _path, _keys, _spec, _value))

# "<1e400>" is written as the bare literal 1e400, which JSON reads as an infinity;
# 10**400 is an integer that no float holds
NON_FINITE = [float("nan"), float("inf"), float("-inf"), "<1e400>", 10**400]


def bad_cases(path, spec, value):
    """(replacement for the node's value, path the error must name)."""
    cases = [("x", path), (0 if isinstance(spec, Bool) else True, path)]
    if isinstance(spec, Choice):
        cases.append((1, path))
    elif isinstance(spec, Int):
        cases += [(2.0, path), (spec.lo - 1, path)]
        cases += [] if spec.null else [(None, path)]
        cases += [] if spec.hi == math.inf else [(spec.hi + 1, path)]
    elif isinstance(spec, Num):
        cases += [(v, path) for v in NON_FINITE]
        if spec.lo > -math.inf:
            cases.append((spec.lo if spec.open_lo else float(np.nextafter(spec.lo, -math.inf)), path))
        if spec.hi < math.inf:
            cases.append((spec.hi, path))
    elif isinstance(spec, List):
        cases.append(([], path))
    elif isinstance(spec, (Obj, Tagged)):
        cases.append(({**value, "unknown_key": 0}, f"{path}.unknown_key"))
        obj = spec.variants[value[spec.tag]] if isinstance(spec, Tagged) else spec
        cases += [({k: v for k, v in value.items() if k != key}, f"{path}.{key}") for key in obj.required]
    return cases


def replaced(base, keys, new):
    if not keys:
        return new
    cfg = json.loads(json.dumps(base))
    parent = cfg
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = new
    return cfg


def test_bases_are_valid_and_reach_every_path_of_the_table():
    for base in BASES:
        RunConfig(base)
    assert set(NODES) == table_paths(SCHEMA)


@pytest.mark.parametrize("table_path", sorted(NODES))
def test_bad_value_at_every_path_is_a_config_error(tmp_path, capsys, table_path):
    base, path, keys, spec, value = NODES[table_path]
    for i, (new, named) in enumerate(bad_cases(path, spec, value)):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(replaced(base, keys, new)).replace('"<1e400>"', "1e400"))
        out = tmp_path / f"out{i}"
        assert main(["run", str(cfg), "--out", str(out)]) == 1, (path, new)
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named}: "), (new, err)
        assert "Traceback" not in err
        assert not out.exists()


def test_every_closed_bound_is_accepted():
    for base, path, keys, spec, _ in NODES.values():
        bounds = []
        if isinstance(spec, Int):
            bounds = [spec.lo] + ([] if spec.hi == math.inf else [spec.hi])
        elif isinstance(spec, Num) and not spec.open_lo and spec.lo > -math.inf:
            bounds = [spec.lo]
        for bound in bounds:
            RunConfig(replaced(base, keys, bound))


README = Path(__file__).resolve().parent.parent / "README.md"
# the names that the Ranges bullet's "the mlp sizes" stands for
MLP_SIZES = ("n_tasks", "input_dim", "hidden", "batch_size", "target_terms", "val_size")


def _bound(text):
    """A README bound: a decimal, or an integer power less an integer such as 2**64 - 1."""
    power = re.fullmatch(r"(\d+)\*\*(\d+) - (\d+)", text)
    return int(power[1]) ** int(power[2]) - int(power[3]) if power else float(text)


def readme_ranges() -> dict:
    """name -> (lo, open_lo, hi, open_hi) from the README's "Ranges" bullet,
    whose clauses read "<names> at least X", "<names> above X" or "<names> in `[a, b)`"."""
    text = README.read_text(encoding="utf-8")
    bullet = re.search(r"^- Ranges: (.*?)\.\n(?=- )", text, re.M | re.S)[1]
    ranges = {}
    for clause in " ".join(bullet.split()).split("; "):
        names, kind, value = re.fullmatch(r"(.*) (at least|above|in) (.*)", clause).groups()
        if kind == "in":
            left, lo, hi, right = re.fullmatch(r"`([\[(])(.*), (.*)([\])])`", value).groups()
            interval = (_bound(lo), left == "(", _bound(hi), right == ")")
        else:
            interval = (_bound(value), kind == "above", math.inf, True)
        keys = re.findall(r"`(\w+)`", names) + list(MLP_SIZES if "the mlp sizes" in names else ())
        assert keys, clause
        for key in keys:
            assert key not in ranges, key
            ranges[key] = interval
    return ranges


def schema_ranges() -> dict:
    """name -> (lo, open_lo, hi, open_hi) of every bounded number or count in
    SCHEMA, a list's entries named by the list's key."""
    ranges = {}
    for path, (_, _, _, spec, _) in NODES.items():
        name = path.rsplit(".", 1)[-1].replace("[]", "")
        if isinstance(spec, Int):
            interval = (spec.lo, False, spec.hi, spec.hi == math.inf)
        elif isinstance(spec, Num) and (spec.lo > -math.inf or spec.hi < math.inf):
            interval = (spec.lo, spec.open_lo, spec.hi, True)
        else:
            continue
        assert ranges.setdefault(name, interval) == interval, name
    return ranges


def test_every_bound_of_the_table_is_the_readme_range():
    assert schema_ranges() == readme_ranges()
