"""Shared test helpers."""

import json

import numpy as np


def read_csv_body(path) -> str:
    """File contents minus '#' comment lines (the byte-comparable body)."""
    with open(path, "r", encoding="utf-8") as f:
        return "".join(line for line in f if not line.startswith("#"))


def same_bits(a, b, equal_nan=False) -> bool:
    """Equal values and signbits, so a changed zero sign differs too; a NaN
    differs from everything unless equal_nan, which matches NaN positions."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b, equal_nan=equal_nan) and np.array_equal(np.signbit(a), np.signbit(b))


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def load_strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, which strict JSON lacks."""
    return json.loads(text, parse_constant=_reject_constant)


def loop_unit_value_and_gradient(suite, w, unit, xi):
    """The per-task loop that every unit oracle must reproduce bit for bit: the
    unit's task values added to 0 and their gradients to zeros, in unit order.
    Usable as a suite's unit_value_and_gradient method."""
    loss, g = 0, np.zeros(w.shape)
    for k in unit:  # not sum(), which compensates since Python 3.12
        loss += suite.tasks[k].value(w, xi)
        g += suite.tasks[k].gradient(w, xi)
    return loss, g
