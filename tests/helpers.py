"""Shared test helpers."""

import numpy as np


def read_csv_body(path) -> str:
    """File contents minus '#' comment lines (the byte-comparable body)."""
    with open(path, "r", encoding="utf-8") as f:
        return "".join(line for line in f if not line.startswith("#"))


def loop_unit_value_and_gradient(suite, w, unit, xi):
    """The per-task loop that every unit oracle must reproduce bit for bit: the
    unit's task values added to 0 and their gradients to zeros, in unit order.
    Usable as a suite's unit_value_and_gradient method."""
    loss, g = 0, np.zeros(w.shape)
    for k in unit:  # not sum(), which compensates since Python 3.12
        loss += suite.tasks[k].value(w, xi)
        g += suite.tasks[k].gradient(w, xi)
    return loss, g
