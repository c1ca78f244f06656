"""Flat parameter vectors and the seeded randomness contract.

Parameters are plain 1-D float64 numpy arrays. All arithmetic partners must
share the same dimension and every entry must stay finite; violations raise
instead of propagating NaN/Inf through a run.
"""

import hashlib
import math

import numpy as np

try:  # numpy's C count, without np.count_nonzero's Python-level dispatch
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:  # numpy < 2 has no numpy._core
    _count_nonzero = np.count_nonzero

__all__ = [
    "DimensionMismatchError",
    "NonFiniteError",
    "as_params",
    "all_finite",
    "check_finite",
    "axpy",
    "l2_norm",
    "RngStream",
]


class DimensionMismatchError(ValueError):
    """Operands do not share the same parameter dimension."""


class NonFiniteError(FloatingPointError):
    """A value or operation produced NaN or Inf."""


def as_params(values) -> np.ndarray:
    """Coerce `values` to a validated 1-D float64 parameter vector."""
    w = np.asarray(values, dtype=np.float64)
    if w.ndim != 1:
        raise DimensionMismatchError(f"parameter vector must be 1-D, got shape {w.shape}")
    if w.size < 1:
        raise DimensionMismatchError("parameter vector must have dimension >= 1")
    check_finite(w, "parameter vector")
    return w


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite.

    Exact at every magnitude and warning-free outside any np.errstate scope:
    it counts the entries np.isfinite marks, through numpy's C count_nonzero.
    A scalar test such as x.dot(x) would be cheaper, but outside such a scope
    the dot warns on finite entries above about 1e154, where it overflows.
    """
    return _count_nonzero(np.isfinite(x)) == x.size


def check_finite(arr: np.ndarray, context: str = "value") -> None:
    if not all_finite(arr):
        raise NonFiniteError(f"non-finite entries in {context}")


def axpy(w: np.ndarray, direction: np.ndarray, scale: float) -> np.ndarray:
    """Return w + scale * direction (the elementary update primitive)."""
    if w.shape != direction.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {w.shape} vs {direction.shape}"
        )
    if not math.isfinite(scale):
        raise NonFiniteError("non-finite scale in axpy")
    out = w + scale * direction
    check_finite(out, "axpy result")
    return out


def l2_norm(w: np.ndarray) -> float:
    """Euclidean norm; the Frobenius norm for any other shape.

    Byte contract: for a float64 array whose norm is finite, the result is
    bit for bit float(np.linalg.norm(w)). It runs the same ravel, dot and
    correctly rounded square root without np.linalg.norm's dispatch.

    The sum of squares overflows for entries above about 1e154; such a vector
    is rescaled by its largest magnitude, so its norm is still finite when it
    fits in a float.
    """
    x = w.ravel(order="K")
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(x.dot(x)))
        if not math.isfinite(norm):  # a finite norm implies finite entries
            check_finite(w, "l2_norm input")
            scale = float(np.max(np.abs(w)))
            norm = scale * float(np.linalg.norm(w / scale))
    return norm


def _label_key(label: str) -> int:
    # Stable 64-bit key for a stream label, independent of PYTHONHASHSEED.
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


class RngStream:
    """A named, reproducible random stream.

    Identical (seed, label) pairs yield bit-identical draw sequences; distinct
    labels under one seed give statistically independent streams. Draw via the
    `.gen` numpy Generator.
    """

    def __init__(self, seed: int, label: str):
        self.seed = int(seed) & (2**64 - 1)
        self.label = str(label)
        ss = np.random.SeedSequence(self.seed, spawn_key=(_label_key(self.label),))
        self.gen = np.random.default_rng(ss)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, label={self.label!r})"
