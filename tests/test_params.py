import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mtlopt.params import (
    DimensionMismatchError,
    NonFiniteError,
    RngStream,
    all_finite,
    as_params,
    axpy,
    l2_norm,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec(max_dim=8):
    return st.integers(1, max_dim).flatmap(
        lambda d: arrays(np.float64, d, elements=finite_floats)
    )


def test_axpy_worked_examples():
    np.testing.assert_allclose(
        axpy(np.array([1.0, 0.0]), np.array([0.5, -0.5]), -0.1), [0.95, 0.05]
    )
    np.testing.assert_array_equal(axpy(np.array([2.0]), np.array([2.0]), -0.5), [1.0])
    w = np.array([3.0, -1.0, 7.0])
    np.testing.assert_array_equal(axpy(w, np.zeros(3), 123.0), w)


@given(vec().flatmap(lambda w: st.tuples(st.just(w), arrays(np.float64, len(w), elements=finite_floats))))
@settings(max_examples=100)
def test_axpy_zero_scale_is_exact_identity(pair):
    w, g = pair
    assert np.array_equal(axpy(w, g, 0.0), w)


def test_axpy_errors():
    with pytest.raises(DimensionMismatchError):
        axpy(np.zeros(2), np.zeros(3), 1.0)
    with pytest.raises(NonFiniteError):
        axpy(np.zeros(2), np.ones(2), np.inf)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        axpy(np.array([1e308]), np.array([1e308]), 10.0)  # overflows to inf


# the entries where a cheaper scalar test of finiteness goes wrong: squares
# that overflow from about 1e154 on, squares that underflow, and signed zeros
edge_floats = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e154, -1e154, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(min_value=1e154, max_value=1e308),
    st.floats(min_value=-1e308, max_value=-1e154),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(),
)


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=4), elements=edge_floats))
@settings(max_examples=300)
def test_all_finite_is_exact_and_warns_at_no_magnitude(x):
    # outside any np.errstate scope, where numpy warns on overflow
    assert np.geterr()["over"] == "warn"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = all_finite(x)
    assert got == bool(np.isfinite(x).all())


def test_l2_norm_worked_examples():
    assert l2_norm(np.array([3.0, 4.0])) == 5.0
    assert l2_norm(np.zeros(3)) == 0.0
    assert l2_norm(np.ones(4)) == 2.0


def test_l2_norm_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        l2_norm(np.array([1.0, np.nan]))


def test_l2_norm_of_huge_finite_vector_is_finite_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = l2_norm(np.array([1e200, 1e200]))
        with pytest.raises(NonFiniteError):
            l2_norm(np.array([1e200, np.inf]))
    expected = math.sqrt(2.0) * 1e200
    assert math.isfinite(norm)
    assert abs(norm - expected) <= 1e-15 * expected


@given(st.integers(1, 8).flatmap(lambda d: st.tuples(*(arrays(np.float64, d, elements=finite_floats),) * 3)))
@settings(max_examples=100)
def test_l2_norm_triangle_inequality(triple):
    a, b, c = triple
    assert l2_norm(a - c) <= l2_norm(a - b) + l2_norm(b - c) + 1e-9


def test_as_params_validation():
    assert as_params([1, 2]).dtype == np.float64
    with pytest.raises(DimensionMismatchError):
        as_params([[1.0, 2.0]])
    with pytest.raises(DimensionMismatchError):
        as_params([])
    with pytest.raises(NonFiniteError):
        as_params([1.0, np.inf])


def test_rng_stream_bit_identical_for_same_seed_and_label():
    a = RngStream(42, "data").gen.uniform(size=100)
    b = RngStream(42, "data").gen.uniform(size=100)
    assert np.array_equal(a, b)


def test_rng_stream_labels_give_different_streams():
    a = RngStream(42, "data").gen.uniform(size=100)
    b = RngStream(42, "init").gen.uniform(size=100)
    c = RngStream(43, "data").gen.uniform(size=100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(st.integers(0, 2**63 - 1), st.sampled_from(["data", "init", "grouping", "task-order"]))
@settings(max_examples=25)
def test_rng_stream_determinism_property(seed, label):
    assert np.array_equal(
        RngStream(seed, label).gen.integers(0, 1000, size=16),
        RngStream(seed, label).gen.integers(0, 1000, size=16),
    )


def test_l2_norm_bits_equal_numpy_norm():
    gen = np.random.default_rng(11)
    for d in (1, 3, 1284):
        for _ in range(200):
            x = gen.standard_normal(d) * 10.0 ** gen.uniform(-100.0, 100.0)
            assert l2_norm(x) == float(np.linalg.norm(x))
    for matrix in (gen.standard_normal((40, 33)), gen.standard_normal((33, 40)).T):
        assert l2_norm(matrix) == float(np.linalg.norm(matrix))
