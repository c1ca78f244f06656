import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlopt.optimizers import OptimizerRule, OptimizerState, apply, fresh_state


def gradient_sequences():
    return st.lists(
        st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=2),
        min_size=1,
        max_size=8,
    )


def test_sgd_is_pure_passthrough_and_counts():
    rule = OptimizerRule("sgd")
    state = fresh_state(rule, 3)
    g = np.array([1.5, -2.0, 0.0])
    out = apply(rule, state, g)
    assert np.array_equal(out, g)
    assert state.step == 1
    apply(rule, state, g)
    assert state.step == 2


def test_momentum_hand_recurrence():
    rule = OptimizerRule("momentum", beta=0.9)
    state = fresh_state(rule, 1)
    first = apply(rule, state, np.array([1.0]))
    second = apply(rule, state, np.array([1.0]))
    np.testing.assert_array_equal(first, [1.0])
    np.testing.assert_array_equal(second, [1.9])


@given(gradient_sequences())
@settings(max_examples=50)
def test_momentum_beta_zero_equals_sgd(seq):
    mom = OptimizerRule("momentum", beta=0.0)
    sgd = OptimizerRule("sgd")
    s_mom, s_sgd = fresh_state(mom, 2), fresh_state(sgd, 2)
    for g in seq:
        g = np.array(g)
        assert np.array_equal(apply(mom, s_mom, g), apply(sgd, s_sgd, g))


def test_adam_zero_gradient_fresh_state():
    rule = OptimizerRule("adam")
    state = fresh_state(rule, 4)
    np.testing.assert_array_equal(apply(rule, state, np.zeros(4)), np.zeros(4))


def test_adam_first_step_magnitude_below_one():
    rule = OptimizerRule("adam")
    for g in ([1e-4, -3.0], [250.0, 0.5], [-1e4, 1e-6]):
        state = fresh_state(rule, 2)
        out = apply(rule, state, np.array(g))
        assert np.all(np.abs(out) <= 1.0)


def test_adam_scale_invariance():
    # the returned direction depends on the gradient's shape over time, not
    # its magnitude (up to the eps regularizer)
    rule = OptimizerRule("adam", eps=1e-12)
    gen = np.random.default_rng(0)
    seq = gen.normal(size=(20, 3))
    s1, s2 = fresh_state(rule, 3), fresh_state(rule, 3)
    for g in seq:
        a = apply(rule, s1, g)
        b = apply(rule, s2, 1000.0 * g)
    np.testing.assert_allclose(a, b, rtol=1e-6)


def test_adam_constant_gradient_converges_to_sign_pattern():
    rule = OptimizerRule("adam")
    state = fresh_state(rule, 3)
    g = np.array([2.0, -0.3, 5.0])
    for _ in range(500):
        out = apply(rule, state, g)
    np.testing.assert_allclose(out, np.sign(g), atol=1e-3)


def test_fresh_state_is_zero():
    for rule in (OptimizerRule("sgd"), OptimizerRule("momentum"), OptimizerRule("adam")):
        state = fresh_state(rule, 3)
        assert np.array_equal(state.m, np.zeros(3)) and state.step == 0
        if rule.kind == "adam":
            assert np.array_equal(state.v, np.zeros(3))
        else:
            assert state.v is None


def test_interleaved_states_match_isolated_runs():
    rule = OptimizerRule("momentum", beta=0.9)
    gen = np.random.default_rng(3)
    seq_a = gen.normal(size=(6, 2))
    seq_b = gen.normal(size=(6, 2))

    sa, sb = fresh_state(rule, 2), fresh_state(rule, 2)
    interleaved_a, interleaved_b = [], []
    for ga, gb in zip(seq_a, seq_b):
        interleaved_a.append(apply(rule, sa, ga))
        interleaved_b.append(apply(rule, sb, gb))

    sa2, sb2 = fresh_state(rule, 2), fresh_state(rule, 2)
    isolated_a = [apply(rule, sa2, g) for g in seq_a]
    isolated_b = [apply(rule, sb2, g) for g in seq_b]

    for x, y in zip(interleaved_a, isolated_a):
        np.testing.assert_array_equal(x, y)
    for x, y in zip(interleaved_b, isolated_b):
        np.testing.assert_array_equal(x, y)


def test_clone_is_independent():
    # a from_dict(to_dict()) copy does not follow later updates of the original
    rule = OptimizerRule("momentum", beta=0.8)
    state = fresh_state(rule, 2)
    apply(rule, state, np.array([1.0, 1.0]))
    snap = OptimizerState.from_dict(state.to_dict())
    apply(rule, state, np.array([5.0, -5.0]))
    np.testing.assert_array_equal(snap.m, [1.0, 1.0])
    assert snap.step == 1
    assert state.step == 2


def test_clone_replays_identically():
    rule = OptimizerRule("adam")
    gen = np.random.default_rng(7)
    warmup = gen.normal(size=(5, 2))
    tail = gen.normal(size=(6, 2))
    state = fresh_state(rule, 2)
    for g in warmup:
        apply(rule, state, g)
    twin = OptimizerState.from_dict(state.to_dict())
    for g in tail:
        a = apply(rule, state, g)
        b = apply(rule, twin, g)
        np.testing.assert_array_equal(a, b)


def test_state_serialization_round_trip():
    rule = OptimizerRule("adam")
    state = fresh_state(rule, 3)
    for g in np.random.default_rng(1).normal(size=(4, 3)):
        apply(rule, state, g)
    restored = OptimizerState.from_dict(state.to_dict())
    g = np.array([0.1, 0.2, 0.3])
    np.testing.assert_array_equal(apply(rule, state, g), apply(rule, restored, g))


def test_rule_validation():
    with pytest.raises(ValueError):
        OptimizerRule(kind="nesterov")
    with pytest.raises(ValueError):
        OptimizerRule("momentum", beta=1.0)
    with pytest.raises(ValueError):
        OptimizerRule("adam", eps=0.0)


def test_apply_rejects_non_finite_gradient():
    rule = OptimizerRule("sgd")
    state = fresh_state(rule, 2)
    with pytest.raises(FloatingPointError):
        apply(rule, state, np.array([1.0, np.nan]))
