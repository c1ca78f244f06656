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
    out, state = apply(rule, state, g)
    assert np.array_equal(out, g)
    assert state.step == 1
    _, state = apply(rule, state, g)
    assert state.step == 2


def test_momentum_hand_recurrence():
    rule = OptimizerRule("momentum", beta=0.9)
    state = fresh_state(rule, 1)
    first, state = apply(rule, state, np.array([1.0]))
    second, state = apply(rule, state, np.array([1.0]))
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
        d_mom, s_mom = apply(mom, s_mom, g)
        d_sgd, s_sgd = apply(sgd, s_sgd, g)
        assert np.array_equal(d_mom, d_sgd)


def test_adam_zero_gradient_fresh_state():
    rule = OptimizerRule("adam")
    state = fresh_state(rule, 4)
    np.testing.assert_array_equal(apply(rule, state, np.zeros(4))[0], np.zeros(4))


def test_adam_first_step_magnitude_below_one():
    rule = OptimizerRule("adam")
    for g in ([1e-4, -3.0], [250.0, 0.5], [-1e4, 1e-6]):
        state = fresh_state(rule, 2)
        out, _ = apply(rule, state, np.array(g))
        assert np.all(np.abs(out) <= 1.0)


def test_adam_scale_invariance():
    # the returned direction depends on the gradient's shape over time, not
    # its magnitude (up to the eps regularizer)
    rule = OptimizerRule("adam", eps=1e-12)
    gen = np.random.default_rng(0)
    seq = gen.normal(size=(20, 3))
    s1, s2 = fresh_state(rule, 3), fresh_state(rule, 3)
    for g in seq:
        a, s1 = apply(rule, s1, g)
        b, s2 = apply(rule, s2, 1000.0 * g)
    np.testing.assert_allclose(a, b, rtol=1e-6)


def test_adam_constant_gradient_converges_to_sign_pattern():
    rule = OptimizerRule("adam")
    state = fresh_state(rule, 3)
    g = np.array([2.0, -0.3, 5.0])
    for _ in range(500):
        out, state = apply(rule, state, g)
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
        da, sa = apply(rule, sa, ga)
        db, sb = apply(rule, sb, gb)
        interleaved_a.append(da)
        interleaved_b.append(db)

    def isolated(seq):
        state, out = fresh_state(rule, 2), []
        for g in seq:
            d, state = apply(rule, state, g)
            out.append(d)
        return out

    isolated_a, isolated_b = isolated(seq_a), isolated(seq_b)

    for x, y in zip(interleaved_a, isolated_a):
        np.testing.assert_array_equal(x, y)
    for x, y in zip(interleaved_b, isolated_b):
        np.testing.assert_array_equal(x, y)


def test_clone_is_independent():
    # a from_dict(to_dict()) copy does not follow later updates of the original
    rule = OptimizerRule("momentum", beta=0.8)
    state = fresh_state(rule, 2)
    _, state = apply(rule, state, np.array([1.0, 1.0]))
    snap = OptimizerState.from_dict(state.to_dict())
    _, state = apply(rule, state, np.array([5.0, -5.0]))
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
        _, state = apply(rule, state, g)
    twin = OptimizerState.from_dict(state.to_dict())
    for g in tail:
        a, state = apply(rule, state, g)
        b, twin = apply(rule, twin, g)
        np.testing.assert_array_equal(a, b)


def test_state_serialization_round_trip():
    rule = OptimizerRule("adam")
    state = fresh_state(rule, 3)
    for g in np.random.default_rng(1).normal(size=(4, 3)):
        _, state = apply(rule, state, g)
    restored = OptimizerState.from_dict(state.to_dict())
    g = np.array([0.1, 0.2, 0.3])
    np.testing.assert_array_equal(apply(rule, state, g)[0], apply(rule, restored, g)[0])


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


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _extreme_gradients(gen, n, d):
    """Gradients whose entries span 1e-300 to 1e300 in both signs, with rows
    of signed zeros mixed in."""
    gs = gen.choice([-1.0, 1.0], size=(n, d)) * 10.0 ** gen.uniform(-300.0, 300.0, size=(n, d))
    gs[::5] = 0.0
    gs[2::5] = -0.0
    gs[3::5, ::2] = -0.0
    return gs


@pytest.mark.parametrize("kind", ["sgd", "momentum", "adam"])
def test_apply_leaves_its_inputs_alone_and_returns_the_textbook_direction(kind):
    # the contract schemes.step and run's snapshots rely on: the state passed
    # in keeps its m and v objects, their bits and its step, g keeps its
    # bits, and the next state holds new moment arrays; the direction and
    # moments equal the textbook expressions below bit for bit, overflowed
    # moments included
    rule = OptimizerRule(kind, beta=0.7, beta1=0.8, beta2=0.95, eps=1e-6)
    gen = np.random.default_rng(["sgd", "momentum", "adam"].index(kind))
    state = fresh_state(rule, 4)
    m, v = state.m.copy(), None if state.v is None else state.v.copy()
    for t, g in enumerate(_extreme_gradients(gen, 60, 4), start=1):
        given = state
        old_m, old_v = state.m, state.v
        g_before, m_before, v_before = g.copy(), old_m.copy(), None if old_v is None else old_v.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            direction, state = apply(rule, given, g)
            if kind == "sgd":
                want = g
            elif kind == "momentum":
                m = rule.beta * m + g
                want = m
            else:
                m = rule.beta1 * m + (1.0 - rule.beta1) * g
                v = rule.beta2 * v + (1.0 - rule.beta2) * g * g
                m_hat = m / (1.0 - rule.beta1**t)
                v_hat = v / (1.0 - rule.beta2**t)
                want = m_hat / (np.sqrt(v_hat) + rule.eps)
        assert given.m is old_m and given.v is old_v and given.step == t - 1
        assert np.array_equal(_bits(g), _bits(g_before))
        assert np.array_equal(_bits(old_m), _bits(m_before))
        assert np.array_equal(_bits(direction), _bits(want)), (t, g)
        assert not np.shares_memory(direction, g) and not np.shares_memory(direction, state.m)
        assert np.array_equal(_bits(state.m), _bits(m))
        assert state.step == t
        if kind != "sgd":
            assert state.m is not old_m
        if kind == "adam":
            assert state.v is not old_v and not np.shares_memory(state.v, state.m)
            assert np.array_equal(_bits(old_v), _bits(v_before))
            assert np.array_equal(_bits(state.v), _bits(v))
        else:
            assert state.v is None
