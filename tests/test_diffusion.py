import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spindle as sp
from spindle import oracle
from spindle.diffusion import MAX_STEPS, reveal_from_rows, spindle_alpha_bar_at

positive_h = st.lists(
    st.floats(min_value=0.05, max_value=20.0, allow_nan=False), min_size=1, max_size=16
)


def grid(h, T, lam):
    """Every row t = 0..T of the closed-form schedule, shape (T+1, n)."""
    return spindle_alpha_bar_at(np.asarray(h), np.arange(T + 1), sp.ScheduleParams(T, lam))


def test_spindle_hand_example():
    # n=2, h=(1,3), T=2, lam=0.2: S(1)=0.2, H~=(-1, 1/3)
    params = sp.ScheduleParams(num_steps=2, lam=0.2)
    raw = sp.spindle_alpha_raw(np.array([1.0, 3.0]), 1, params)
    assert raw == pytest.approx([0.7, 1 / 2 - 0.2 / 3], abs=1e-12)
    weighted = (raw * [1.0, 3.0]).sum() / 4.0
    assert weighted == pytest.approx(0.5, abs=1e-12)


def test_lam_zero_is_linear():
    a = grid([0.3, 5.0, 1.1], 4, 0.0)
    expected = 1.0 - np.arange(5) / 4.0
    assert np.allclose(a, expected[:, None], atol=1e-15)


def test_uniform_h_is_linear_for_any_lam():
    a = grid(np.full(5, 2.7), 8, 0.9)
    expected = 1.0 - np.arange(9) / 8.0
    assert np.allclose(a, expected[:, None], atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(h=positive_h, lam=st.floats(0.0, 1.0), T=st.integers(2, 64))
def test_spindle_identity_preclamp(h, lam, T):
    h = np.array(h)
    raw = sp.spindle_alpha_raw(h, np.arange(T + 1), sp.ScheduleParams(num_steps=T, lam=lam))
    weighted = raw @ h / h.sum()
    target = 1.0 - np.arange(T + 1) / T
    assert np.abs(weighted - target).max() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(h=positive_h, lam=st.floats(0.0, 2.0), T=st.integers(1, 32))
def test_schedule_invariants(h, lam, T):
    a = grid(h, T, lam)
    assert np.all(a[0] == 1.0) and np.all(a[-1] == 0.0)
    assert np.all((a >= 0.0) & (a <= 1.0))
    assert np.all(np.diff(a, axis=0) <= 1e-15)


def test_ordering_informative_masked_earlier():
    h = np.array([0.2, 1.0, 3.0, 9.0])
    raw = sp.spindle_alpha_raw(h, np.arange(1, 16), sp.ScheduleParams(num_steps=16, lam=0.4))
    for row in raw:
        assert row[0] > row[1] > row[2] > row[3]


def test_degenerate_beta_formula():
    for T in (1, 2, 5, 64, 500, 2048):
        a = grid(np.ones(2), T, 0.0)[:, 0]
        for t in range(1, T + 1):
            beta = 1.0 - (a[t] / a[t - 1] if a[t - 1] > 0 else 0.0)
            assert abs(beta - 1.0 / (T - t + 1)) <= 1e-12


def test_schedule_rejects_bad_h():
    params = sp.ScheduleParams(num_steps=4)
    with pytest.raises(ValueError):
        spindle_alpha_bar_at(np.array([1.0, 0.0]), 1, params)
    with pytest.raises(ValueError):
        spindle_alpha_bar_at(np.array([1.0, np.inf]), 1, params)
    for lam in (-0.1, np.inf, np.nan):
        with pytest.raises(ValueError):
            sp.ScheduleParams(num_steps=4, lam=lam)
    assert sp.ScheduleParams(num_steps=MAX_STEPS).num_steps == 1 << 32
    with pytest.raises(ValueError, match=rf"^num_steps must be in \[1, {1 << 32}\], got {2**63}$"):
        sp.ScheduleParams(num_steps=2**63)


# repeated values give ties; 0.05 against 20 spreads h~ far enough that
# lam * pi * h~ > 1, where the raw curve dips below 0 before t = T
tied_h = st.lists(
    st.one_of(st.sampled_from([0.05, 1.0, 20.0]), st.floats(0.05, 20.0)),
    min_size=1, max_size=16,
)


@settings(max_examples=150, deadline=None)
# h = 20 dips below 0 (lam*pi*h~ = 1.57), h = 0.05 rises above 1
@example(h=[0.05, 20.0, 20.0], lam=1.5, T=64)
@given(
    h=tied_h,
    lam=st.floats(0.0, 2.0),
    T=st.one_of(st.integers(1, 64), st.integers(1, 2048)),
)
def test_closed_form_rows_match_oracle_grid(h, lam, T):
    h = np.array(h)
    params = sp.ScheduleParams(num_steps=T, lam=lam)
    dense, _ = oracle.spindle_grid(h, T, lam)
    rows = spindle_alpha_bar_at(h, np.arange(T + 1), params)
    assert rows.shape == dense.shape
    assert np.abs(rows - dense).max() <= 1e-12
    # a batch of h rows, each at its own t
    t = np.arange(T + 1)[::-1]
    batch = spindle_alpha_bar_at(np.broadcast_to(h, (T + 1, len(h))), t, params)
    assert np.abs(batch - dense[t]).max() <= 1e-12
    with pytest.raises(ValueError):
        spindle_alpha_bar_at(h, T + 1, params)


def test_clamped_example_matches_oracle_grid():
    """Extreme lam pushes the raw curve out of [0, 1] on both sides: the
    clipped rows still match the oracle's running-minimum grid, and the
    values the oracle moves are exactly the interior raw values outside
    [0, 1]: the running minimum moves none."""
    h, T, lam = np.array([0.01, 10.0]), 8, 2.0
    raw = sp.spindle_alpha_raw(h, np.arange(1, T), sp.ScheduleParams(T, lam))
    assert (raw < 0).any() and (raw > 1).any()
    dense, events = oracle.spindle_grid(h, T, lam)
    assert events == int(((raw < 0) | (raw > 1)).sum()) > 0
    assert np.abs(grid(h, T, lam) - dense).max() <= 1e-12


def test_reveal_hand_values():
    """(alpha_bar[s] - alpha_bar[t]) / (1 - alpha_bar[t]) on hand rows: one
    step back, a skip, the reveal-everything jumps to s = 0 and from t = 1,
    and the value 1 where nothing can be masked at t."""
    assert reveal_from_rows(np.array([0.8]), np.array([0.6])) == pytest.approx([0.5])
    assert reveal_from_rows(np.array([0.9]), np.array([0.3])) == pytest.approx([6 / 7])
    a = grid([1.0, 2.0], 8, 0.2)
    assert np.array_equal(reveal_from_rows(a[0], a[6]), [1.0, 1.0])  # s = 0
    assert np.array_equal(reveal_from_rows(a[0], a[1]), [1.0, 1.0])  # t = 1
    assert np.array_equal(reveal_from_rows(np.ones(2), np.array([1.0, 0.5])), [1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(h=positive_h, lam=st.floats(0.0, 1.0), T=st.integers(2, 16), seed=st.integers(0, 999))
def test_reveal_rows_are_distributions(h, lam, T, seed):
    """For every jump s < t of a spindle schedule, reveal and stay are a
    distribution at each position, and the jump composes from one step back
    and the rest: a [MASK] at t is revealed at t - 1 or, still masked there,
    by s."""
    a = grid(h, T, lam)
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, T + 1))
    s = int(rng.integers(0, t - 1))
    reveal = reveal_from_rows(a[s], a[t])
    assert np.all((reveal >= 0.0) & (reveal <= 1.0))
    step = reveal_from_rows(a[t - 1], a[t])
    composed = step + (1.0 - step) * reveal_from_rows(a[s], a[t - 1])
    assert np.abs(reveal - composed).max() <= 1e-12


def test_chapman_kolmogorov_two_state():
    """Marginal at t equals marginal at s composed with the skip transition."""
    h = np.array([0.4, 1.0, 3.3])
    a = grid(h, 12, 0.6)
    for s in range(0, 12):
        for t in range(s + 1, 13):
            # P(keep at t) must equal P(keep at s) * P(keep s->t)
            keep_jump = np.where(a[s] > 0, a[t] / np.where(a[s] > 0, a[s], 1.0), 0.0)
            assert np.allclose(a[s] * keep_jump, a[t], atol=1e-12)


def test_marginal_consistency_stepwise_vs_direct():
    """Stepwise per-step masking and the direct marginal agree on mask rates
    (Monte Carlo, 3 sigma)."""
    h = np.array([0.5, 1.0, 2.0, 4.0])
    T = 8
    a = grid(h, T, 0.4)
    rng = np.random.default_rng(7)
    m = 40_000
    x = np.ones((m, 4), dtype=bool)  # True = still original token
    for t in range(1, T + 1):
        beta_t = np.where(a[t - 1] > 0, 1.0 - a[t] / np.where(a[t - 1] > 0, a[t - 1], 1.0), 0.0)
        x &= rng.random((m, 4)) >= beta_t
        p = a[t]
        sigma = np.sqrt(np.maximum(p * (1 - p), 1e-12) / m)
        assert np.all(np.abs(x.mean(axis=0) - p) <= 3 * sigma + 1e-9)
