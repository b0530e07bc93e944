import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spindle as sp
from spindle.corpus import MASK_ID
from spindle.diffusion import spindle_alpha_bar_at

positive_h = st.lists(
    st.floats(min_value=0.05, max_value=20.0, allow_nan=False), min_size=1, max_size=16
)


def test_spindle_hand_example():
    # n=2, h=(1,3), T=2, lam=0.2: S(1)=0.2, H~=(-1, 1/3)
    params = sp.ScheduleParams(num_steps=2, lam=0.2)
    raw = sp.spindle_alpha_raw(np.array([1.0, 3.0]), params)
    assert raw[1] == pytest.approx([0.7, 1 / 2 - 0.2 / 3], abs=1e-12)
    weighted = (raw[1] * [1.0, 3.0]).sum() / 4.0
    assert weighted == pytest.approx(0.5, abs=1e-12)


def test_lam_zero_is_linear():
    params = sp.ScheduleParams(num_steps=4, lam=0.0)
    sched = sp.spindle_schedule(np.array([0.3, 5.0, 1.1]), params)
    expected = 1.0 - np.arange(5) / 4.0
    assert np.allclose(sched.alpha_bar, expected[:, None], atol=1e-15)


def test_uniform_h_is_linear_for_any_lam():
    params = sp.ScheduleParams(num_steps=8, lam=0.9)
    sched = sp.spindle_schedule(np.full(5, 2.7), params)
    expected = 1.0 - np.arange(9) / 8.0
    assert np.allclose(sched.alpha_bar, expected[:, None], atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(h=positive_h, lam=st.floats(0.0, 1.0), T=st.integers(2, 64))
def test_spindle_identity_preclamp(h, lam, T):
    h = np.array(h)
    raw = sp.spindle_alpha_raw(h, sp.ScheduleParams(num_steps=T, lam=lam))
    weighted = raw @ h / h.sum()
    target = 1.0 - np.arange(T + 1) / T
    assert np.abs(weighted - target).max() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(h=positive_h, lam=st.floats(0.0, 2.0), T=st.integers(1, 32))
def test_schedule_invariants(h, lam, T):
    sched = sp.spindle_schedule(np.array(h), sp.ScheduleParams(num_steps=T, lam=lam))
    a = sched.alpha_bar
    assert np.all(a[0] == 1.0) and np.all(a[-1] == 0.0)
    assert np.all((a >= 0.0) & (a <= 1.0))
    assert np.all(np.diff(a, axis=0) <= 1e-15)


def test_ordering_informative_masked_earlier():
    h = np.array([0.2, 1.0, 3.0, 9.0])
    raw = sp.spindle_alpha_raw(h, sp.ScheduleParams(num_steps=16, lam=0.4))
    for t in range(1, 16):
        row = raw[t]
        assert row[0] > row[1] > row[2] > row[3]


def test_degenerate_beta_formula():
    for T in (1, 2, 5, 64, 500, 2048):
        sched = sp.flat_schedule(2, sp.ScheduleParams(num_steps=T, lam=0.0))
        a = sched.alpha_bar[:, 0]
        for t in range(1, T + 1):
            beta = 1.0 - (a[t] / a[t - 1] if a[t - 1] > 0 else 0.0)
            assert abs(beta - 1.0 / (T - t + 1)) <= 1e-12


def test_schedule_rejects_bad_h():
    params = sp.ScheduleParams(num_steps=4)
    with pytest.raises(ValueError):
        sp.spindle_schedule(np.array([1.0, 0.0]), params)
    with pytest.raises(ValueError):
        sp.spindle_schedule(np.array([1.0, np.inf]), params)


def test_clamp_events_counted():
    # extreme lam pushes raw far outside [0, 1]
    sched = sp.spindle_schedule(np.array([0.01, 10.0]), sp.ScheduleParams(num_steps=8, lam=2.0))
    assert sched.clamp_events > 0
    assert np.all((sched.alpha_bar >= 0) & (sched.alpha_bar <= 1))


# repeated values give ties; 0.05 against 20 spreads h~ far enough that
# lam * pi * h~ > 1, where the raw curve dips below 0 before t = T
tied_h = st.lists(
    st.one_of(st.sampled_from([0.05, 1.0, 20.0]), st.floats(0.05, 20.0)),
    min_size=1, max_size=16,
)


@settings(max_examples=150, deadline=None)
# h = 20 dips below 0 (lam*pi*h~ = 1.57), h = 0.05 rises above 1
@example(h=[0.05, 20.0, 20.0], lam=1.5, eps=0.0, T=64)
@given(
    h=tied_h,
    lam=st.floats(0.0, 2.0),
    eps=st.floats(0.0, 0.49),
    T=st.one_of(st.integers(1, 64), st.integers(1, 2048)),
)
def test_closed_form_rows_match_dense_schedule(h, lam, eps, T):
    h = np.array(h)
    params = sp.ScheduleParams(num_steps=T, lam=lam, clamp_eps=eps)
    dense = sp.spindle_schedule(h, params).alpha_bar
    rows = spindle_alpha_bar_at(h, np.arange(T + 1), params)
    assert rows.shape == dense.shape
    assert np.abs(rows - dense).max() <= 1e-12
    # a batch of h rows, each at its own t
    t = np.arange(T + 1)[::-1]
    batch = spindle_alpha_bar_at(np.broadcast_to(h, (T + 1, len(h))), t, params)
    assert np.abs(batch - dense[t]).max() <= 1e-12
    with pytest.raises(ValueError):
        spindle_alpha_bar_at(h, T + 1, params)


def test_forward_marginal_boundaries(word_corpus):
    sched = sp.flat_schedule(3, sp.ScheduleParams(num_steps=4, lam=0.0))
    x0 = np.array([5, 6, 7])
    g0 = sp.forward_marginal(x0, 0, sched, 10)
    assert np.all(g0[np.arange(3), x0] == 1.0)
    gT = sp.forward_marginal(x0, 4, sched, 10)
    assert np.all(gT[:, MASK_ID] == 1.0)
    with pytest.raises(ValueError):
        sp.forward_marginal(x0, 5, sched, 10)


def test_forward_marginal_direct_readout():
    ab = np.array([[1.0], [0.72], [0.0]])
    sched = sp.schedule_from_alpha_bar(ab)
    g = sp.forward_marginal(np.array([4]), 1, sched, 6)
    assert g[0, 4] == pytest.approx(0.72) and g[0, MASK_ID] == pytest.approx(0.28)
    assert g.sum() == pytest.approx(1.0, abs=1e-12)


def test_forward_sample_boundaries_and_determinism():
    sched = sp.flat_schedule(4, sp.ScheduleParams(num_steps=6, lam=0.0))
    x0 = np.array([5, 6, 7, 8])
    assert np.array_equal(sp.forward_sample(x0, 0, sched, 1), x0)
    assert np.all(sp.forward_sample(x0, 6, sched, 1) == MASK_ID)
    a = sp.forward_sample(x0, 3, sched, 42)
    b = sp.forward_sample(x0, 3, sched, 42)
    assert np.array_equal(a, b)


def test_posterior_reveal_stay_split():
    ab = np.array([[1.0], [0.8], [0.6], [0.0]])
    sched = sp.schedule_from_alpha_bar(ab)
    g = sp.posterior(np.array([MASK_ID]), np.array([4]), 2, sched, 6)
    assert g[0, 4] == pytest.approx(0.5) and g[0, MASK_ID] == pytest.approx(0.5)


def test_posterior_unmasked_is_point_mass():
    sched = sp.flat_schedule(2, sp.ScheduleParams(num_steps=4, lam=0.0))
    g = sp.posterior(np.array([4, MASK_ID]), np.array([4, 5]), 2, sched, 8)
    assert g[0, 4] == 1.0 and g[0].sum() == 1.0


def test_posterior_t1_reveals_surely():
    sched = sp.flat_schedule(2, sp.ScheduleParams(num_steps=4, lam=0.0))
    g = sp.posterior(np.array([MASK_ID, MASK_ID]), np.array([4, 5]), 1, sched, 8)
    assert g[0, 4] == 1.0 and g[1, 5] == 1.0


def test_posterior_errors():
    sched = sp.flat_schedule(2, sp.ScheduleParams(num_steps=4, lam=0.0))
    with pytest.raises(ValueError):  # inconsistent pair
        sp.posterior(np.array([6, 5]), np.array([4, 5]), 2, sched, 8)
    ab = np.array([[1.0, 1.0], [1.0, 0.5], [0.0, 0.0]])
    sched2 = sp.schedule_from_alpha_bar(ab)
    with pytest.raises(ValueError):  # masked position with retention 1
        sp.posterior(np.array([MASK_ID, MASK_ID]), np.array([4, 5]), 1, sched2, 8)


def test_skip_posterior_reduces_to_posterior():
    sched = sp.spindle_schedule(np.array([0.5, 2.0]), sp.ScheduleParams(num_steps=8, lam=0.3))
    xt = np.array([MASK_ID, 5])
    x0 = np.array([4, 5])
    a = sp.skip_posterior(xt, x0, 5, 4, sched, 8)
    b = sp.posterior(xt, x0, 5, sched, 8)
    assert np.allclose(a, b, atol=1e-15)


def test_skip_posterior_hand_value():
    ab = np.array([[1.0], [0.9], [0.3], [0.0]])
    sched = sp.schedule_from_alpha_bar(ab)
    g = sp.skip_posterior(np.array([MASK_ID]), np.array([4]), 2, 1, sched, 6)
    assert g[0, 4] == pytest.approx(6 / 7)
    assert g[0, MASK_ID] == pytest.approx(1 / 7)


def test_skip_posterior_s0_reveals():
    sched = sp.spindle_schedule(np.array([1.0, 2.0]), sp.ScheduleParams(num_steps=8, lam=0.2))
    g = sp.skip_posterior(np.array([MASK_ID, MASK_ID]), np.array([4, 5]), 6, 0, sched, 8)
    assert g[0, 4] == 1.0 and g[1, 5] == 1.0
    with pytest.raises(ValueError):
        sp.skip_posterior(np.array([MASK_ID]), np.array([4]), 3, 3, sched, 8)


@settings(max_examples=40, deadline=None)
@given(h=positive_h, lam=st.floats(0.0, 1.0), T=st.integers(2, 16), seed=st.integers(0, 999))
def test_posterior_rows_are_distributions(h, lam, T, seed):
    h = np.array(h)
    rng = np.random.default_rng(seed)
    sched = sp.spindle_schedule(h, sp.ScheduleParams(num_steps=T, lam=lam))
    n = len(h)
    x0 = rng.integers(4, 10, size=n)
    t = int(rng.integers(1, T + 1))
    mask = (rng.random(n) < 0.5) & (sched.alpha_bar[t] < 1.0)
    xt = np.where(mask, MASK_ID, x0)
    g = sp.posterior(xt, x0, t, sched, 10)
    assert np.all(g >= 0)
    assert np.allclose(g.sum(axis=1), 1.0, atol=1e-9)


def test_chapman_kolmogorov_two_state():
    """Marginal at t equals marginal at s composed with the skip transition."""
    h = np.array([0.4, 1.0, 3.3])
    sched = sp.spindle_schedule(h, sp.ScheduleParams(num_steps=12, lam=0.6))
    a = sched.alpha_bar
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
    sched = sp.spindle_schedule(h, sp.ScheduleParams(num_steps=T, lam=0.4))
    a = sched.alpha_bar
    rng = np.random.default_rng(7)
    m = 40_000
    x = np.ones((m, 4), dtype=bool)  # True = still original token
    for t in range(1, T + 1):
        beta_t = np.where(a[t - 1] > 0, 1.0 - a[t] / np.where(a[t - 1] > 0, a[t - 1], 1.0), 0.0)
        x &= rng.random((m, 4)) >= beta_t
        p = a[t]
        sigma = np.sqrt(np.maximum(p * (1 - p), 1e-12) / m)
        assert np.all(np.abs(x.mean(axis=0) - p) <= 3 * sigma + 1e-9)
