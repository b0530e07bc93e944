import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spindle as sp
from spindle import _threads, denoiser as dn, sampling
from spindle.corpus import CLS_ID, MASK_ID, PAD_ID
from spindle.diffusion import reveal_from_rows, spindle_alpha_bar_at
from spindle.rng import stream
from spindle.sampling import _draw_top_k, _top_k_rows


def test_top_k_basic():
    row = np.array([2.0, 1.0, 0.5])
    probs = sp.top_k_filter(row, 2, 1.0)
    assert probs[2] == 0.0
    assert probs[0] / probs[1] == pytest.approx(np.e, rel=1e-12)
    assert probs.sum() == pytest.approx(1.0)


def test_top_k_one_is_argmax_point_mass():
    probs = sp.top_k_filter(np.array([0.3, 4.0, -1.0, 4.0 - 1e-12]), 1)
    assert probs[1] == 1.0


def test_top_k_full_is_plain_softmax():
    row = np.array([0.1, -2.0, 3.0, 1.0])
    probs = sp.top_k_filter(row, 4, 1.0)
    ref = np.exp(row - row.max())
    ref /= ref.sum()
    assert np.allclose(probs, ref, atol=1e-12)


def test_top_k_ties_break_to_lower_id():
    row = np.array([1.0, 2.0, 2.0, 2.0])
    probs = sp.top_k_filter(row, 2, 1.0)
    assert probs[1] > 0 and probs[2] > 0
    assert probs[3] == 0.0 and probs[0] == 0.0


def test_top_k_ignores_infinite_rows():
    row = np.array([-np.inf, 1.0, 0.5, -np.inf])
    probs = sp.top_k_filter(row, 10, 2.0)
    assert probs[0] == 0.0 and probs[3] == 0.0
    assert probs.sum() == pytest.approx(1.0)


def test_top_k_validation():
    with pytest.raises(ValueError):
        sp.top_k_filter(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        sp.top_k_filter(np.array([1.0]), 1, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    logits=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=12),
    k=st.integers(1, 12),
    temp=st.floats(0.2, 3.0),
)
def test_top_k_properties(logits, k, temp):
    row = np.array(logits)
    probs = sp.top_k_filter(row, k, temp)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert (probs > 0).sum() <= k


def _full_row_draw(probs, u):
    """Inverse-CDF draw over a whole row: the first id of positive
    probability whose cumulative mass reaches u * total."""
    cum = np.cumsum(probs)
    return int(np.flatnonzero((cum >= u * cum[-1]) & (probs > 0))[0])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batched_top_k_matches_top_k_filter(data):
    """The sampler's batched top-k and draw against `top_k_filter` row by
    row, on logits shaped like the denoiser's (its special columns -inf):
    same kept ids, same probabilities, and the same draw as a full-row
    inverse-CDF draw with the same uniform."""
    K = data.draw(st.integers(4, 12), label="K")
    B, n = data.draw(st.integers(1, 3), label="B"), data.draw(st.integers(1, 4), label="n")
    vals = data.draw(st.lists(st.floats(-5, 5), min_size=B * n * K, max_size=B * n * K))
    logits = np.array(vals).reshape(B, n, K)
    if data.draw(st.booleans(), label="round"):
        logits = np.round(logits)  # many ties, also at the k-th value
    logits[..., dn.SPECIAL_IDS] = -np.inf
    masked = np.array(data.draw(st.lists(st.booleans(), min_size=B * n, max_size=B * n),
                                label="masked")).reshape(B, n)
    k = data.draw(st.integers(1, K + 2), label="k")
    temp = data.draw(st.floats(0.2, 3.0), label="temp")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

    kept, probs = _top_k_rows(logits[masked], k, temp)
    drawn = _draw_top_k(kept, probs, masked, np.random.default_rng(seed))
    u = np.random.default_rng(seed).random(B * n)[masked.ravel()]
    assert len(drawn) == masked.sum()
    for row, ids, p, ui, d in zip(logits[masked], kept, probs, u, drawn):
        ref = sp.top_k_filter(row, k, temp)
        assert np.array_equal(ids, np.flatnonzero(ref))
        assert np.allclose(p, ref[ids], rtol=0, atol=1e-12)
        assert d == _full_row_draw(ref, ui)


def _denoiser_like_logits(rng, m, K, dtype, kinds):
    """(m, K) logits with -inf special columns; each row is N(0, 1.1), the
    same rounded to one decimal (ties, also at the k-th value), all one
    value, or all zero, as `kinds` says."""
    logits = rng.normal(0.0, 1.1, size=(m, K))
    for row, kind in zip(logits, kinds):
        if kind == "rounded":
            row[:] = np.round(row, 1)
        elif kind == "tied":
            row[:] = row[0]
        elif kind == "zero":
            row[:] = 0.0
    logits = logits.astype(dtype)
    logits[:, dn.SPECIAL_IDS] = -np.inf
    return logits


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_group_pass_matches_top_k_filter(data):
    """With a small group width, so that the group pass runs at K up to
    about 2,000, `_top_k_rows` keeps `top_k_filter`'s ids and probabilities
    row by row, and returns the bytes of the whole-row path."""
    w = data.draw(st.sampled_from([2, 3, 4, 8]), label="w")
    K = data.draw(st.integers(2 * w * w, 2000), label="K")
    k_range = data.draw(st.sampled_from([(1, K // w // w)] * 3 + [(1, K), (K - 3, K)]))
    k = data.draw(st.integers(*k_range), label="k")  # mostly where the group pass runs
    m = data.draw(st.integers(1, 4), label="m")
    kinds = data.draw(st.lists(st.sampled_from(["normal"] * 3 + ["rounded"] * 2 + ["tied", "zero"]),
                               min_size=m, max_size=m), label="kinds")
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    temp = data.draw(st.floats(0.2, 3.0), label="temp")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    logits = _denoiser_like_logits(rng, m, K, dtype, kinds)

    with mock.patch.object(sampling, "_GROUP", w):
        kept, probs = _top_k_rows(logits, k, temp)
    with mock.patch.object(sampling, "_GROUP", K + 1):  # no group: the whole row
        whole = _top_k_rows(logits, k, temp)
    assert kept.tobytes() == whole[0].tobytes() and probs.tobytes() == whole[1].tobytes()
    for row, ids, p in zip(logits, kept, probs):
        ref = sp.top_k_filter(row, k, temp)
        assert np.array_equal(ids, np.flatnonzero(ref))
        assert np.allclose(p, ref[ids], rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape, width", [
    ((48, 30522), sampling._GROUP * 30 + 30522 % sampling._GROUP),  # k groups and the tail
    ((90, 2004), 2004),  # desk: 125 groups cannot shrink the row 16-fold
    ((25, 2004), 2004),
])
def test_selection_core_sees_only_the_chosen_groups_where_they_shrink_the_row(
        monkeypatch, shape, width):
    """At top-k 30 the selection core is handed the columns of the 30 chosen
    groups and the tail at the vocab30k shape, and the whole row at K = 2004."""
    core, widths = sampling._top_k_cols, []

    def recording(logits, k_eff):
        widths.append(logits.shape[1])
        return core(logits, k_eff)

    monkeypatch.setattr(sampling, "_top_k_cols", recording)
    logits = _denoiser_like_logits(np.random.default_rng(3), *shape, np.float32,
                                   ["normal"] * shape[0])
    _top_k_rows(logits, 30, 1.0)
    assert widths == [width]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("col", [7, 20000, 30521])  # columns 30512 on are the tail
def test_one_nan_at_the_bert_vocab_raises(dtype, col):
    """A NaN in a group sends the call to the whole-row path, and one in
    the tail reaches the selection core with the chosen groups; both raise."""
    logits = _denoiser_like_logits(np.random.default_rng(4), 6, 30522, dtype, ["normal"] * 6)
    logits[2, col] = np.nan
    with pytest.raises(ValueError, match="^denoiser logits contain NaN$"):
        _top_k_rows(logits, 30, 1.0)


def test_a_nan_group_outranked_by_tied_group_maxima_still_raises():
    """k = 3, and a NaN in group 7. Group 6 holds 5.0 and 4.5, and groups 8
    and 9 tie at 3.0, so exactly k groups reach the k-th largest group
    maximum (NaN ranks largest) without group 7. The whole-row path raises
    here, since only two logits reach the row's 2nd largest real value, 4.5;
    a NaN among the group maxima must send the row there."""
    K = 30522
    nb = K // sampling._GROUP
    logits = np.random.default_rng(5).uniform(-1, 1, size=(2, K))
    logits[:, dn.SPECIAL_IDS] = -np.inf
    logits[1, [6, 6 + nb, 8, 9]] = 5.0, 4.5, 3.0, 3.0
    logits[1, 7 + 2 * nb] = np.nan
    with pytest.raises(ValueError, match="^denoiser logits contain NaN$"):
        _top_k_rows(logits, 3, 1.0)


@pytest.mark.parametrize("temperature", [1e-3, 1e-308, 5e-324])
def test_tiny_temperature_puts_all_mass_on_the_largest_logit(temperature):
    """Top-k subtracts the largest kept logit before it divides by the
    temperature, so down to the smallest subnormal no probability is NaN
    and no RuntimeWarning is raised: the draw is the largest logit's id."""
    row = np.full(7, -np.inf)
    row[[3, 4, 6]] = 0.5, 2.0, 1.0
    kept, probs = _top_k_rows(row[None], 3, temperature)
    drawn = _draw_top_k(kept, probs, np.ones((1, 1), dtype=bool), np.random.default_rng(0))
    assert drawn.tolist() == [4]
    assert sp.top_k_filter(row, 3, temperature).tolist() == [0, 0, 0, 0, 1, 0, 0]


class _ZeroUniforms:
    def random(self, size):
        return np.zeros(size)


@pytest.mark.parametrize("tied", [False, True])
def test_draw_at_zero_uniform_is_lowest_kept_id(tied):
    """u = 0 draws the lowest kept id, never a special column."""
    K = 10
    logits = np.zeros((2, 3, K)) if tied else np.random.default_rng(0).normal(size=(2, 3, K))
    logits[..., dn.SPECIAL_IDS] = -np.inf
    masked = np.array([[True, False, True], [True, True, True]])
    kept, probs = _top_k_rows(logits[masked], 4, 1.0)
    drawn = _draw_top_k(kept, probs, masked, _ZeroUniforms())
    assert np.array_equal(drawn, kept[:, 0])
    assert (drawn >= 3).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("K, tied, value", [
    (9, [4, 5, 6], 0.5),  # the whole-row path
    (30522, [4, 1911, 3818, 5725], 5.0),  # the group pass: one group's columns, the top 4
])
def test_draw_leaves_its_logits_unchanged(dtype, K, tied, value):
    """Top-k and the draw only read the logits."""
    logits = np.random.default_rng(1).normal(size=(5, K)).astype(dtype)
    logits[:, dn.SPECIAL_IDS] = -np.inf
    logits[2, tied] = value  # ties at the k-th value
    before = logits.tobytes()
    _draw_top_k(*_top_k_rows(logits, 3, 0.7), np.ones((1, 5), dtype=bool),
                np.random.default_rng(2))
    assert logits.tobytes() == before


def _uniform_model(vocab_size=12, T=16, mode="tad", n_max=16):
    cfg = dn.DenoiserConfig(vocab_size=vocab_size, mode=mode, num_layers=1, d_model=16,
                            num_heads=2, n_max=n_max, num_steps=T, dropout=0.0)
    return dn.init_params(cfg, 0)


def _flat_surprisal(vocab_size=12):
    h = np.ones(vocab_size)
    h[:3] = 0.0
    return sp.SurprisalTable(h)


def test_generate_terminates_mask_free_and_deterministic():
    params = _uniform_model()
    sched_params = sp.ScheduleParams(num_steps=16, lam=0.3)
    cfg = sp.SampleConfig(length=8, num_reverse_iterations=4, top_k=5, seed=3)
    table = _flat_surprisal()
    res1 = sp.generate_batch(params, sched_params, cfg, table, 1, stream(3, "g"),
                             record_trajectory=True)
    res2 = sp.generate_batch(params, sched_params, cfg, table, 1, stream(3, "g"),
                             record_trajectory=True)
    assert np.array_equal(res1.sequences, res2.sequences)
    assert not np.isin(res1.sequences, [MASK_ID, PAD_ID, CLS_ID]).any()
    traj = res1.trajectory
    assert traj[0]["t"] == 16 and np.all(traj[0]["ids"] == MASK_ID)
    assert traj[-1]["t"] == 0
    assert len(traj) == 5


def test_generate_masked_count_nonincreasing_frozen_mode():
    params = _uniform_model()
    sched_params = sp.ScheduleParams(num_steps=16, lam=0.3)
    cfg = sp.SampleConfig(length=10, num_reverse_iterations=16, top_k=3, seed=5)
    res = sp.generate_batch(params, sched_params, cfg, _flat_surprisal(), 1, stream(5, "g"),
                            record_trajectory=True)
    counts = [(rec["ids"] == MASK_ID).sum() for rec in res.trajectory]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_generate_stride_validation():
    params = _uniform_model()
    sched_params = sp.ScheduleParams(num_steps=16, lam=0.0)
    cfg = sp.SampleConfig(length=4, num_reverse_iterations=5, seed=0)
    with pytest.raises(ValueError):
        sp.generate_batch(params, sched_params, cfg, _flat_surprisal(), 1, 0)


def test_generate_length_cap():
    params = _uniform_model(n_max=8)
    sched_params = sp.ScheduleParams(num_steps=16, lam=0.0)
    cfg = sp.SampleConfig(length=9, num_reverse_iterations=4, seed=0)
    with pytest.raises(ValueError):
        sp.generate_batch(params, sched_params, cfg, _flat_surprisal(), 1, 0)


@pytest.mark.parametrize("mode", ["lte", "pte"])
def test_generate_time_conditioned_modes(mode):
    params = _uniform_model(mode=mode)
    sched_params = sp.ScheduleParams(num_steps=16, lam=0.3)
    cfg = sp.SampleConfig(length=6, num_reverse_iterations=8, top_k=4, seed=1)
    res = sp.generate_batch(params, sched_params, cfg, _flat_surprisal(), 1, stream(1, "g"),
                            record_trajectory=True)
    assert not np.isin(res.sequences, [MASK_ID, PAD_ID, CLS_ID]).any()


def test_remask_mode_still_terminates_clean():
    params = _uniform_model()
    sched_params = sp.ScheduleParams(num_steps=16, lam=0.3)
    cfg = sp.SampleConfig(length=8, num_reverse_iterations=8, top_k=4, seed=2, remask=True)
    res = sp.generate_batch(params, sched_params, cfg, _flat_surprisal(), 16, stream(2, "g"))
    assert not np.isin(res.sequences, [MASK_ID, PAD_ID, CLS_ID]).any()


def test_mask_trajectory_matches_linear_schedule():
    """Untrained uniform model, lam=0: expected masked count at time t is
    n * t / T (3 sigma over many chains)."""
    T, n, chains = 16, 8, 4000
    params = _uniform_model(T=T)
    sched_params = sp.ScheduleParams(num_steps=T, lam=0.0)
    cfg = sp.SampleConfig(length=n, num_reverse_iterations=T, top_k=12, seed=0)
    res = sp.generate_batch(params, sched_params, cfg, _flat_surprisal(), chains,
                            stream(0, "mc"), record_trajectory=False)
    # reconstruct per-t masked counts from reveal iterations: position still
    # masked at time t iff its reveal iteration > T - t
    for t in range(1, T):
        frac_masked = (res.reveal_iteration > (T - t)).mean()
        p = t / T
        sigma = np.sqrt(p * (1 - p) / (chains * n))
        assert abs(frac_masked - p) <= 3 * sigma + 1e-9, (t, frac_masked, p)


def test_reveal_times_match_schedule_distribution():
    """Frozen sampler reveal times follow alpha_bar[t-1] - alpha_bar[t]
    exactly (chi-squared at the 1% level, fixed seed); with lam=0 reveal
    dynamics are prediction-independent so an untrained model suffices."""
    from scipy.stats import chi2

    T, n, chains = 8, 6, 10_000
    params = _uniform_model(T=T)
    cfg = sp.SampleConfig(length=n, num_reverse_iterations=T, top_k=12, seed=0)
    sched_params = sp.ScheduleParams(num_steps=T, lam=0.0)
    a = spindle_alpha_bar_at(np.ones(1), np.arange(T + 1), sched_params)[:, 0]
    res = sp.generate_batch(params, sched_params, cfg, _flat_surprisal(), chains,
                            stream(1, "chi"))
    # iteration it reveals the jump t = T - it + 1 -> t - 1
    shares = np.array([a[T - it] - a[T - it + 1] for it in range(1, T + 1)])
    assert (shares > 0).all() and shares.sum() == pytest.approx(1.0)
    for pos in range(n):
        observed = np.bincount(res.reveal_iteration[:, pos], minlength=T + 1)[1:]
        expected = shares * chains
        stat = ((observed - expected) ** 2 / expected).sum()
        assert stat <= chi2.ppf(0.99, df=T - 1), (pos, stat)


def test_spindle_reveals_low_surprisal_first():
    """With lam > 0 and a surprisal spread, low-information tokens reveal
    earlier in the reverse process even for an untrained model."""
    T, chains = 32, 800
    vocab_size = 12
    params = _uniform_model(vocab_size=vocab_size, T=T)
    h = np.ones(vocab_size)
    h[:3] = 0.0
    h[3:8] = 0.3   # cheap tokens
    h[8:] = 3.0    # expensive tokens
    table = sp.SurprisalTable(h)
    sched_params = sp.ScheduleParams(num_steps=T, lam=0.5)
    cfg = sp.SampleConfig(length=10, num_reverse_iterations=T, top_k=vocab_size, seed=0)
    res = sp.generate_batch(params, sched_params, cfg, table, chains, stream(4, "s"))
    toks = res.sequences.ravel()
    its = res.reveal_iteration.ravel()
    cheap = np.isin(toks, np.arange(3, 8))
    expensive = np.isin(toks, np.arange(8, 12))
    assert its[cheap].mean() < its[expensive].mean()


def _reference_generate(params, sched_params, cfg, table, num, rng):
    """`generate_batch` written out slowly: the model on every chain every
    iteration, `top_k_filter` and a full-row draw at each masked position,
    the same rng calls and schedule rows. Also returns each iteration's x."""
    T, n = sched_params.num_steps, cfg.length
    stride = T // cfg.num_reverse_iterations
    x = np.full((num, n), MASK_ID, dtype=np.int64)
    reveal = np.full((num, n), -1, dtype=np.int64)
    xs = []
    for it, t in enumerate(range(T, 0, -stride), start=1):
        xs.append(x)
        s = t - stride
        logits, _ = dn.forward(params, x, t)
        u = rng.random((num * n, 1)).reshape(num, n)
        masked = x == MASK_ID
        x0_hat = x.copy()
        for j, (b, i) in enumerate(zip(*np.nonzero(masked))):  # logits: one row per [MASK]
            x0_hat[b, i] = _full_row_draw(
                sp.top_k_filter(logits[j], cfg.top_k, cfg.temperature), u[b, i])
        h = table.h_for(x0_hat)
        alpha_s = spindle_alpha_bar_at(h, s, sched_params)
        alpha_t = spindle_alpha_bar_at(h, t, sched_params)
        u = rng.random((num, n))
        if cfg.remask:
            x = np.where(u < alpha_s, x0_hat, MASK_ID)
            newly = (x != MASK_ID) & masked
        else:
            newly = masked & (u < reveal_from_rows(alpha_s, alpha_t))
            x = np.where(newly, x0_hat, x)
        reveal[newly] = it
    return x, reveal, xs


def _random_head_model(vocab_size, T, mode, dtype=np.float64):
    params = _uniform_model(vocab_size=vocab_size, T=T, mode=mode).astype(dtype)
    rng = np.random.default_rng(5)
    params.tensors["out.w"][:] = rng.normal(0.0, 1.0, params.tensors["out.w"].shape)
    params.tensors["out.b"][:] = rng.normal(0.0, 1.0, vocab_size)
    return params


def _check_against_reference(mode, remask, lam, head, dtype=np.float64, T=16, iterations=8):
    """`generate_batch` on 5 chains gives the same sequences and reveal
    iterations as `_reference_generate` with the same rng."""
    vocab_size = 40
    if head == "random":
        params = _random_head_model(vocab_size, T, mode, dtype)
    else:
        params = _uniform_model(vocab_size=vocab_size, T=T, mode=mode).astype(dtype)
    h = np.random.default_rng(6).uniform(0.5, 4.0, vocab_size)
    h[:3] = 0.0
    table = sp.SurprisalTable(h)
    sched_params = sp.ScheduleParams(num_steps=T, lam=lam)
    cfg = sp.SampleConfig(length=7, num_reverse_iterations=iterations,
                          top_k=3 if head == "zero" else 10, temperature=0.8, remask=remask)
    res = sp.generate_batch(params, sched_params, cfg, table, 5, stream(9, "ref"))
    seqs, reveal, _ = _reference_generate(params, sched_params, cfg, table, 5, stream(9, "ref"))
    assert np.array_equal(res.sequences, seqs)
    assert np.array_equal(res.reveal_iteration, reveal)


@pytest.mark.parametrize("mode", ["tad", "lte"])
@pytest.mark.parametrize("remask", [False, True])
@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("head", ["random", "zero"])
def test_generate_batch_matches_slow_reference(mode, remask, lam, head):
    """Same sequences and reveal iterations as the row-by-row reference; the
    zero head ties every logit, so the lower-id rule picks the kept ids."""
    _check_against_reference(mode, remask, lam, head)


@pytest.mark.parametrize("mode", ["tad", "lte"])
@pytest.mark.parametrize("remask", [False, True])
@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("head", ["random", "zero"])
@pytest.mark.parametrize("dtype, T, iterations", [
    (np.float32, 16, 8), (np.float32, 64, 64), (np.float64, 64, 64)])
def test_generate_batch_matches_slow_reference_with_reuse(mode, remask, lam, head, dtype, T,
                                                          iterations):
    """The same check in float32, and with T = 64 and 64 iterations, where
    a tad model skips the iterations in which no chain changed and reuses
    its rows."""
    _check_against_reference(mode, remask, lam, head, dtype, T, iterations)


def test_desk_shaped_tad_sampling_matches_the_slow_reference():
    """A desk-shaped float32 tad model (K 2004, d 128, 4 layers) on 8 chains
    of 48 tokens, T 64 in 16 iterations and top-k 30, gives the sequences
    and reveal iterations of `_reference_generate`, which runs one forward
    over every chain in every iteration. This pins the sequences, not the
    logit bytes: a forward over the chains' halves may round a logit
    differently."""
    params = dn.init_params(dn.DenoiserConfig(vocab_size=2004, num_steps=64), 1)
    params = params.astype(np.float32)
    params.tensors["out.w"][:] = np.random.default_rng(2).normal(0.0, 0.1, (128, 2004))
    table = sp.SurprisalTable(np.r_[0.0, 0.0, 0.0, np.linspace(0.5, 4.0, 2001)])
    sched_params = sp.ScheduleParams(num_steps=64, lam=0.3)
    cfg = sp.SampleConfig(length=48, num_reverse_iterations=16, top_k=30)
    res = sp.generate_batch(params, sched_params, cfg, table, 8, stream(3, "desk"))
    seqs, reveal, _ = _reference_generate(params, sched_params, cfg, table, 8, stream(3, "desk"))
    assert np.array_equal(res.sequences, seqs)
    assert np.array_equal(res.reveal_iteration, reveal)


@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
@pytest.mark.parametrize("remask", [False, True])
def test_tad_forward_runs_on_every_chain_or_on_none(monkeypatch, mode, remask):
    """A tad model is run on every chain, and on none exactly when no
    chain's x changed since the last iteration; lte and pte see t, so they
    are run on every chain every iteration."""
    T, num = 64, 6
    params = _random_head_model(12, T, mode)
    sched_params = sp.ScheduleParams(num_steps=T, lam=0.3)
    cfg = sp.SampleConfig(length=6, num_reverse_iterations=T, top_k=5, remask=remask)
    *_, xs = _reference_generate(params, sched_params, cfg, _flat_surprisal(), num,
                                 stream(7, "calls"))
    expected = [xs[0]] + [cur for prev, cur in zip(xs, xs[1:])
                          if mode != "tad" or (cur != prev).any()]

    forward, calls = dn.forward, []

    def counting_forward(params, xt, t, **kwargs):
        calls.append(np.array(xt))
        return forward(params, xt, t, **kwargs)

    monkeypatch.setattr(sp.sampling.denoiser, "forward", counting_forward)
    sp.generate_batch(params, sched_params, cfg, _flat_surprisal(), num, stream(7, "calls"))
    assert len(calls) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(calls, expected))
    if mode == "tad" and not remask:  # frozen chains often all keep their x
        assert len(calls) < T


def test_nan_logits_raise_value_error():
    params = _uniform_model()
    params.tensors["out.w"][:] = np.nan
    cfg = sp.SampleConfig(length=4, num_reverse_iterations=4, top_k=3, seed=0)
    with pytest.raises(ValueError, match="NaN"):
        sp.generate_batch(params, sp.ScheduleParams(num_steps=16, lam=0.3), cfg,
                          _flat_surprisal(), 2)


def test_threaded_sampler_runs_each_half_off_the_calling_thread(monkeypatch, force_threads):
    """With the gate at 0 and the threaded path on, a prediction over c >= 2
    chains runs two forwards, on its first c // 2 chains and on the rest,
    both off the calling thread, and a one-chain call's predictions run one
    forward on it. test_golden.py pins the bytes on one thread and on two."""
    monkeypatch.setattr(_threads, "_MIN_THREADED_WORK", 0)
    force_threads(True)
    predict, forward, here, calls = sp.sampling._predict, dn.forward, threading.get_ident(), []

    def recording_predict(params, x, t, cfg):
        calls.append((x, []))
        return predict(params, x, t, cfg)

    def recording_forward(params, xt, t, **kwargs):
        calls[-1][1].append((xt.tobytes(), threading.get_ident() == here))
        return forward(params, xt, t, **kwargs)

    monkeypatch.setattr(sp.sampling, "_predict", recording_predict)
    monkeypatch.setattr(dn, "forward", recording_forward)
    cfg = sp.SampleConfig(length=7, num_reverse_iterations=64, top_k=10)
    for num in (5, 1):
        sp.generate_batch(_random_head_model(40, 64, "tad", np.float32),
                          sp.ScheduleParams(64, 0.3), cfg, _flat_surprisal(40), num,
                          stream(12, "threads"))
    for x, forwards in calls:
        parts = [x[: len(x) // 2], x[len(x) // 2 :]] if len(x) > 1 else [x]
        assert sorted(forwards) == sorted((part.tobytes(), len(x) == 1) for part in parts)
    assert {len(x) for x, _ in calls} == {1, 5}


def test_a_failing_half_ends_the_call_with_no_task_left_running(monkeypatch, force_threads):
    """With an all-NaN head, both halves' top-k raise on the pool threads,
    the later one 50 ms after the first; the call ends with that message
    once neither task runs, none starts later, and BLAS, set to two threads
    before the call, is back at two after it."""
    monkeypatch.setattr(_threads, "_MIN_THREADED_WORK", 0)
    params = _uniform_model()
    params.tensors["out.w"][:] = np.nan
    started, ended = [], []
    top_k_rows = sp.sampling._top_k_rows

    def recording(*args):
        started.append(threading.get_ident())
        time.sleep(0.05 * len(started))
        try:
            return top_k_rows(*args)
        finally:
            ended.append(threading.get_ident())

    monkeypatch.setattr(sp.sampling, "_top_k_rows", recording)
    force_threads(True)
    blas = _threads._BLAS_THREADS
    original = blas[0]() if blas is not None else None
    if blas is not None:
        blas[1](2)
    cfg = sp.SampleConfig(length=4, num_reverse_iterations=4, top_k=3, seed=0)
    try:
        with pytest.raises(ValueError, match="^denoiser logits contain NaN$"):
            sp.generate_batch(params, sp.ScheduleParams(num_steps=16, lam=0.3), cfg,
                              _flat_surprisal(), 4)
        assert blas is None or blas[0]() == 2
    finally:
        if blas is not None:
            blas[1](original)
    finished = len(ended)
    time.sleep(0.2)
    assert len(started) == len(ended) == finished == 2
    assert threading.get_ident() not in started


def test_sampler_uses_the_pool_for_desk_multi_chain_and_wide_one_chain_calls(monkeypatch,
                                                                          force_threads):
    """With two CPUs taken as usable and the default work gate, a one-chain
    call at the desk shape (K = 2004, its head halves under the gate) and
    an 8-chain call of a test-sized model never use the pool. An 8-chain
    desk-shaped call does, once per half per iteration, a head its shape
    cuts running its halves inline in that block; a one-chain call at BERT's
    vocabulary does, once per forward, for its head's first column half. test_golden.py pins the
    bytes of both kinds on one thread and on two."""
    pool, used = _threads._thread_pool, []
    monkeypatch.setattr(_threads, "_thread_pool", lambda: used.append(1) or pool())
    force_threads(lambda work: work >= _threads._MIN_THREADED_WORK)
    cfg = sp.SampleConfig(length=48, num_reverse_iterations=2, top_k=30)
    h = np.r_[0.0, 0.0, 0.0, np.linspace(0.5, 4.0, 30519)]
    models = {}
    for k in (2004, 30522):
        models[k] = dn.init_params(dn.DenoiserConfig(vocab_size=k, num_steps=4), 3, np.float32)
        models[k].tensors["out.w"][:] = np.random.default_rng(4).normal(0.0, 0.1, (128, k))
    desk, bert = models[2004], models[30522]
    for params, num, uses in ((desk, 1, 0), (_uniform_model(T=4, n_max=48), 8, 0), (desk, 8, 4),
                              (bert, 1, 2)):
        used.clear()
        sp.generate_batch(params, sp.ScheduleParams(4, 0.3), cfg,
                          sp.SurprisalTable(h[: params.config.vocab_size]), num, 5)
        assert len(used) == uses
