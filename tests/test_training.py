import dataclasses
import json
import math
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spindle as sp
from spindle import _threads, denoiser as dn, oracle as orc, training
from spindle.corpus import MASK_ID, PAD_ID
from spindle.diffusion import spindle_alpha_bar_at
from spindle.rng import stream
from spindle.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ShuffledPasses, _masked_ce,
                              opt_state_from_records, stratified_t_draws)


def tiny_params(mode="tad", vocab_size=13, seed=0, randomize=True, **kw):
    defaults = dict(vocab_size=vocab_size, mode=mode, num_layers=1, d_model=16,
                    num_heads=2, n_max=8, num_steps=8, dropout=0.0)
    defaults.update(kw)
    params = dn.init_params(dn.DenoiserConfig(**defaults), seed)
    if randomize:
        rng = np.random.default_rng(seed + 100)
        params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    return params


def test_uniform_model_charges_reveal_times_log_vocab():
    """An untrained, uniform model over 10 content tokens is charged
    reveal * ln 10 * T / N at each masked position. A retention row of 0 at t
    masks a position surely and a row of 1 never does: item 0, at t = 2, is
    masked at positions 0 and 2 with reveal 0.5 and 0.3; item 1, at t = 1, is
    masked everywhere with reveal 1."""
    params = tiny_params(randomize=False)
    seqs = [np.array([5, 6, 7]), np.array([8, 9])]
    rows = [np.array([[0.5, 1.0, 0.3], [0.0, 1.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])]
    b, _ = sp.diffusion_loss_batch(params, seqs, rows, np.array([2, 1]), stream(0, "u"),
                                   want_grads=False)
    ln10 = math.log(10)
    assert b.total == pytest.approx((0.5 + 0.3 + 1.0 + 1.0) * ln10 * 8 / 5, abs=1e-12)
    assert b.l_t_kl == pytest.approx(0.8 * ln10, abs=1e-12)
    assert b.l_0 == pytest.approx(2.0 * ln10, abs=1e-12)


def test_perfect_model_zero_loss():
    """A point-mass-on-truth model has zero KL and zero reconstruction loss."""
    params = tiny_params(randomize=False)
    x0 = np.full(8, 7)
    a = spindle_alpha_bar_at(np.ones(8), np.arange(9), sp.ScheduleParams(num_steps=8, lam=0.0))
    bias = params.tensors["out.b"]

    def loss(t):
        return sp.diffusion_loss_batch(params, [x0], [a[t - 1 : t + 1]], np.array([t]),
                                       stream(1, "perfect"), want_grads=False)[0]

    def losses(token):
        """(t = 1, t = 5) loss totals when the model is sure of `token`."""
        bias[:] = -60.0
        bias[token] = 60.0
        recon, kl = loss(1), loss(5)
        assert recon.l_t_kl == 0.0 and kl.l_0 == 0.0
        return recon.total, kl.total

    assert max(losses(7)) <= 1e-12
    # control: a model sure of the wrong token pays for the same masked draws
    assert min(losses(8)) >= 10.0


def test_diffusion_loss_breakdown_fields():
    params = tiny_params()
    h = np.array([0.5, 1.0, 2.0])
    a = spindle_alpha_bar_at(h, np.arange(9), sp.ScheduleParams(num_steps=8, lam=0.3))
    x0 = np.array([4, 5, 6])
    breakdown, grads = sp.diffusion_loss_batch(params, [x0], [a[4:6]], np.array([5]),
                                               stream(0, "x"))
    assert breakdown.l_0 == 0.0 and breakdown.l_t_kl >= 0.0
    # the two terms carry the whole estimate: the prior term is identically 0
    assert breakdown.total == pytest.approx((breakdown.l_t_kl + breakdown.l_0) * 8 / 3)
    assert set(grads) == set(params.tensors)
    # t = 1 routes to the reconstruction slot
    b1, _ = sp.diffusion_loss_batch(params, [x0], [a[0:2]], np.array([1]), stream(1, "x"),
                                    want_grads=False)
    assert b1.l_t_kl == 0.0 and b1.l_0 >= 0.0


def test_diffusion_loss_rejects_masked_x0():
    params = tiny_params()
    a = spindle_alpha_bar_at(np.ones(2), np.arange(9), sp.ScheduleParams(num_steps=8, lam=0.0))
    with pytest.raises(ValueError):
        sp.diffusion_loss_batch(params, [np.array([MASK_ID, 5])], [a[2:4]], np.array([3]), 0)


def test_diffusion_loss_batch_reads_rows_one_window_at_a_time(monkeypatch):
    """150 items reach the loss core in windows of 64, 64 and 22, and a
    generator of retention rows has yielded only the rows of the windows
    scored so far. The masks follow batch order and the three windows add
    into one gradient buffer, so loss and gradients equal those of one
    150-item window to rounding. A row count unlike the item count raises."""
    from spindle import training

    params = tiny_params("lte", seed=4)
    rng = np.random.default_rng(6)
    seqs = [rng.integers(4, 13, size=rng.integers(2, 9)) for _ in range(150)]
    t_draws = rng.integers(1, 9, size=150)
    sched = sp.ScheduleParams(num_steps=8)
    rows = [spindle_alpha_bar_at(rng.uniform(0.5, 2.0, len(x)), [t - 1, t], sched)
            for x, t in zip(seqs, t_draws)]
    produced, calls = [], []

    def lazy_rows():
        for r in rows:
            produced.append(1)
            yield r

    def recording(params, xts, *args, **kwargs):
        calls.append((len(xts), len(produced)))
        return real(params, xts, *args, **kwargs)

    real = training._masked_ce
    monkeypatch.setattr(training, "_masked_ce", recording)
    got, grads = sp.diffusion_loss_batch(params, seqs, lazy_rows(), t_draws, 7, train=False)
    assert calls == [(64, 64), (64, 128), (22, 150)]
    monkeypatch.setattr(training, "_WINDOW", 150)
    ref, ref_grads = sp.diffusion_loss_batch(params, seqs, rows, t_draws, 7, train=False)
    assert got.total == pytest.approx(ref.total, rel=1e-12)
    largest = max(float(np.abs(g).max()) for g in ref_grads.values())
    for name, g in ref_grads.items():  # attn.bk's exact gradient is 0
        scale = largest if name.endswith("attn.bk") else float(np.abs(g).max())
        assert float(np.abs(grads[name] - g).max()) <= 1e-12 * scale, name
    for wrong in (rows[:-1], rows + rows[:1]):
        with pytest.raises(ValueError):
            sp.diffusion_loss_batch(params, seqs, iter(wrong), t_draws, 7, want_grads=False)


@pytest.mark.parametrize("objective", ["diffusion", "mlm"])
def test_diffusion_loss_grads_match_fd(objective):
    """Both weightings of the shared masked cross-entropy core, the bound's
    and MLM's (over a padded two-item batch), against finite differences."""
    params = tiny_params("lte", seed=3, dropout=0.1)
    h = np.exp(np.random.default_rng(0).uniform(-1, 1, size=5))
    a = spindle_alpha_bar_at(h, np.arange(9), sp.ScheduleParams(num_steps=8, lam=0.4))
    x0 = np.random.default_rng(1).integers(4, 13, size=5)

    def loss_and_grads(p, want_grads):
        if objective == "mlm":
            return sp.mlm_pretrain_step(p, [x0, x0[:3]], 0.5, stream(9, "n"),
                                        want_grads=want_grads)
        b, grads = sp.diffusion_loss_batch(p, [x0], [a[5:7]], np.array([6]), stream(9, "n"),
                                           want_grads=want_grads)
        return b.total, grads

    def loss(p):
        return loss_and_grads(p, False)[0]

    _, grads = loss_and_grads(params, True)
    rng = np.random.default_rng(2)
    names = params.names()
    worst = 0.0
    for _ in range(60):
        name = names[int(rng.integers(len(names)))]
        tensor = params.tensors[name]
        idx = tuple(int(rng.integers(s)) for s in tensor.shape)
        eps = 1e-5
        orig = tensor[idx]
        tensor[idx] = orig + eps
        up = loss(params)
        tensor[idx] = orig - eps
        down = loss(params)
        tensor[idx] = orig
        fd = (up - down) / (2 * eps)
        err = abs(fd - grads[name][idx]) / max(abs(fd), abs(grads[name][idx]), 1e-4)
        worst = np.maximum(worst, err)  # keeps a NaN, so a NaN loss fails
    assert worst <= 1e-4


@settings(max_examples=60, deadline=None)
@given(
    reveal=st.floats(0.01, 1.0),
    c=st.integers(2, 10),
    truth=st.integers(0, 9),
    seed=st.integers(0, 10_000),
)
def test_simplified_kl_equals_generic(reveal, c, truth, seed):
    """At a masked position, the KL between the reveal/stay posterior and the
    model's reverse step collapses to the bound's charge reveal * -ln p(x0):
    the stay components cancel."""
    truth = truth % c
    pred = np.random.default_rng(seed).dirichlet(np.ones(c))
    k = c + 3
    q_row = np.zeros(k)
    q_row[3 + truth] = reveal
    q_row[MASK_ID] = 1.0 - reveal
    p_row = np.zeros(k)
    p_row[3:] = reveal * pred
    p_row[MASK_ID] = 1.0 - reveal
    assert reveal * -math.log(pred[truth]) == pytest.approx(orc.generic_kl(q_row, p_row), abs=1e-9)


def _ragged_batch(lengths, seed, mask_rate=0.4, num_steps=8):
    """(xts, targets, weights, t) for items of the given lengths: random
    content tokens, each position masked with probability mask_rate, random
    positive weights and steps in {1..num_steps}."""
    rng = np.random.default_rng(seed)
    targets = [rng.integers(4, 13, size=n) for n in lengths]
    xts = [np.where(rng.random(len(x)) < mask_rate, MASK_ID, x) for x in targets]
    weights = [rng.uniform(0.1, 1.0, size=len(x)) for x in targets]
    return xts, targets, weights, rng.integers(1, num_steps + 1, size=len(lengths))


def _ragged_params(mode, seed=0, **kw):
    """A float64 two-layer model for 63-token lines, every tensor perturbed."""
    params = tiny_params(mode, seed=seed, num_layers=2, n_max=64, **kw)
    rng = np.random.default_rng(seed + 200)
    for v in params.tensors.values():
        v += rng.normal(0, 0.05, v.shape)
    return params


@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_masked_ce_length_groups_match_singletons(mode):
    """The length-grouped loss core agrees with one call per item (no
    padding at all): 29 items of lengths 5-63 make three full groups and a
    short one. Per-item losses agree to 1e-13 relative and each gradient to
    1e-12 of its tensor's largest entry; attn.bk's exact gradient is 0
    (softmax ignores a constant added to every key), so it is bounded by
    the model's largest gradient entry instead."""
    params = _ragged_params(mode)
    lengths = np.random.default_rng(1).integers(5, 64, size=29)
    lengths[:2] = 5, 63
    xts, targets, weights, t = _ragged_batch(lengths, seed=2)
    grads, ref_grads = params.zeros_like(), params.zeros_like()
    per_item = _masked_ce(params, xts, targets, weights, t, stream(0, "ce"), grads, train=True)
    ref_items = [_masked_ce(params, xts[i : i + 1], targets[i : i + 1], weights[i : i + 1],
                            t[i : i + 1], stream(0, "ce"), ref_grads, train=True)[0]
                 for i in range(len(xts))]
    np.testing.assert_allclose(per_item, ref_items, rtol=1e-13, atol=0)
    largest = max(float(np.abs(g).max()) for g in ref_grads.values())
    for name, ref in ref_grads.items():
        scale = largest if name.endswith("attn.bk") else float(np.abs(ref).max())
        assert float(np.abs(grads[name] - ref).max()) <= 1e-12 * scale, name


def test_masked_ce_follows_batch_order():
    """Permuting the batch permutes the per-item losses."""
    params = _ragged_params("lte", seed=1)
    lengths = np.random.default_rng(3).integers(5, 64, size=19)
    xts, targets, weights, t = _ragged_batch(lengths, seed=4)
    per_item = _masked_ce(params, xts, targets, weights, t, stream(1, "ce"), None, train=False)
    perm = np.random.default_rng(5).permutation(len(xts))
    permuted = _masked_ce(params, [xts[i] for i in perm], [targets[i] for i in perm],
                          [weights[i] for i in perm], t[perm], stream(1, "ce"), None,
                          train=False)
    assert np.all(per_item > 0)
    np.testing.assert_allclose(permuted, per_item[perm], rtol=1e-13, atol=0)


def test_masked_ce_checks_targets_before_any_forward(monkeypatch):
    """A [MASK] target in the longest item, which lands in the last group,
    raises before the first group runs the denoiser."""
    params = _ragged_params("tad")
    lengths = list(range(5, 22))
    xts, targets, weights, t = _ragged_batch(lengths, seed=6)
    targets[-1] = targets[-1].copy()
    targets[-1][3] = MASK_ID
    calls = []
    monkeypatch.setattr(dn, "forward", lambda *a, **k: calls.append(1))
    with pytest.raises(ValueError, match=r"\[MASK\]"):
        _masked_ce(params, xts, targets, weights, t, stream(2, "ce"), params.zeros_like(),
                   train=True)
    assert calls == []


def test_masked_ce_group_without_masked_rows():
    """A group whose items hold no [MASK] charges them nothing and adds
    finite gradients: the 8 short unmasked lines form their own group, and
    the batch's gradients are those of the 8 long lines alone."""
    params = _ragged_params("pte", seed=2)
    xts, targets, weights, t = _ragged_batch([5] * 8 + [40] * 8, seed=7)
    xts[:8] = targets[:8]
    grads, long_grads = params.zeros_like(), params.zeros_like()
    per_item = _masked_ce(params, xts, targets, weights, t, stream(3, "ce"), grads, train=False)
    assert np.all(per_item[:8] == 0) and np.all(per_item[8:] > 0)
    assert all(np.isfinite(g).all() for g in grads.values())
    long_items = _masked_ce(params, xts[8:], targets[8:], weights[8:], t[8:], stream(3, "ce"),
                            long_grads, train=False)
    np.testing.assert_array_equal(per_item[8:], long_items)
    for name, g in long_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-14 * np.abs(g).max())


def test_threaded_loss_calls_run_each_stage_on_its_thread(monkeypatch, force_threads):
    """On two threads, each group of a forward-only call runs off the
    calling thread; a gradient call runs every forward on it, so the
    dropout draws keep their order, and every backward off it.
    test_golden.py pins the bytes on one thread and on two."""
    params = _ragged_params("lte", dropout=0.1)
    xts, targets, weights, t = _ragged_batch([20] * 24, seed=9)
    here, seen = threading.get_ident(), []

    def recording(stage, fn):
        def run(*args, **kwargs):
            seen.append((stage, threading.get_ident() == here))
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(dn, "forward", recording("forward", dn.forward))
    monkeypatch.setattr(dn, "backward", recording("backward", dn.backward))
    force_threads(True)
    _masked_ce(params, xts, targets, weights, t, stream(4, "ce"), None, train=False)
    assert seen == [("forward", False)] * 3
    seen.clear()
    _masked_ce(params, xts, targets, weights, t, stream(4, "ce"), params.zeros_like(),
               train=True)
    assert sorted(seen) == [("backward", False)] * 3 + [("forward", True)] * 3


def _serial_masked_ce(params, xts, targets, weights, t, rng, grads, *, train):
    """The loss core as it ran before it used threads: groups of 8 items of
    the stable length sort, one after another."""
    per_item = np.zeros(len(xts))
    order = np.argsort([len(x) for x in xts], kind="stable")
    for lo in range(0, len(order), 8):
        group = np.sort(order[lo : lo + 8])
        x0 = training._pad_batch([targets[i] for i in group], PAD_ID)
        xt = training._pad_batch([xts[i] for i in group], PAD_ID)
        masked = xt == MASK_ID
        w = training._pad_batch([weights[i] for i in group], 0.0)[masked]
        logits, _ = dn.forward(params, xt, t[group], train=train, rng=rng)
        logp = training._head_logp(logits, x0[masked], None)
        per_pos = np.zeros(xt.shape)
        per_pos[masked] = w * -logp
        per_item[group] = per_pos.sum(axis=1)
    return per_item


def test_elbo_eval_keeps_the_single_thread_value(monkeypatch, force_threads):
    """A fixed float32 evaluation on two threads gives, bit for bit, the
    value of the serial loss core it replaced. Unlike golden.json's
    digests, this reference check runs on any platform."""
    params = _ragged_params("lte", seed=3).astype(np.float32)
    rng = np.random.default_rng(11)
    dataset = [rng.integers(4, 13, size=n) for n in rng.integers(5, 64, size=40)]
    table = sp.SurprisalTable.from_counts(np.concatenate([[0, 0, 0], rng.integers(1, 50, 10)]))

    def value():
        return sp.elbo_eval(params, dataset, sp.ScheduleParams(8, 0.3), table, 4, seed=5)

    force_threads(True)
    threaded = value()
    monkeypatch.setattr(training, "_masked_ce", _serial_masked_ce)
    assert threaded == value()


@pytest.mark.parametrize("grad, stage", [(False, "forward"), (True, "forward"),
                                         (True, "backward")],
                         ids=["forward-only-forward", "gradient-forward", "gradient-backward"])
def test_a_failing_group_ends_the_call_with_no_task_left_running(monkeypatch, force_threads,
                                                                 grad, stage):
    """On two threads, an error in the third group's forward or backward
    reaches the caller with its message. Of six groups: in a forward-only
    call the pool runs the failing third group beside the fourth, and the
    call ends when it waits for the third to hand over the fifth; in a
    gradient call a failing forward ends the call before the third backward
    starts, and a failing backward at the next hand-over, after the fourth
    forward. Of three groups, the failing group or backward is the last
    task handed over, and the call ends at its final wait. In each case no
    forward or backward is still running when the call returns and none
    starts later, the BLAS thread count is back to its value before the
    call, and a gradient call's `grads` holds the gradients of the first
    two groups, bit for bit."""
    params = _ragged_params("lte", dropout=0.1)
    xts, targets, weights, t = _ragged_batch([20] * 48, seed=9)
    third = np.stack(xts[16:24])  # lengths are equal, so the groups are items 0-7, 8-15, ...
    here = threading.get_ident()
    calls = {"forward": [], "backward": []}
    ended = []
    real = {"forward": dn.forward, "backward": dn.backward}

    def failing(name):
        def run(*args, **kwargs):
            calls[name].append(threading.get_ident())
            try:
                if name == stage and (np.array_equal(args[1], third) if name == "forward"
                                      else len(calls[name]) == 3):
                    raise RuntimeError(f"{stage} three failed")
                return real[name](*args, **kwargs)
            finally:
                ended.append(name)
        return run

    expected = params.zeros_like() if grad else None
    if grad:
        _masked_ce(params, xts[:16], targets[:16], weights[:16], t[:16], stream(4, "ce"),
                   expected, train=True)
    monkeypatch.setattr(dn, "forward", failing("forward"))
    monkeypatch.setattr(dn, "backward", failing("backward"))
    force_threads(True)
    blas = _threads._BLAS_THREADS
    before = blas[0]() if blas is not None else None

    def failing_call(items):
        """(forwards, backwards) of a failing call on the first `items`
        items, once its aftermath is checked."""
        for seen in (*calls.values(), ended):
            seen.clear()
        grads = params.zeros_like() if grad else None
        with pytest.raises(RuntimeError, match=f"^{stage} three failed$"):
            _masked_ce(params, xts[:items], targets[:items], weights[:items], t[:items],
                       stream(4, "ce"), grads, train=grad)
        counts, finished = (len(calls["forward"]), len(calls["backward"])), len(ended)
        time.sleep(0.2)
        assert finished == sum(counts) == len(calls["forward"]) + len(calls["backward"])
        assert here not in calls["backward"]
        if blas is not None:
            assert blas[0]() == before
        if grad:
            assert set(calls["forward"]) == {here}
            for name, g in expected.items():
                assert grads[name].tobytes() == g.tobytes(), name
        else:
            assert here not in calls["forward"]
        return counts

    assert failing_call(48) == {(False, "forward"): (4, 0), (True, "forward"): (3, 2),
                                (True, "backward"): (4, 3)}[grad, stage]
    assert failing_call(24) == {(False, "forward"): (3, 0), (True, "forward"): (3, 2),
                                (True, "backward"): (3, 3)}[grad, stage]


@pytest.mark.skipif(_threads._BLAS_THREADS is None, reason="numpy bundles no OpenBLAS")
@pytest.mark.parametrize("count", [1, 2, 3])
def test_blas_runs_one_thread_during_a_call_and_its_count_comes_back(monkeypatch, force_threads,
                                                                     count):
    """BLAS set to `count` threads before a two-thread call, forward-only
    or with gradients, runs on one thread inside it (in every forward and
    backward), and on `count` threads again after it."""
    get, set_ = _threads._BLAS_THREADS
    params = _ragged_params("tad")
    xts, targets, weights, t = _ragged_batch([5, 9, 13, 40, 22, 7, 31, 18, 12, 3], seed=8)
    forward, backward, seen = dn.forward, dn.backward, []

    def recording_forward(*args, **kwargs):
        seen.append(get())
        return forward(*args, **kwargs)

    def recording_backward(*args):
        seen.append(get())
        return backward(*args)

    monkeypatch.setattr(dn, "forward", recording_forward)
    monkeypatch.setattr(dn, "backward", recording_backward)
    force_threads(True)
    original = get()
    set_(count)
    try:
        _masked_ce(params, xts, targets, weights, t, stream(5, "ce"), None, train=False)
        assert get() == count
        _masked_ce(params, xts, targets, weights, t, stream(5, "ce"), params.zeros_like(),
                   train=True)
        assert get() == count
    finally:
        set_(original)
    assert len(seen) == 2 + 4 and set(seen) == {1}


def test_workers_follow_the_group_work_threshold(force_threads):
    """Forward-only and gradient calls go to threads only where a group's
    GEMMs reach _MIN_THREADED_WORK multiply-adds per layer: a test-sized
    model stays on the calling thread, a default-sized one with 20-token
    lines does not. A call with dropout and no gradients does not ask."""
    seen = []
    force_threads(lambda work: seen.append(work) or False)
    xts, targets, weights, t = _ragged_batch([20] * 16, seed=3)
    for d, layers in ((16, 2), (128, 4)):
        params = tiny_params(vocab_size=2004, d_model=d, num_layers=layers, num_heads=4,
                             n_max=64, randomize=False, dropout=0.1)
        _masked_ce(params, xts, targets, weights, t, stream(3, "ce"), None, train=False)
        _masked_ce(params, xts, targets, weights, t, stream(3, "ce"), params.zeros_like(),
                   train=True)
        _masked_ce(params, xts, targets, weights, t, stream(3, "ce"), None, train=True)
    small, small_grad, default, default_grad = seen
    assert small == small_grad < _threads._MIN_THREADED_WORK < default == default_grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_step_is_bitwise_the_textbook_expression(dtype, weight_decay):
    """Three updates equal, bit for bit, the moments and the update written
    out as whole-array expressions, one temporary per operation."""
    params = tiny_params("lte").astype(dtype)
    expected = params.copy()
    m, v = expected.zeros_like(), expected.zeros_like()
    state = sp.AdamState.zeros(params)
    cfg = sp.TrainConfig(weight_decay=weight_decay, warmup_steps=2)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    rng = np.random.default_rng(8)
    for step in range(1, 4):
        grads = {k: rng.normal(0, 1, x.shape).astype(dtype) for k, x in params.tensors.items()}
        params, state, skipped = sp.adam_step(params, grads, state, cfg, step)
        assert not skipped
        lr, c1, c2 = sp.learning_rate_at(step, cfg), 1.0 - b1**step, 1.0 - b2**step
        for name, g in grads.items():
            p = expected.tensors[name]
            m[name] *= b1
            m[name] += (1 - b1) * g
            v[name] *= b2
            v[name] += (1 - b2) * g * g
            update = (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)
            if weight_decay > 0 and p.ndim >= 2:
                update = update + weight_decay * p
            p -= lr * update
    for name in params.names():
        assert params[name].dtype == dtype
        assert np.array_equal(params[name], expected[name]), name
        assert np.array_equal(state.m[name], m[name]) and np.array_equal(state.v[name], v[name])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_blocked_adam_is_bitwise_the_textbook_expression_across_block_edges(
        monkeypatch, dtype, weight_decay):
    """With 5-element blocks, tensors of 1, 5, 6 and 11 elements and 2-D
    ones of 2-element, 3-element and wider-than-a-block rows update in one
    block, at a block edge and over several blocks with a remainder; each
    m, v and p equals, bit for bit, the whole-array expression."""
    monkeypatch.setattr(training, "_BLOCK", 5)
    shapes = {"a": (1,), "b": (5,), "c": (6,), "d": (11,), "w2": (7, 2), "w3": (4, 3),
              "w7": (2, 7)}
    rng = np.random.default_rng(9)
    params = dn.DenoiserParams(tiny_params().config,
                               {k: rng.normal(0, 1, s).astype(dtype) for k, s in shapes.items()})
    expected = params.copy()
    m, v = expected.zeros_like(), expected.zeros_like()
    state = sp.AdamState.zeros(params)
    cfg = sp.TrainConfig(weight_decay=weight_decay, warmup_steps=2)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for step in range(1, 4):
        grads = {k: rng.normal(0, 1, x.shape).astype(dtype) for k, x in params.tensors.items()}
        params, state, skipped = sp.adam_step(params, grads, state, cfg, step)
        assert not skipped
        lr, c1, c2 = sp.learning_rate_at(step, cfg), 1.0 - b1**step, 1.0 - b2**step
        for name, g in grads.items():
            p = expected.tensors[name]
            m[name] = b1 * m[name] + (1 - b1) * g
            v[name] = b2 * v[name] + (1 - b2) * g * g
            update = (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)
            if weight_decay > 0 and p.ndim >= 2:
                update = update + weight_decay * p
            p -= lr * update
    for name in params.names():
        assert params[name].dtype == dtype
        assert params[name].tobytes() == expected[name].tobytes(), name
        assert state.m[name].tobytes() == m[name].tobytes(), name
        assert state.v[name].tobytes() == v[name].tobytes(), name


def _whole_array_head(logits, target, w):
    """The head as whole-array expressions: the log-probabilities at the
    targets and, given w, the logit gradient w * (softmax - onehot)."""
    logp = logits - np.max(logits, axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    rows = np.arange(len(logits))
    at_target = logp[rows, target]
    if w is None:
        return at_target, logp
    grad = np.exp(logp)
    grad[rows, target] -= 1.0
    grad *= w[:, None]
    return at_target, grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_grad", [False, True])
@pytest.mark.parametrize("num_rows", [0, 1, 3, 10])
def test_blocked_head_is_bitwise_the_whole_array_expressions(monkeypatch, dtype, with_grad,
                                                            num_rows):
    """At 3 rows per block, 10 rows run as blocks of 3, 3, 3 and 1: the
    log-probabilities at the targets, and the logits array left holding the
    log-probabilities or the gradient, equal the whole-array expressions bit
    for bit."""
    k = 13
    monkeypatch.setattr(training, "_BLOCK", 3 * k + 2)
    rng = np.random.default_rng(num_rows)
    logits = rng.normal(0, 3, (num_rows, k)).astype(dtype)
    logits[:, dn.SPECIAL_IDS] = -np.inf
    target = rng.integers(4, k, num_rows)
    w = rng.random(num_rows) if with_grad else None
    want_logp, want_array = _whole_array_head(logits, target, w)
    got_logp = training._head_logp(logits, target, w)
    assert got_logp.dtype == dtype
    assert got_logp.tobytes() == want_logp.tobytes()
    assert logits.tobytes() == want_array.tobytes()


@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_masked_ce_is_bitwise_across_head_block_sizes(monkeypatch, mode):
    """A ragged batch scores and differentiates bit for bit alike whether
    the head runs in one row block per group or in blocks of 2 rows."""
    params = _ragged_params(mode, seed=4).astype(np.float32)
    xts, targets, weights, t = _ragged_batch([5, 9, 13, 40, 22, 7, 31, 18, 12, 3], seed=8)
    results = []
    for block in (training._BLOCK, 2 * params.config.vocab_size):
        monkeypatch.setattr(training, "_BLOCK", block)
        for train in (True, False):
            grads = params.zeros_like()
            per_item = _masked_ce(params, xts, targets, weights, t, stream(5, "ce"), grads,
                                  train=train)
            results.append([per_item.tobytes(), *(grads[k].tobytes() for k in sorted(grads))])
    assert results[:2] == results[2:]


def test_mlm_uniform_loss_is_log_vocab():
    params = tiny_params(randomize=False)
    seqs = [np.array([4, 5, 6, 7]), np.array([8, 9])]
    loss, grads = sp.mlm_pretrain_step(params, seqs, 0.99, stream(0, "m"))
    assert loss == pytest.approx(math.log(10), abs=1e-9)


def test_mlm_full_mask_rate_masks_everything():
    params = tiny_params(randomize=False)
    x0 = np.array([4, 5, 6])
    rng = stream(1, "m")
    loss, _ = sp.mlm_pretrain_step(params, [x0], 1.0, rng, want_grads=False)
    assert loss == pytest.approx(math.log(10), abs=1e-9)


@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_mlm_batch_that_masks_nothing_is_zero(mode):
    """When every draw masks nothing, every item is skipped: the loss is 0.0
    and the gradients are zero, one of each parameter's shape."""
    params = tiny_params(mode)
    seqs = [np.array([4, 5]), np.array([6]), np.array([7, 8, 9])]
    loss, grads = sp.mlm_pretrain_step(params, seqs, 1e-12, stream(2, "m"))
    assert loss == 0.0
    assert {k: g.shape for k, g in grads.items()} == {k: v.shape for k, v in params.tensors.items()}
    assert all(not g.any() for g in grads.values())


def test_mlm_rejects_bad_inputs():
    params = tiny_params()
    with pytest.raises(ValueError):
        sp.mlm_pretrain_step(params, [np.array([4, 5])], 0.0, 0)
    with pytest.raises(ValueError):
        sp.mlm_pretrain_step(params, [np.array([MASK_ID])], 0.5, 0)


def test_adam_zero_grads_no_weight_decay_keeps_params():
    params = tiny_params()
    state = sp.AdamState.zeros(params)
    before = params.copy()
    cfg = sp.TrainConfig(weight_decay=0.0)
    params, state, skipped = sp.adam_step(params, params.zeros_like(), state, cfg, 1)
    assert not skipped
    assert all(np.array_equal(params[k], before[k]) for k in params.names())


def test_adam_skips_nonfinite_grads():
    params = tiny_params()
    state = sp.AdamState.zeros(params)
    grads = params.zeros_like()
    grads["out.b"][0] = np.nan
    before = params.copy()
    params, state, skipped = sp.adam_step(params, grads, state, sp.TrainConfig(), 1)
    assert skipped
    assert all(np.array_equal(params[k], before[k]) for k in params.names())


def test_adam_update_that_overflows_raises_naming_the_parameter():
    params = tiny_params().astype(np.float32)
    grads = params.zeros_like()
    grads["out.b"][4] = 1e30  # (1 - b2) g g overflows float32
    with pytest.raises(FloatingPointError, match=r"^the Adam update of out\.b is not finite"):
        sp.adam_step(params, grads, sp.AdamState.zeros(params), sp.TrainConfig(), 1)


def test_warmup_schedule_values():
    cfg = sp.TrainConfig(learning_rate=3e-4, warmup_steps=100)
    assert sp.learning_rate_at(0, cfg) == pytest.approx(1e-8)
    assert sp.learning_rate_at(50, cfg) == pytest.approx(1e-8 + (3e-4 - 1e-8) * 0.5)
    assert sp.learning_rate_at(100, cfg) == pytest.approx(3e-4)
    assert sp.learning_rate_at(5000, cfg) == pytest.approx(3e-4)


def test_adam_converges_on_quadratic():
    """Single-parameter quadratic: the optimizer must find the closed-form
    minimum (x - 3)^2 within 1e-3 in 500 steps."""
    cfg_model = dn.DenoiserConfig(vocab_size=4, num_layers=1, d_model=2, num_heads=1,
                                  n_max=2, num_steps=2)
    params = dn.init_params(cfg_model, 0)
    params.tensors = {"x": np.array([0.0])}
    state = sp.AdamState.zeros(params)
    cfg = sp.TrainConfig(learning_rate=0.05, warmup_steps=0, weight_decay=0.0)
    for step in range(1, 501):
        grads = {"x": 2.0 * (params.tensors["x"] - 3.0)}
        params, state, _ = sp.adam_step(params, grads, state, cfg, step)
    assert abs(params.tensors["x"][0] - 3.0) <= 1e-3


def test_memorization_run_mlm(word_corpus):
    """Loss on a 5-sentence corpus falls under 0.1 nats within ~800 steps."""
    vocab = word_corpus["vocab"]
    seqs = word_corpus["seqs"]
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(vocab), mode="tad", num_layers=2, d_model=32,
                          num_heads=2, n_max=16, num_steps=8, dropout=0.0),
        0,
    ).astype(np.float32)
    state = sp.AdamState.zeros(params)
    cfg = sp.TrainConfig(learning_rate=2e-3, warmup_steps=20, batch_size=5, seed=0)
    loss = np.inf
    for step in range(1, 801):
        rng = stream(0, "mlm", step)
        loss, grads = sp.mlm_pretrain_step(params, seqs, 0.4, rng)
        params, state, _ = sp.adam_step(params, grads, state, cfg, step)
        if step > 300 and loss < 0.1:
            break
    assert loss < 0.1


def test_run_training_smoke_and_metrics_schema(word_corpus, tmp_path):
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(vocab), mode="tad", num_layers=1, d_model=16,
                          num_heads=2, n_max=16, num_steps=8, dropout=0.0),
        0,
    ).astype(np.float32)
    cfg = sp.TrainConfig(learning_rate=1e-3, warmup_steps=5, batch_size=4,
                         total_steps=20, mlm_pretrain_steps=10, seed=0)
    res = sp.run_training(params, vocab, table, seqs,
                          sp.ScheduleParams(num_steps=8, lam=0.3), cfg,
                          out_dir=tmp_path, checkpoint_every=10, log_every=5)
    assert res.final_step == 30
    assert (tmp_path / "metrics.jsonl").exists()
    for rec in res.metrics:
        assert {"step", "loss_total", "l_t_kl", "l0", "lr", "elapsed_s"} <= set(rec)
        assert "lT" not in rec
    phases = [m["phase"] for m in res.metrics]
    assert "mlm" in phases and "diffusion" in phases


@pytest.mark.parametrize("stop_at, written", [(None, [2, 4]), (3, [2, 3]), (4, [2, 4])])
def test_run_training_writes_each_checkpoint_once(word_corpus, tmp_path, monkeypatch,
                                                  stop_at, written):
    """4 steps with a checkpoint every 2 write steps 2 and 4 once each; a run
    that `stop_fn` ends early writes the interval steps before it and its
    last step."""
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]
    saved = []
    monkeypatch.setattr(training, "save_checkpoint",
                        lambda path, params, **kw: saved.append(kw["step"]))
    sp.run_training(tiny_params(vocab_size=len(vocab)), vocab, table, seqs,
                    sp.ScheduleParams(num_steps=8), sp.TrainConfig(batch_size=2, total_steps=4),
                    out_dir=tmp_path, checkpoint_every=2,
                    stop_fn=None if stop_at is None else lambda metrics, step: step == stop_at)
    assert saved == written


def test_run_training_stops_at_a_step_whose_loss_is_not_finite(word_corpus, tmp_path,
                                                               monkeypatch):
    """A NaN loss at step 3 raises ValueError naming the step before its
    update: only steps 1 and 2 leave a record and a checkpoint."""
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]
    real, calls, saved = training.diffusion_loss_batch, [], []

    def nan_at_step_3(*args):
        breakdown, grads = real(*args)
        calls.append(breakdown)
        if len(calls) == 3:
            breakdown = dataclasses.replace(breakdown, total=np.nan)
        return breakdown, grads

    monkeypatch.setattr(training, "diffusion_loss_batch", nan_at_step_3)
    monkeypatch.setattr(training, "save_checkpoint",
                        lambda path, params, **kw: saved.append(kw["step"]))
    with pytest.raises(ValueError, match=r"^step 3: the loss is nan; training stops$"):
        sp.run_training(tiny_params(vocab_size=len(vocab)), vocab, table, seqs,
                        sp.ScheduleParams(num_steps=8),
                        sp.TrainConfig(batch_size=2, total_steps=6),
                        out_dir=tmp_path, checkpoint_every=1, log_every=1)
    records = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["step"] for line in records] == [1, 2]
    assert saved == [1, 2]


@pytest.mark.parametrize("threads", [False, True])
def test_run_training_stops_at_an_overflow_in_a_pool_task(word_corpus, tmp_path, monkeypatch,
                                                         force_threads, threads):
    """An overflow in step 2's backward raises ValueError naming the step,
    also where the backward runs on a pool thread, which takes over the
    error handling of the thread that handed it over: only step 1 leaves a
    record and a checkpoint."""
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]
    backward, loss_batch = dn.backward, training.diffusion_loss_batch
    here, steps, on_caller = threading.get_ident(), [], []

    def overflow_at_step_2(*args):
        on_caller.append(threading.get_ident() == here)
        if len(steps) == 2:
            np.multiply(np.array([1e300]), 1e300)
        return backward(*args)

    def counting_steps(*args):
        steps.append(len(steps) + 1)
        return loss_batch(*args)

    monkeypatch.setattr(dn, "backward", overflow_at_step_2)
    monkeypatch.setattr(training, "diffusion_loss_batch", counting_steps)
    force_threads(threads)
    with pytest.raises(ValueError,
                       match=r"^step 2: overflow encountered in multiply; training stops$"):
        sp.run_training(tiny_params(vocab_size=len(vocab)), vocab, table, seqs,
                        sp.ScheduleParams(num_steps=8),
                        sp.TrainConfig(batch_size=16, total_steps=4),
                        out_dir=tmp_path, checkpoint_every=1, log_every=1)
    assert set(on_caller) == {not threads}
    records = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["step"] for line in records] == [1]
    assert sorted(p.name for p in tmp_path.glob("*.spnd")) == ["checkpoint_0000001.spnd"]


@pytest.mark.parametrize("log_every", [0, -1])
def test_run_training_rejects_log_every_below_1(word_corpus, log_every):
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]
    params = tiny_params(vocab_size=len(vocab))
    cfg = sp.TrainConfig(batch_size=2, total_steps=1)
    with pytest.raises(ValueError, match="log_every"):
        sp.run_training(params, vocab, table, seqs, sp.ScheduleParams(num_steps=8), cfg,
                        log_every=log_every)


@pytest.mark.parametrize("keyword", ["checkpoint_every", "val_every"])
def test_run_training_rejects_a_negative_interval(word_corpus, tmp_path, keyword):
    """A negative interval raises naming its keyword before any step runs
    or any file is written."""
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]
    params = tiny_params(vocab_size=len(vocab))
    before = params.copy()
    cfg = sp.TrainConfig(batch_size=2, total_steps=1)
    with pytest.raises(ValueError, match=f"^{keyword} must be >= 0, got -1$"):
        sp.run_training(params, vocab, table, seqs, sp.ScheduleParams(num_steps=8), cfg,
                        out_dir=tmp_path, val_fn=lambda p, step: 0.0, **{keyword: -1})
    assert list(tmp_path.iterdir()) == []
    assert all(np.array_equal(params[k], before[k]) for k in params.names())


@pytest.mark.parametrize("sched_t", [2, 16])
def test_run_training_rejects_a_schedule_of_another_T(word_corpus, sched_t):
    """A T = 8 model trains only under a T = 8 schedule."""
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]
    params = tiny_params(vocab_size=len(vocab))
    with pytest.raises(ValueError, match=f"schedule T={sched_t} does not match model T=8"):
        sp.run_training(params, vocab, table, seqs, sp.ScheduleParams(num_steps=sched_t),
                        sp.TrainConfig(batch_size=2, total_steps=1))


@pytest.mark.parametrize("workers, train", [(1, False), (2, False), (1, True), (2, True)])
def test_masked_ce_holds_one_group_per_thread(monkeypatch, force_threads, workers, train):
    """A call of four groups per thread peaks at under 1.2x the memory of a
    call of one group per thread, on the same shapes: each group's logits,
    log-probabilities and forward cache are released when it is done, and a
    call keeps at most one group in flight per thread. On one thread,
    holding the last group's arrays through the next forward reads 1.43x.
    On two threads the overlap is forced to its worst, so two groups'
    arrays are held at once in every call, as they are in a run where the
    two overlap fully. A forward-only call runs two groups at once on the
    pool, and each forward waits at a barrier for the other thread's
    forward to return. In a gradient call each backward starts
    only once the next group's head has returned, which fixes the order of
    every large allocation, so its peak is the same in every run.
    A pipelined call holds at most two groups: one group's cache and
    upstream gradient beside the next group's forward and head, or one
    group's backward beside the next group's cache and upstream, each part
    no more than a one-group call's peak. So a gradient call of two groups
    peaks under 2x a call of one group, which runs on one thread."""
    import tracemalloc

    from spindle.training import _GROUP_SIZE

    params = tiny_params(vocab_size=4000, num_layers=2, d_model=32, n_max=32, randomize=False)
    rng = np.random.default_rng(0)
    per_call = _GROUP_SIZE * workers
    x0 = rng.integers(4, 4000, (4 * per_call, 32))
    xt = np.where(rng.random(x0.shape) < 0.5, MASK_ID, x0)
    force_threads(workers == 2)
    calls = {"groups": 0, "heads": 0, "backward": 0}
    if workers == 2 and not train:
        real, barrier = dn.forward, threading.Barrier(2, timeout=30)

        def paired(*args, **kwargs):
            out = real(*args, **kwargs)
            barrier.wait()
            return out

        monkeypatch.setattr(dn, "forward", paired)
    if workers == 2 and train:
        head, backward, ready = training._head_logp, dn.backward, threading.Condition()

        def counted(*args):
            out = head(*args)
            with ready:
                calls["heads"] += 1
                ready.notify_all()
            return out

        def late(*args):
            with ready:
                calls["backward"] += 1
                after = min(calls["backward"] + 1, calls["groups"])
                assert ready.wait_for(lambda: calls["heads"] >= after, timeout=30)
            return backward(*args)

        monkeypatch.setattr(training, "_head_logp", counted)
        monkeypatch.setattr(dn, "backward", late)

    def peak(b):
        calls.update(groups=b // _GROUP_SIZE, heads=0, backward=0)
        grads = params.zeros_like() if train else None
        tracemalloc.start()
        try:
            _masked_ce(params, list(xt[:b]), list(x0[:b]), [np.ones(32)] * b, np.ones(b, int),
                       rng, grads, train=train)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * per_call) < 1.2 * peak(per_call)
    if workers == 2 and train:
        assert peak(per_call) < 2 * peak(_GROUP_SIZE)


def test_keep_freed_heap_sets_both_thresholds_in_order():
    """The mmap threshold is pinned at 32 MiB, then the trim threshold at
    64 MiB, then the arena count at 1; a libc without mallopt, or whose
    mallopt refuses, raises nothing."""
    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 0

    sp._keep_freed_heap(Libc())
    assert calls == [(-3, 32 << 20), (-1, 64 << 20), (-8, 1)]
    sp._keep_freed_heap(object())


_FAULTS_PER_STEP = """
import resource

import numpy as np

import spindle as sp
from spindle.corpus import SPECIAL_TOKENS, UNK_TOKEN

vocab = sp.Vocab(SPECIAL_TOKENS + (UNK_TOKEN,) + tuple(f"w{i}" for i in range(1996)),
                 (0, 0, 0) + (1,) * 1997)
rng = np.random.default_rng(0)
seqs = [rng.integers(4, 2000, 40) for _ in range(64)]
config = sp.DenoiserConfig(vocab_size=2000, num_layers=2, d_model=64, n_max=40)
faults = []


def stop(metrics, step):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return step == 23


sp.run_training(sp.init_params(config, 0).astype(np.float32), vocab,
                sp.SurprisalTable.from_counts(vocab.counts), seqs, sp.ScheduleParams(64),
                sp.TrainConfig(batch_size=16, total_steps=100), log_every=1, stop_fn=stop)
print((faults[22] - faults[2]) / 20)
"""


def _has_mallopt() -> bool:
    import ctypes
    import os

    return os.name == "posix" and hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_train_steps_reuse_freed_heap():
    """Steps 4-23 of a run whose group arrays are larger than glibc's default
    128 KiB mmap threshold fault fewer than 100 pages on average: the freed
    heap is reused, not given back to the kernel and faulted in again.
    Without the pinned thresholds a step faults about 1,100 to 1,800 pages.
    The mean runs over 20 steps because a single step faults up to about
    760 pages now and then, with the thresholds pinned."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 100


def test_resume_matches_uninterrupted(word_corpus, tmp_path):
    """Stopping at a checkpoint and resuming replays the uninterrupted run
    exactly (same metrics, same final tensors)."""
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]

    def fresh_params():
        return dn.init_params(
            dn.DenoiserConfig(vocab_size=len(vocab), mode="tad", num_layers=1, d_model=16,
                              num_heads=2, n_max=16, num_steps=8, dropout=0.1),
            7,
        ).astype(np.float32)

    sched = sp.ScheduleParams(num_steps=8, lam=0.3)
    cfg_a = sp.TrainConfig(learning_rate=1e-3, warmup_steps=5, batch_size=4,
                           total_steps=24, seed=3)
    full = sp.run_training(fresh_params(), vocab, table, seqs, sched, cfg_a,
                           out_dir=tmp_path / "full", checkpoint_every=8, log_every=4)

    cfg_b = sp.TrainConfig(learning_rate=1e-3, warmup_steps=5, batch_size=4,
                           total_steps=16, seed=3)
    part = sp.run_training(fresh_params(), vocab, table, seqs, sched, cfg_b,
                           out_dir=tmp_path / "part", checkpoint_every=8, log_every=4)
    ckpt = sp.load_checkpoint(tmp_path / "part" / "checkpoint_0000016.spnd", dtype=np.float32)
    resumed = sp.run_training(ckpt.params, vocab, table, seqs, sched, cfg_a,
                              out_dir=tmp_path / "resumed", checkpoint_every=8,
                              log_every=4, start_step=ckpt.step,
                              opt_state=opt_state_from_records(ckpt.params, ckpt.extra_tensors))
    for name in full.params.names():
        assert np.array_equal(full.params[name], resumed.params[name])
    tail_full = [m for m in full.metrics if m["step"] > 16]
    tail_res = [m for m in resumed.metrics if m["step"] > 16]
    for a, b in zip(tail_full, tail_res):
        assert a["loss_total"] == b["loss_total"]


def test_resume_into_same_dir_logs_each_step_once(word_corpus, tmp_path):
    """Resuming from an earlier checkpoint into the run's own directory drops
    the logged records after that checkpoint, and a record cut off by an
    interrupted write, before writing them again; a fresh run into the
    directory starts metrics.jsonl empty."""
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(vocab), mode="tad", num_layers=1, d_model=16,
                          num_heads=2, n_max=16, num_steps=8, dropout=0.0),
        0,
    ).astype(np.float32)
    sched = sp.ScheduleParams(num_steps=8, lam=0.3)
    cfg = sp.TrainConfig(learning_rate=1e-3, warmup_steps=2, batch_size=4,
                         total_steps=10, seed=0)

    def logged_steps():
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        return [json.loads(line)["step"] for line in lines]

    sp.run_training(params.copy(), vocab, table, seqs, sched, cfg,
                    out_dir=tmp_path, checkpoint_every=5, log_every=1)
    assert logged_steps() == list(range(1, 11))
    with (tmp_path / "metrics.jsonl").open("a") as fh:
        fh.write('{"elapsed_s": 0.5, "l0')  # a torn last record
    ckpt = sp.load_checkpoint(tmp_path / "checkpoint_0000005.spnd", dtype=np.float32)
    sp.run_training(ckpt.params, vocab, table, seqs, sched, cfg, out_dir=tmp_path,
                    log_every=1, start_step=ckpt.step,
                    opt_state=opt_state_from_records(ckpt.params, ckpt.extra_tensors))
    assert logged_steps() == list(range(1, 11))
    sp.run_training(params.copy(), vocab, table, seqs, sched,
                    sp.TrainConfig(batch_size=4, total_steps=3, seed=0),
                    out_dir=tmp_path, log_every=1)
    assert logged_steps() == [1, 2, 3]


def test_shuffled_passes_see_every_line_once_per_pass():
    """Cut into passes of N positions, the batch stream holds each line
    exactly once per pass, whether a batch is shorter than, equal to, or
    longer than the corpus."""
    n = 7
    for batch_size in (3, 7, 10):
        passes = ShuffledPasses(11, n)
        steps = -(-4 * n // batch_size)
        flat = np.concatenate([passes.batch(s, batch_size) for s in range(1, steps + 1)])
        assert len(flat) == steps * batch_size
        for e in range(len(flat) // n):
            assert sorted(flat[e * n : (e + 1) * n]) == list(range(n)), (batch_size, e)
        assert not np.array_equal(flat[:n], flat[n : 2 * n])


def test_shuffled_passes_resume_replays_batches():
    """A step's batch depends only on (seed, step): a sampler that starts at
    step 11, as a resumed run does, gives the batches of one that walked
    there from step 1."""
    for batch_size in (3, 10):
        walked = ShuffledPasses(5, 7)
        full = [walked.batch(s, batch_size) for s in range(1, 21)]
        resumed = ShuffledPasses(5, 7)
        for s in range(11, 21):
            assert np.array_equal(resumed.batch(s, batch_size), full[s - 1])


def test_shuffled_passes_hold_int32_and_give_the_int64_batches():
    """Below 2^31 lines a pass's permutation is held as int32, and the
    batches, int64, are the slices of the int64 passes
    stream(seed, "epoch", e).permutation(N)."""
    for n, batch_size in ((7, 3), (7, 10), (1000, 64)):
        passes = ShuffledPasses(5, n)
        steps = -(-3 * n // batch_size)
        int64_passes = np.concatenate([stream(5, "epoch", e).permutation(n)
                                       for e in range(steps * batch_size // n + 1)])
        for s in range(1, steps + 1):
            batch = passes.batch(s, batch_size)
            assert batch.dtype == np.int64 and passes._perm.dtype == np.int32
            assert np.array_equal(batch, int64_passes[(s - 1) * batch_size : s * batch_size])


def test_stratified_t_full_batch_is_permutation():
    """With B = T every step is drawn exactly once per batch."""
    for seed in range(20):
        t = stratified_t_draws(stream(seed, "t"), 8, 8)
        assert sorted(t) == list(range(1, 9))


def test_stratified_t_marginal_is_uniform():
    """With B not dividing T, each t still gets a 1/T share: over 4,000
    batches of 5 draws with T = 8, every share lies within 4 binomial
    standard errors of 1/8."""
    big_t, batch_size, steps = 8, 5, 4000
    rng = stream(0, "t-share")
    draws = np.concatenate([stratified_t_draws(rng, batch_size, big_t) for _ in range(steps)])
    assert draws.min() >= 1 and draws.max() <= big_t
    share = np.bincount(draws, minlength=big_t + 1)[1:] / len(draws)
    se = math.sqrt((1 / big_t) * (1 - 1 / big_t) / len(draws))
    assert np.all(np.abs(share - 1 / big_t) <= 4 * se), share


def _exact_bound_per_token(params, seqs, table, sched_params):
    predict = sp.model_predict_fn(params)
    steps = np.arange(sched_params.num_steps + 1)
    nats = sum(
        sp.exact_elbo(predict, x, spindle_alpha_bar_at(table.h_for(x), steps, sched_params))
        for x in seqs
    )
    return nats / sum(len(x) for x in seqs)


def test_two_seeds_land_close_on_toy_corpus(word_corpus):
    """Training is seed-invariant in distribution: two runs end within 5%
    relative bound of each other once both have plateaued.

    Each run trains 2,700 steps at lr 2e-3 and then resumes from its own
    optimizer state for 900 steps at 2e-4. Over seeds 0-9 the bound at
    step 900 is 10-48% above its step-2,700 value, and at step 2,700 still
    7-17% above where the low-rate tail settles it. The bound is computed
    exactly, over every t and every mask pattern, because an 8-draw Monte
    Carlo estimate over these five lines scatters by up to 14% around it,
    more than the 5% under test.
    """
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]
    sched = sp.ScheduleParams(num_steps=8, lam=0.3)
    finals = []
    for seed in (0, 1):
        params = dn.init_params(
            dn.DenoiserConfig(vocab_size=len(vocab), mode="tad", num_layers=1, d_model=32,
                              num_heads=2, n_max=16, num_steps=8, dropout=0.0),
            seed,
        ).astype(np.float32)
        cfg = sp.TrainConfig(learning_rate=2e-3, warmup_steps=20, batch_size=5,
                             total_steps=2700, seed=seed)
        res = sp.run_training(params, vocab, table, seqs, sched, cfg, log_every=900)
        tail = sp.TrainConfig(learning_rate=2e-4, warmup_steps=20, batch_size=5,
                              total_steps=3600, seed=seed)
        res = sp.run_training(res.params, vocab, table, seqs, sched, tail, log_every=900,
                              start_step=2700, opt_state=res.opt_state)
        finals.append(_exact_bound_per_token(res.params, seqs, table, sched))
    rel = abs(finals[0] - finals[1]) / max(finals)
    assert rel <= 0.05, finals


def test_opt_state_from_records_is_strict():
    """A restore takes exactly opt.m.<name> and opt.v.<name> of each
    parameter's shape; a missing, extra or misshapen record raises rather
    than zero-filling or half-restoring a moment."""
    params = tiny_params()
    rng = np.random.default_rng(0)
    good = {f"opt.{k}.{name}": rng.random(v.shape)
            for k in "mv" for name, v in params.tensors.items()}
    state = opt_state_from_records(params, good)
    for name in params.names():
        assert np.array_equal(state.m[name], good[f"opt.m.{name}"])
        assert np.array_equal(state.v[name], good[f"opt.v.{name}"])
    both_missing = {k: v for k, v in good.items() if not k.endswith(".out.b")}
    v_missing = {k: v for k, v in good.items() if k != "opt.v.tok_emb"}
    misshapen = {**good, "opt.m.tok_emb": good["opt.m.tok_emb"][:-1]}
    extra = {**good, "opt.m.bogus": np.zeros(3)}
    for records, named in [(both_missing, "opt.m.out.b"), (v_missing, "opt.v.tok_emb"),
                           (misshapen, "opt.m.tok_emb"), (extra, "opt.m.bogus")]:
        with pytest.raises(ValueError, match=re.escape(named)):
            opt_state_from_records(params, records)
