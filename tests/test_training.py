import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spindle as sp
from spindle import denoiser as dn, oracle as orc
from spindle.corpus import MASK_ID
from spindle.rng import stream
from spindle.training import ShuffledPasses, stratified_t_draws


def tiny_params(mode="tad", vocab_size=13, seed=0, randomize=True, **kw):
    defaults = dict(vocab_size=vocab_size, mode=mode, num_layers=1, d_model=16,
                    num_heads=2, n_max=8, num_steps=8, dropout=0.0)
    defaults.update(kw)
    params = dn.init_params(dn.DenoiserConfig(**defaults), seed)
    if randomize:
        rng = np.random.default_rng(seed + 100)
        params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    return params


def test_uniform_model_single_masked_kl_value():
    """Masked position with reveal 0.5 on an untrained uniform model over 10
    content tokens contributes 0.5 * ln 10 nats."""
    params = tiny_params(randomize=False)  # uniform: 10 content tokens
    ab = np.ones((9, 2))
    ab[1:, 0] = np.linspace(0.8, 0.0, 8)  # position 0: reveal (0.8-0.6)/(1-0.6)=0.5 at t=2
    ab[1:, 1] = np.linspace(0.9, 0.0, 8)
    # choose t where position 0 is masked and position 1 is not
    sched = sp.schedule_from_alpha_bar(np.vstack([np.ones(2), ab[1:]]))
    t = 2
    reveal = sp.reveal_probs(t, t - 1, sched)
    x0 = np.array([5, 6])
    # force xt: position 0 masked, position 1 revealed, via a seed search
    for seed in range(200):
        xt = sp.forward_sample(x0, t, sched, seed)
        if xt[0] == MASK_ID and xt[1] == x0[1]:
            break
    else:
        pytest.fail("no seed produced the wanted mask pattern")
    expected = reveal[0] * math.log(10)
    kl = sp.masked_position_kl(reveal[0], 1.0 / 10)
    assert kl == pytest.approx(expected, abs=1e-12)


def test_perfect_model_zero_loss():
    """A point-mass-on-truth model has zero KL and zero reconstruction loss."""
    params = tiny_params(randomize=False)
    x0 = np.full(8, 7)
    sched = sp.flat_schedule(8, sp.ScheduleParams(num_steps=8, lam=0.0))
    bias = params.tensors["out.b"]

    def losses(token):
        """(t = 1, t = 5) loss totals when the model is sure of `token`."""
        bias[:] = -60.0
        bias[token] = 60.0
        recon, _ = sp.diffusion_loss(params, x0, 1, sched, stream(1, "perfect"), want_grads=False)
        kl, _ = sp.diffusion_loss(params, x0, 5, sched, stream(1, "perfect"), want_grads=False)
        assert recon.l_t_kl == 0.0 and kl.l_0 == 0.0
        return recon.total, kl.total

    assert max(losses(7)) <= 1e-12
    # control: a model sure of the wrong token pays for the same masked draws
    assert min(losses(8)) >= 10.0


def test_diffusion_loss_breakdown_fields():
    params = tiny_params()
    h = np.array([0.5, 1.0, 2.0])
    sched = sp.spindle_schedule(h, sp.ScheduleParams(num_steps=8, lam=0.3))
    x0 = np.array([4, 5, 6])
    breakdown, grads = sp.diffusion_loss(params, x0, 5, sched, stream(0, "x"))
    assert breakdown.l_T == 0.0
    assert breakdown.l_0 == 0.0 and breakdown.l_t_kl >= 0.0
    assert breakdown.num_tokens == 3
    assert set(grads) == set(params.tensors)
    # t = 1 routes to the reconstruction slot
    b1, _ = sp.diffusion_loss(params, x0, 1, sched, stream(1, "x"), want_grads=False)
    assert b1.l_t_kl == 0.0 and b1.l_0 >= 0.0


def test_diffusion_loss_rejects_masked_x0():
    params = tiny_params()
    sched = sp.flat_schedule(2, sp.ScheduleParams(num_steps=8, lam=0.0))
    with pytest.raises(ValueError):
        sp.diffusion_loss(params, np.array([MASK_ID, 5]), 3, sched, 0)


@pytest.mark.parametrize("objective", ["diffusion", "mlm"])
def test_diffusion_loss_grads_match_fd(objective):
    """Both weightings of the shared masked cross-entropy core, the bound's
    and MLM's (over a padded two-item batch), against finite differences."""
    params = tiny_params("lte", seed=3, dropout=0.1)
    h = np.exp(np.random.default_rng(0).uniform(-1, 1, size=5))
    sched = sp.spindle_schedule(h, sp.ScheduleParams(num_steps=8, lam=0.4))
    x0 = np.random.default_rng(1).integers(4, 13, size=5)

    def loss_and_grads(p, want_grads):
        if objective == "mlm":
            return sp.mlm_pretrain_step(p, [x0, x0[:3]], 0.5, stream(9, "n"),
                                        want_grads=want_grads)
        b, grads = sp.diffusion_loss(p, x0, 6, sched, stream(9, "n"), want_grads=want_grads)
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
        worst = max(worst, abs(fd - grads[name][idx]) / max(abs(fd), abs(grads[name][idx]), 1e-4))
    assert worst <= 1e-4


@settings(max_examples=60, deadline=None)
@given(
    reveal=st.floats(0.01, 1.0),
    c=st.integers(2, 10),
    truth=st.integers(0, 9),
    seed=st.integers(0, 10_000),
)
def test_simplified_kl_equals_generic(reveal, c, truth, seed):
    truth = truth % c
    pred = np.random.default_rng(seed).dirichlet(np.ones(c))
    k = c + 3
    q_row = np.zeros(k)
    q_row[3 + truth] = reveal
    q_row[MASK_ID] = 1.0 - reveal
    pred_full = np.zeros(k)
    pred_full[3:] = pred
    p_row = sp.reverse_mixture_row(pred_full, reveal, k)
    assert sp.masked_position_kl(reveal, pred[truth]) == pytest.approx(
        orc.generic_kl(q_row, p_row), abs=1e-9
    )


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
        assert {"step", "loss_total", "l_t_kl", "l0", "lT", "lr", "elapsed_s"} <= set(rec)
    phases = [m["phase"] for m in res.metrics]
    assert "mlm" in phases and "diffusion" in phases


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
    from spindle.training import opt_state_from_records

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
    nats = sum(
        sp.exact_elbo(predict, x, sp.spindle_schedule(table.h_for(x), sched_params))
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
