import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spindle as sp
from spindle import denoiser as dn, evaluation, oracle as orc
from spindle.corpus import MASK_ID
from spindle.diffusion import reveal_from_rows, spindle_alpha_bar_at
from spindle.rng import stream


def test_bleu_identity():
    assert sp.bleu4(["the cat sat down"], ["the cat sat down"]) == pytest.approx(1.0)


def test_bleu_hand_checked_example():
    """Candidate 'the cat sat' vs reference 'the cat sat down': precisions
    (3/3, 2/2, 1/1, smoothed 1), BP = e^(1 - 4/3). Frozen from an independent
    hand computation of the corpus-BLEU formula."""
    got = sp.bleu4(["the cat sat"], ["the cat sat down"])
    assert got == pytest.approx(math.exp(1.0 - 4.0 / 3.0), abs=1e-12)


def test_bleu_disjoint_vocab_is_smoothing_floor():
    cand = " ".join(f"a{i}" for i in range(20))
    ref = " ".join(f"b{i}" for i in range(20))
    got = sp.bleu4([cand], [ref])
    # add-one smoothing on all four orders: exactly the smoothing floor
    expected = (1 / 21 * 1 / 20 * 1 / 19 * 1 / 18) ** 0.25
    assert got == pytest.approx(expected, abs=1e-12)
    assert got < 0.1


def test_bleu_empty_candidate_scores_zero():
    assert sp.bleu4([""], ["a b c"]) == 0.0


def ref_bleu(cand: tuple, refs: list) -> float:
    """A from-scratch BLEU of one token tuple against token tuples, written
    differently (explicit clipping loops, no shared code)."""
    if not cand:
        return 0.0
    log_sum = 0.0
    for order in range(1, 5):
        cand_ngrams = [tuple(cand[i:i + order]) for i in range(len(cand) - order + 1)]
        matched = 0
        for gram in set(cand_ngrams):
            best = max(
                sum(1 for j in range(len(r) - order + 1) if tuple(r[j:j + order]) == gram)
                for r in refs
            )
            matched += min(cand_ngrams.count(gram), best)
        total = len(cand_ngrams)
        if matched == 0:
            log_sum += math.log((matched + 1) / (total + 1))
        else:
            log_sum += math.log(matched / total)
    c = len(cand)
    r = min((abs(len(r_) - c), len(r_)) for r_ in refs)[1]
    bp = 1.0 if c >= r else math.exp(1 - r / c)
    return bp * math.exp(log_sum / 4)


def test_bleu_matches_independent_implementation():
    """`bleu4` of one string candidate agrees with `ref_bleu` on its words."""
    rng = np.random.default_rng(0)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(40):
        cand = " ".join(rng.choice(vocab, size=rng.integers(1, 9)))
        refs = [" ".join(rng.choice(vocab, size=rng.integers(1, 9)))
                for _ in range(int(rng.integers(1, 4)))]
        want = ref_bleu(tuple(cand.split()), [tuple(r.split()) for r in refs])
        assert sp.bleu4([cand], refs) == pytest.approx(want, abs=1e-12)


_token_rows = st.lists(st.lists(st.sampled_from("abc"), max_size=7).map(tuple),
                       min_size=1, max_size=7)


@settings(max_examples=300, deadline=None)
@given(cands=_token_rows, refs=_token_rows, dup=st.integers(-1, 6))
@example(cands=[(), ("a",)], refs=[("a", "b")], dup=-1)  # empty candidate, one reference, N = 2
@example(cands=[("a", "b")], refs=[("a",), ("a", "b", "c")], dup=0)  # length tie at c - 1, c + 1
@example(cands=[("a", "a", "b"), ("a", "b")], refs=[("a", "a")], dup=0)  # two rows hold a maximum
def test_bleu_and_self_bleu_equal_the_independent_reference(cands, refs, dup):
    """`bleu4` and `self_bleu4`, which clip against one table per order,
    equal the mean of `ref_bleu` over the candidates exactly; for self-BLEU
    each candidate's references are all the other candidates."""
    if dup >= 0:
        cands = cands + [cands[dup % len(cands)]]
    assert sp.bleu4(cands, refs) == np.mean([ref_bleu(c, refs) for c in cands])
    if len(cands) >= 2:
        others = [cands[:i] + cands[i + 1:] for i in range(len(cands))]
        assert sp.self_bleu4(cands) == np.mean([ref_bleu(c, o) for c, o in zip(cands, others)])


def test_bleu_counts_each_reference_once_per_order(monkeypatch):
    """`bleu4` over C candidates and R references counts n-grams at most
    4 (C + R) times: no candidate rescans the references."""
    calls = []
    ngrams = evaluation._ngrams
    monkeypatch.setattr(evaluation, "_ngrams",
                        lambda tokens, order: calls.append(order) or ngrams(tokens, order))
    rng = np.random.default_rng(0)
    cands = [rng.integers(0, 9, size=int(rng.integers(4, 12))) for _ in range(5)]
    refs = [rng.integers(0, 9, size=int(rng.integers(4, 12))) for _ in range(50)]
    sp.bleu4(cands, refs)
    assert 0 < len(calls) <= 4 * (5 + 50)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bleu_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    vocab = ["a", "b", "c", "d"]
    cands = [" ".join(rng.choice(vocab, size=5)) for _ in range(4)]
    refs = [" ".join(rng.choice(vocab, size=6)) for _ in range(3)]
    perm = list(rng.permutation(4))
    assert sp.bleu4(cands, refs) == pytest.approx(sp.bleu4([cands[i] for i in perm], refs))


def test_bleu_over_ids_equals_bleu_over_tokens(word_corpus):
    """A vocab maps ids to tokens one to one, so BLEU and self-BLEU over id
    rows, a 2-D id array among them, equal the same calls over the rows'
    token tuples exactly, with empty and duplicate rows."""
    vocab = word_corpus["vocab"]
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows = [rng.integers(0, 12, size=int(rng.integers(0, 9))) for _ in range(6)]
        rows += [rows[1], rows[1], np.array([], dtype=np.int64)]
        grid = rng.integers(0, 12, size=(4, 5))
        rng.shuffle(rows)
        tokens = [tuple(vocab.tokens[i] for i in row) for row in rows]
        grid_tokens = [tuple(vocab.tokens[i] for i in row) for row in grid]
        assert sp.bleu4(rows[:4], rows[4:]) == sp.bleu4(tokens[:4], tokens[4:])
        assert sp.bleu4(grid, rows) == sp.bleu4(grid_tokens, tokens)
        assert sp.self_bleu4(rows) == sp.self_bleu4(tokens)
        assert sp.self_bleu4(grid) == sp.self_bleu4(grid_tokens)


def test_self_bleu_identical_sentences():
    assert sp.self_bleu4(["x y z w"] * 5) == pytest.approx(1.0)


def test_self_bleu_needs_two():
    with pytest.raises(ValueError):
        sp.self_bleu4(["just one"])


def test_self_bleu_diverse_lower_than_repetitive():
    diverse = ["a b c d", "e f g h", "c a d b", "h g e f"]
    repetitive = ["a b c d", "a b c d", "a b c e", "a b c f"]
    assert sp.self_bleu4(diverse) < sp.self_bleu4(repetitive)


def test_elbo_eval_uniform_model_telescopes_to_log_vocab(word_corpus):
    """Uniform untrained model with lam=0: the per-token bound telescopes to
    exactly ln(content vocab), independent of T (up to MC noise)."""
    vocab, table = word_corpus["vocab"], word_corpus["table"]
    seqs = word_corpus["seqs"]
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(vocab), mode="tad", num_layers=1, d_model=16,
                          num_heads=2, n_max=16, num_steps=8, dropout=0.0),
        0,
    )
    got = sp.elbo_eval(params, seqs, sp.ScheduleParams(num_steps=8, lam=0.0), table,
                       t_samples_per_example=64, seed=5)
    assert got == pytest.approx(math.log(vocab.num_content), rel=0.05)


@pytest.mark.parametrize("t_samples", [0, -2])
def test_elbo_eval_rejects_t_samples_below_1(word_corpus, t_samples):
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(word_corpus["vocab"]), mode="tad", num_layers=1,
                          d_model=16, num_heads=2, n_max=16, num_steps=8, dropout=0.0),
        0,
    )
    with pytest.raises(ValueError, match="t_samples_per_example"):
        sp.elbo_eval(params, word_corpus["seqs"], sp.ScheduleParams(num_steps=8),
                     word_corpus["table"], t_samples_per_example=t_samples)


def test_elbo_eval_exact_telescoping_exhaustive(word_corpus):
    """Same statement but exact: exhaustive averaging gives ln C per token."""
    vocab = word_corpus["vocab"]
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(vocab), mode="tad", num_layers=1, d_model=16,
                          num_heads=2, n_max=4, num_steps=4, dropout=0.0),
        0,
    )
    x0 = np.array([5, 7])
    a = spindle_alpha_bar_at(np.ones(2), np.arange(5), sp.ScheduleParams(num_steps=4, lam=0.0))
    total = sp.exact_elbo(sp.model_predict_fn(params), x0, a)
    assert total / 2 == pytest.approx(math.log(vocab.num_content), abs=1e-9)


def test_elbo_eval_deterministic_and_seed_sensitive(word_corpus):
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(vocab), mode="tad", num_layers=1, d_model=16,
                          num_heads=2, n_max=16, num_steps=8, dropout=0.0),
        0,
    )
    sched = sp.ScheduleParams(num_steps=8, lam=0.3)
    a = sp.elbo_eval(params, seqs, sched, table, 4, seed=1)
    b = sp.elbo_eval(params, seqs, sched, table, 4, seed=1)
    c = sp.elbo_eval(params, seqs, sched, table, 4, seed=2)
    assert a == b
    assert a != c


def test_elbo_eval_consistency_under_more_samples(word_corpus):
    """Uniform model, lam=0: the bound is exactly ln C per token, and
    doubling the t draws brings the estimate closer to it over a fixed set
    of seeds."""
    vocab, table, seqs = word_corpus["vocab"], word_corpus["table"], word_corpus["seqs"]
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(vocab), mode="tad", num_layers=1, d_model=16,
                          num_heads=2, n_max=16, num_steps=8, dropout=0.0),
        0,
    )
    sched = sp.ScheduleParams(num_steps=8, lam=0.0)

    def rms_error(draws):
        est = [sp.elbo_eval(params, seqs, sched, table, draws, seed=s) for s in range(20)]
        return np.sqrt(np.mean((np.array(est) - math.log(vocab.num_content)) ** 2))

    few, many = rms_error(8), rms_error(16)
    assert many < few < 0.5


def _tiny_elbo_instance(word_corpus):
    """A three-token example, T = 8, lam = 0.3 and a large random head, so
    that the bound at step t varies strongly with t; returns the model, the
    example, the schedule and its exact bound per token."""
    vocab, table = word_corpus["vocab"], word_corpus["table"]
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(vocab), mode="tad", num_layers=1, d_model=16,
                          num_heads=2, n_max=16, num_steps=8, dropout=0.0),
        0,
    )
    w = params.tensors["out.w"]
    w[:] = np.random.default_rng(1).normal(0.0, 3.0, w.shape)
    x = word_corpus["seqs"][0][:3]
    sched = sp.ScheduleParams(num_steps=8, lam=0.3)
    exact = sp.exact_elbo(sp.model_predict_fn(params), x,
                          spindle_alpha_bar_at(table.h_for(x), np.arange(9), sched)) / len(x)
    return params, x, sched, exact


def test_elbo_eval_stratified_draws_are_unbiased(word_corpus):
    """The mean of the stratified estimate over many seeds lies within 4
    standard errors of the exact bound."""
    params, x, sched, exact = _tiny_elbo_instance(word_corpus)
    est = np.array([sp.elbo_eval(params, [x], sched, word_corpus["table"], 4, seed=s)
                    for s in range(200)])
    se = est.std(ddof=1) / np.sqrt(len(est))
    assert abs(est.mean() - exact) < 4 * se


def test_elbo_eval_stratified_spread_below_iid(word_corpus):
    """On an instance where the bound at step t varies strongly with t,
    four stratified draws scatter less than four iid draws.

    The model predicts the same row at every [MASK] (out.w is zero, so the
    logits are out.b = -3 h), so position i costs a constant c_i and, at
    step t, L = (T/n) sum_i m_i r_i c_i with m_i ~ Bernoulli(1 - abar_i[t]).
    That gives E[L | t] and Var[L | t] in closed form, and from them the
    exact spread of both estimators; over 200 seeds the stratified estimate
    has the closed-form mean and a spread well below the iid one."""
    vocab, table = word_corpus["vocab"], word_corpus["table"]
    big_t, k = 8, 4
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(vocab), mode="tad", num_layers=1, d_model=16,
                          num_heads=2, n_max=32, num_steps=big_t, dropout=0.0),
        0,
    )
    assert not params.tensors["out.w"].any()
    params.tensors["out.b"][:] = -3.0 * table.h
    x = np.concatenate(word_corpus["seqs"])
    n = len(x)
    assert n == 29
    sched = sp.ScheduleParams(num_steps=big_t, lam=2.0)
    probs = sp.model_predict_fn(params)(np.full(n, MASK_ID), big_t)
    c = -np.log(probs[np.arange(n), x])
    a = spindle_alpha_bar_at(table.h_for(x), np.arange(big_t + 1), sched)
    r = np.array([reveal_from_rows(a[t - 1], a[t]) for t in range(1, big_t + 1)])
    mean_t = big_t / n * ((a[:-1] - a[1:]) * c).sum(axis=1)  # E[L | t], t = 1..T
    var_t = (big_t / n) ** 2 * (c**2 * r**2 * a[1:] * (1 - a[1:])).sum(axis=1)
    # the stratified draws are t_j = j T/k + 1 + b, with b uniform on {0 .. T/k - 1}
    strata = mean_t.reshape(k, big_t // k)
    var_strat = strata.mean(axis=0).var() + var_t.mean() / k
    var_iid = (mean_t.var() + var_t.mean()) / k
    assert np.sqrt(var_strat / var_iid) <= 0.65  # 0.620; 2,000 seeds measure 0.600

    seeds = range(200)
    strat = np.array([sp.elbo_eval(params, [x], sched, table, k, seed=s) for s in seeds])
    iid = np.array([np.mean([sp.elbo_eval(params, [x], sched, table, 1, seed=1000 + k * s + j)
                             for j in range(k)]) for s in seeds])
    assert abs(strat.mean() - mean_t.mean()) < 4 * strat.std(ddof=1) / np.sqrt(len(strat))
    assert strat.std() < 0.85 * iid.std()


def test_elbo_eval_does_not_depend_on_the_chunk_size(word_corpus, monkeypatch):
    """Pair j of the (example, draw) layout takes the j-th block of the one
    noise stream, so the loss core's windows of 1, 7 or 64 pairs give the
    same value up to float64 rounding."""
    from spindle import training

    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(word_corpus["vocab"]), mode="tad", num_layers=1,
                          d_model=16, num_heads=2, n_max=16, num_steps=8, dropout=0.0),
        0,
    )
    params.tensors["out.w"][:] = np.random.default_rng(1).normal(0.0, 1.0,
                                                                params.tensors["out.w"].shape)
    dataset = [word_corpus["seqs"][i % 5] for i in range(9)]
    got = []
    for window in (1, 7, 64):
        monkeypatch.setattr(training, "_WINDOW", window)
        got.append(sp.elbo_eval(params, dataset, sp.ScheduleParams(num_steps=8),
                                word_corpus["table"], 4, seed=3))
    assert got == pytest.approx([got[-1]] * 3, rel=1e-12, abs=0)


def test_elbo_eval_memory_does_not_grow_with_the_test_set(word_corpus):
    """The retention rows, states and weights of one window of pairs exist
    at a time, so scoring 16x the examples peaks at under 1.25x the memory.
    With every pair's rows, states and weights built before the loss core
    runs, the ratio reads 4.1x; this code reads 1.13x."""
    import tracemalloc

    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(word_corpus["vocab"]), mode="tad", num_layers=1,
                          d_model=16, num_heads=2, n_max=16, num_steps=8, dropout=0.0),
        0,
    )
    examples = [np.resize(word_corpus["seqs"][i % 5], 16) for i in range(512)]

    def peak(num):
        tracemalloc.start()
        try:
            sp.elbo_eval(params, examples[:num], sp.ScheduleParams(num_steps=8),
                         word_corpus["table"], 4, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(512) < 1.25 * peak(32)


@pytest.mark.parametrize("big_t", [8, 64])
def test_elbo_eval_puts_one_draw_in_each_stratum(word_corpus, monkeypatch, big_t):
    """With k = 4 draws per example, each example has exactly one t in each
    stratum floor(jT/k)+1 .. floor((j+1)T/k); all 280 (example, draw) pairs
    go to the loss core in one call."""
    from spindle import evaluation

    k = 4
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(word_corpus["vocab"]), mode="tad", num_layers=1,
                          d_model=16, num_heads=2, n_max=16, num_steps=big_t),
        0,
    )
    dataset = [word_corpus["seqs"][i % 5].copy() for i in range(70)]
    position = {id(x): i for i, x in enumerate(dataset)}
    draws = [[] for _ in dataset]
    calls = []
    real = evaluation.diffusion_loss_batch

    def recording(params, seqs, rows, t_draws, *args, **kwargs):
        calls.append(len(seqs))
        for x, t in zip(seqs, t_draws):
            draws[position[id(x)]].append(int(t))
        return real(params, seqs, rows, t_draws, *args, **kwargs)

    monkeypatch.setattr(evaluation, "diffusion_loss_batch", recording)
    sp.elbo_eval(params, dataset, sp.ScheduleParams(num_steps=big_t), word_corpus["table"], k,
                 seed=5)
    assert calls == [70 * k]
    strata = [(j * big_t // k + 1, (j + 1) * big_t // k) for j in range(k)]
    for ts in draws:
        assert [sum(lo <= t <= hi for t in ts) for lo, hi in strata] == [1] * k


@pytest.mark.parametrize("sched_t", [2, 16])
def test_elbo_eval_rejects_a_schedule_of_another_T(word_corpus, sched_t):
    """A T = 8 model is scored only under a T = 8 schedule."""
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(word_corpus["vocab"]), mode="tad", num_layers=1,
                          d_model=16, num_heads=2, n_max=16, num_steps=8),
        0,
    )
    with pytest.raises(ValueError, match=f"schedule T={sched_t} does not match model T=8"):
        sp.elbo_eval(params, word_corpus["seqs"], sp.ScheduleParams(num_steps=sched_t),
                     word_corpus["table"])


def test_elbo_eval_empty_dataset_errors(word_corpus):
    params = dn.init_params(
        dn.DenoiserConfig(vocab_size=len(word_corpus["vocab"]), mode="tad", num_layers=1,
                          d_model=16, num_heads=2, n_max=16, num_steps=8),
        0,
    )
    with pytest.raises(ValueError):
        sp.elbo_eval(params, [], sp.ScheduleParams(num_steps=8), word_corpus["table"])

