"""Metrics: bound-based perplexity proxy, BLEU-4, self-BLEU, and the
quality/diversity sweep.

BLEU follows the per-candidate multi-reference convention: each candidate is
scored against the whole reference set with order-4 modified precisions,
add-one smoothing on zero-match orders and the closest-reference-length
brevity penalty (ties go to the shorter); an empty candidate scores 0, and
the scores are averaged over candidates. Each order clips every candidate
against one table of each reference n-gram's largest and second-largest
count. Self-BLEU scores each candidate against the others from tables over
all candidates: a count equal to the largest is clipped to the second, the
largest among the others. A candidate or reference is a string (split on
whitespace), a token tuple, or a row of token ids; a vocab maps ids to
tokens one to one, so BLEU over id rows equals BLEU over their tokens.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .corpus import MASK_ID, SurprisalTable
from .denoiser import DenoiserParams, forward
from .diffusion import ScheduleParams, reveal_from_rows, spindle_alpha_bar_at
from .rng import stream
from .sampling import SampleConfig, generate_batch
from .training import diffusion_loss_batch, stratified_t_draws


def elbo_eval(
    params: DenoiserParams,
    dataset: list[np.ndarray],
    sched_params: ScheduleParams,
    surprisal: SurprisalTable,
    t_samples_per_example: int = 4,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of the bound in nats per content token, from
    t_samples_per_example time draws per example. Each example's draws are
    stratified over {1..T} (`stratified_t_draws` on its own stream): each is
    uniform, so the estimate is unbiased, and together they cover {1..T}
    evenly, so it varies less than with iid draws. The (example, draw)
    pairs, example-major, go to `diffusion_loss_batch` in one call, their
    retention rows as a generator: the loss core builds rows, states and
    weights one window of pairs at a time, which bounds memory. Every mask
    comes from one stream, pair j taking its j-th block of uniforms.
    Dropout is off; the result is a pure function of (params, dataset, seed).

    What it bounds: the schedule of each example is that of its true x0.
    At lam = 0 every line has the same linear schedule, and the value
    bounds the negative log-likelihood (NLL) of the lines `generate_batch`
    draws with one iteration per step, frozen, at temperature 1 and with
    top_k covering the vocabulary. At lam > 0 the sampler takes its
    schedule from its own predicted x0, so the value is the paper's
    objective but can understate that NLL: on tiny tad models at lam = 0.3
    it did on 8 of 25 sequences, by up to 0.64 nats, against an exact
    enumeration of the sampler's kernel.
    """
    if not dataset:
        raise ValueError("empty dataset")
    if t_samples_per_example < 1:
        raise ValueError(f"t_samples_per_example must be >= 1, got {t_samples_per_example}")
    sched_params.check_model_steps(params.config.num_steps)
    big_t, k = sched_params.num_steps, t_samples_per_example
    dataset = [np.asarray(x, dtype=np.int64) for x in dataset]
    # the t draws come first: a k that numpy cannot allocate fails before the pairs are listed
    t_draws = np.concatenate([stratified_t_draws(stream(seed, "elbo", i), k, big_t)
                              for i in range(len(dataset))])
    seqs = [x for x in dataset for _ in range(k)]
    rows = (spindle_alpha_bar_at(surprisal.h_for(x), [t - 1, t], sched_params)
            for x, t in zip(seqs, t_draws))
    breakdown, _ = diffusion_loss_batch(params, seqs, rows, t_draws, stream(seed, "elbo-noise"),
                                        train=False)
    return breakdown.total


def exact_elbo(predict_fn, x0: np.ndarray, alpha_bar: np.ndarray) -> float:
    """The bound in nats, exhaustively averaged over every time step and every
    forward mask pattern (tiny instances only: 2^n patterns per step).
    alpha_bar is the (T+1, n) retention grid of x0, ending at 0; predict_fn
    maps an (n,) state and the step t to (n, K) clean-token probabilities.
    With x0's own spindle grid this is the bound `elbo_eval` estimates, and
    like it, it bounds the sampler's NLL at lam = 0 only.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    n = len(x0)
    if np.any(alpha_bar[-1] != 0.0):
        raise ValueError("prior term nonzero: schedule must end fully masked")
    total = 0.0
    for t in range(1, len(alpha_bar)):
        a_t = alpha_bar[t]
        r = reveal_from_rows(alpha_bar[t - 1], a_t)
        for pattern in itertools.product((False, True), repeat=n):
            m = np.array(pattern)
            weight = float(np.prod(np.where(m, 1.0 - a_t, a_t)))
            if weight == 0.0:
                continue
            pred = np.asarray(predict_fn(np.where(m, MASK_ID, x0), t))
            p_truth = pred[np.arange(n), x0]
            term = float(np.sum(np.where(m, r * -np.log(np.maximum(p_truth, 1e-300)), 0.0)))
            total += weight * term
    return total


def model_predict_fn(params: DenoiserParams):
    """(state, t) -> (n, K) clean-token rows for the tiny oracles: the model's
    softmax at [MASK] positions, a point mass on the token itself elsewhere."""

    def predict(xt: np.ndarray, t: int) -> np.ndarray:
        logits = forward(params, xt, t)[0]
        z = np.exp(logits - logits.max(axis=-1, keepdims=True))
        rows = (xt[:, None] == np.arange(params.config.vocab_size)).astype(np.float64)
        rows[xt == MASK_ID] = z / z.sum(axis=-1, keepdims=True)
        return rows

    return predict


# --- BLEU ------------------------------------------------------------------------

def _tokens(item) -> tuple:
    """A string's words, or a sequence's items (an id row's as Python ints)."""
    if isinstance(item, str):
        return tuple(item.split())
    return tuple(item.tolist() if isinstance(item, np.ndarray) else item)


def _ngrams(tokens: tuple, order: int) -> Counter:
    return Counter(tokens[i : i + order] for i in range(len(tokens) - order + 1))


def _bleu_scores(cands: list, refs: list, leave_one_out: bool) -> list[float]:
    """Each candidate's BLEU (module docstring) against `refs`, or with
    `leave_one_out`, where refs is cands, against the other candidates."""
    if not refs:
        raise ValueError("reference set is empty")
    log_p = [0.0] * len(cands)
    for order in range(1, 5):
        top: dict = {}  # gram -> (largest, second-largest) count over refs
        for ref in refs:
            for gram, cnt in _ngrams(ref, order).items():
                first, second = top.get(gram, (0, 0))
                top[gram] = (max(first, cnt), max(second, min(first, cnt)))
        for i, cand in enumerate(cands):
            counts = _ngrams(cand, order)
            total = sum(counts.values())
            clipped = 0
            for gram, cnt in counts.items():
                first, second = top.get(gram, (0, 0))
                clipped += min(cnt, second if leave_one_out and cnt == first else first)
            log_p[i] += math.log((clipped + 1) / (total + 1) if clipped == 0 else clipped / total)
    ref_lens = Counter(len(ref) for ref in refs)
    scores = []
    for cand, lp in zip(cands, log_p):
        c = len(cand)
        r = min((abs(n - c), n) for n, k in ref_lens.items() if k > (leave_one_out and n == c))[1]
        bp = 0.0 if c == 0 else 1.0 if c >= r else math.exp(1.0 - r / c)
        scores.append(bp * math.exp(lp / 4))
    return scores


def bleu4(candidates, reference_corpus) -> float:
    """Mean per-candidate BLEU against the full reference corpus. Each call
    builds its own reference tables, one n-gram order at a time."""
    candidates = [_tokens(c) for c in candidates]
    if not candidates:
        raise ValueError("no candidates")
    refs = [_tokens(r) for r in reference_corpus]
    return float(np.mean(_bleu_scores(candidates, refs, leave_one_out=False)))


def self_bleu4(candidates) -> float:
    """Mean BLEU of each candidate against all the others (lower = more
    diverse). Each call builds its own tables over the candidates, one
    n-gram order at a time."""
    candidates = [_tokens(c) for c in candidates]
    if len(candidates) < 2:
        raise ValueError("self-BLEU needs at least 2 candidates")
    return float(np.mean(_bleu_scores(candidates, candidates, leave_one_out=True)))


# --- sweeps ------------------------------------------------------------------------

def quality_diversity_sweep(
    params: DenoiserParams,
    sched_params: ScheduleParams,
    surprisal: SurprisalTable,
    references: list,
    grid: list[tuple[int, float]],
    *,
    num_per_point: int,
    length: int,
    num_reverse_iterations: int,
    seed: int = 0,
) -> list[dict]:
    """BLEU against `references` and self-BLEU at each (top_k, temperature)
    grid point."""
    rows = []
    for gi, (k, temp) in enumerate(grid):
        cfg = SampleConfig(
            length=length, num_reverse_iterations=num_reverse_iterations,
            top_k=k, temperature=temp, seed=seed,
        )
        res = generate_batch(
            params, sched_params, cfg, surprisal, num_per_point,
            stream(seed, "sweep", gi),
        )
        rows.append({"top_k": k, "temperature": temp, "bleu4": bleu4(res.sequences, references),
                     "self_bleu4": self_bleu4(res.sequences)})
    return rows
