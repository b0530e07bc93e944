"""Metrics: bound-based perplexity proxy, BLEU-4, self-BLEU, and the
quality/diversity sweep.

BLEU follows the per-candidate multi-reference convention: each candidate is
scored against the whole reference set (self-BLEU: against the other
candidates) with order-4 modified precisions, add-one smoothing on
zero-match orders, and the closest-reference-length brevity penalty; scores
are then averaged over candidates.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import MASK_ID, SurprisalTable, Vocab
from .denoiser import DenoiserParams, forward
from .diffusion import ScheduleParams, reveal_from_rows, spindle_alpha_bar_at
from .rng import stream
from .sampling import SampleConfig, generate_batch
from .training import diffusion_loss_batch, stratified_t_draws

_EVAL_CHUNK = 64


@dataclass(frozen=True)
class MetricsReport:
    elbo_nats_per_token: float
    ppl_proxy: float
    bleu4: float
    self_bleu4: float
    num_samples: int
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"format_version": 1, **asdict(self)}, indent=2, sort_keys=True)


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
    pairs, example-major, go _EVAL_CHUNK at a time to `diffusion_loss_batch`,
    which bounds memory. Every mask comes from one stream, pair j taking its
    j-th block of uniforms, so the value does not depend on the chunk size.
    Dropout is off; the result is a pure function of (params, dataset, seed).
    """
    if not dataset:
        raise ValueError("empty dataset")
    if t_samples_per_example < 1:
        raise ValueError(f"t_samples_per_example must be >= 1, got {t_samples_per_example}")
    sched_params.check_model_steps(params.config.num_steps)
    big_t = sched_params.num_steps
    dataset = [np.asarray(x, dtype=np.int64) for x in dataset]
    pairs = [(x, t) for i, x in enumerate(dataset)
             for t in stratified_t_draws(stream(seed, "elbo", i), t_samples_per_example, big_t)]
    noise = stream(seed, "elbo-noise")
    total_nats = 0.0
    for lo in range(0, len(pairs), _EVAL_CHUNK):
        chunk = pairs[lo : lo + _EVAL_CHUNK]
        rows = [spindle_alpha_bar_at(surprisal.h_for(x), [t - 1, t], sched_params)
                for x, t in chunk]
        breakdown, _ = diffusion_loss_batch(
            params, [x for x, _ in chunk], rows, np.array([t for _, t in chunk]), big_t,
            noise, train=False, want_grads=False,
        )
        total_nats += breakdown.total * breakdown.num_tokens
    return total_nats / sum(len(x) for x, _ in pairs)


def exact_elbo(predict_fn, x0: np.ndarray, alpha_bar: np.ndarray) -> float:
    """The bound in nats, exhaustively averaged over every time step and every
    forward mask pattern (tiny instances only: 2^n patterns per step).
    alpha_bar is the (T+1, n) retention grid of x0, ending at 0; predict_fn
    maps an (n,) state and the step t to (n, K) clean-token probabilities.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    n = len(x0)
    if np.any(alpha_bar[-1] != 0.0):
        raise ValueError("prior term nonzero: schedule must end fully masked")
    preds: dict[tuple, np.ndarray] = {}

    def pred_for(pattern: tuple[bool, ...], t: int) -> np.ndarray:
        key = (pattern, t)
        if key not in preds:
            xt = np.where(np.array(pattern), MASK_ID, x0)
            preds[key] = np.asarray(predict_fn(xt, t))
        return preds[key]

    total = 0.0
    for t in range(1, len(alpha_bar)):
        a_t = alpha_bar[t]
        r = reveal_from_rows(alpha_bar[t - 1], a_t)
        for pattern in itertools.product((False, True), repeat=n):
            m = np.array(pattern)
            weight = float(np.prod(np.where(m, 1.0 - a_t, a_t)))
            if weight == 0.0:
                continue
            pred = pred_for(pattern, t)
            p_truth = pred[np.arange(n), x0]
            term = float(np.sum(np.where(m, r * -np.log(np.maximum(p_truth, 1e-300)), 0.0)))
            total += weight * term
    return total


def model_predict_fn(params: DenoiserParams):
    """(state, t) -> (n, K) clean-token rows for the tiny oracles: the model's
    softmax at [MASK] positions, a point mass on the token itself elsewhere.
    Time-agnostic models ignore t.
    """
    time_aware = params.config.mode in ("lte", "pte")

    def predict(xt: np.ndarray, t: int) -> np.ndarray:
        logits = forward(params, xt, t if time_aware else None)[0]
        z = np.exp(logits - logits.max(axis=-1, keepdims=True))
        rows = (xt[:, None] == np.arange(params.config.vocab_size)).astype(np.float64)
        rows[xt == MASK_ID] = z / z.sum(axis=-1, keepdims=True)
        return rows

    return predict


# --- BLEU ------------------------------------------------------------------------

def _tokens(item) -> tuple[str, ...]:
    if isinstance(item, str):
        return tuple(item.split())
    return tuple(item)


def _ngrams(tokens: tuple[str, ...], order: int) -> Counter:
    return Counter(tokens[i : i + order] for i in range(len(tokens) - order + 1))


def sentence_bleu(candidate, references, max_order: int = 4) -> float:
    """BLEU of one candidate against a reference set: geometric mean of
    modified precisions up to max_order (add-one smoothing for orders with no
    matches) times the closest-length brevity penalty.
    """
    cand = _tokens(candidate)
    refs = [_tokens(r) for r in references]
    if not refs:
        raise ValueError("reference set is empty")
    if len(cand) == 0:
        return 0.0
    log_p = 0.0
    for order in range(1, max_order + 1):
        counts = _ngrams(cand, order)
        total = sum(counts.values())
        clipped = 0
        if counts:
            max_ref: Counter = Counter()
            for ref in refs:
                ref_counts = _ngrams(ref, order)
                for gram, cnt in ref_counts.items():
                    if cnt > max_ref[gram]:
                        max_ref[gram] = cnt
            clipped = sum(min(cnt, max_ref[gram]) for gram, cnt in counts.items())
        if clipped == 0:
            log_p += math.log((clipped + 1) / (total + 1))
        else:
            log_p += math.log(clipped / total)
    c = len(cand)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(log_p / max_order)


def bleu4(candidates, reference_corpus) -> float:
    """Mean per-candidate BLEU against the full reference corpus."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no candidates")
    refs = list(reference_corpus)
    return float(np.mean([sentence_bleu(c, refs) for c in candidates]))


def self_bleu4(candidates) -> float:
    """Mean BLEU of each candidate against all the others (lower = more diverse)."""
    candidates = list(candidates)
    if len(candidates) < 2:
        raise ValueError("self-BLEU needs at least 2 candidates")
    scores = [
        sentence_bleu(c, candidates[:i] + candidates[i + 1 :])
        for i, c in enumerate(candidates)
    ]
    return float(np.mean(scores))


# --- sweeps ------------------------------------------------------------------------

def quality_diversity_sweep(
    params: DenoiserParams,
    sched_params: ScheduleParams,
    surprisal: SurprisalTable,
    vocab: Vocab,
    reference_token_lists: list[tuple[str, ...]],
    grid: list[tuple[int, float]],
    *,
    num_per_point: int,
    length: int,
    num_reverse_iterations: int,
    seed: int = 0,
) -> list[dict]:
    """BLEU / self-BLEU at each (top_k, temperature) grid point."""
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
        texts = [tuple(vocab.tokens[int(i)] for i in row) for row in res.sequences]
        rows.append(
            {
                "top_k": k,
                "temperature": temp,
                "bleu4": bleu4(texts, reference_token_lists),
                "self_bleu4": self_bleu4(texts),
            }
        )
    return rows
