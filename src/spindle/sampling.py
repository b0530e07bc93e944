"""Reverse-process generation with step skipping and top-K filtered sampling.

Chains start fully masked and jump T/num_reverse_iterations steps at a time.
Each iteration runs the denoiser, which predicts only at the positions that
are still masked, and draws a clean token at each of them from its top-K
filtered softmax; special ids and ids of infinite surprisal are never drawn.
It then computes the two retention rows alpha_bar[s] and alpha_bar[t] of the
jump t -> s in closed form from the surprisal of that prediction (the same
clamped spindle schedule training uses, for every lam), and draws the next
state from the closed-form skip posterior. Revealed tokens are frozen by
default. With `remask=True` predictions are still drawn only at masked
positions, but the mask is redrawn over all positions from alpha_bar[s], so
a revealed token can be masked again.

A tad model sees x_t alone, so a chain whose x_t did not change since the
last iteration (no reveal, or in remask mode the same mask redrawn) has the
same logits as then. Such chains reuse their previous rows, and the denoiser
runs only on the chains that changed; the rows are the same numbers in the
same order, and the uniforms are still drawn at every position, so the
draws do not depend on the reuse. lte and pte models see t, which changes
every iteration, and run on every chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import denoiser
from .corpus import MASK_ID, SurprisalTable
from .denoiser import DenoiserParams
from .diffusion import ScheduleParams, reveal_from_rows, spindle_alpha_bar_at
from .rng import as_generator


@dataclass(frozen=True)
class SampleConfig:
    length: int
    num_reverse_iterations: int
    top_k: int = 30
    temperature: float = 1.0
    seed: int = 0
    remask: bool = False

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.num_reverse_iterations < 1:
            raise ValueError(
                f"num_reverse_iterations must be >= 1, got {self.num_reverse_iterations}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")


def top_k_filter(logit_row: np.ndarray, k: int, temperature: float = 1.0) -> np.ndarray:
    """Keep the k largest logits (ties at the boundary go to lower token ids),
    drop the rest, and softmax at the given temperature. If fewer than k
    logits are finite, all finite ones are kept.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < temperature < np.inf:
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    row = np.asarray(logit_row, dtype=np.float64)
    finite = np.isfinite(row)
    k_eff = min(k, int(finite.sum()))
    if k_eff == 0:
        raise ValueError("no finite logits to sample from")
    order = np.argsort(-row, kind="stable")  # stable: equal logits by lower id
    kept = order[:k_eff]
    out = np.full_like(row, -np.inf)
    out[kept] = row[kept] / temperature
    out -= out[kept].max()
    probs = np.exp(out)
    return probs / probs.sum()


def _top_k_rows(
    logits: np.ndarray, excluded: np.ndarray, k: int, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """`top_k_filter` for each row of the (m, K) logits, with the columns in
    `excluded` never kept. Returns the kept ids (m, k_eff) of each row in
    ascending order and their probabilities; the top k are found by
    partition, and the softmax runs over the k kept columns only.
    """
    rows = logits.copy()
    rows[:, excluded] = -np.inf
    K = rows.shape[1]
    k_eff = min(k, K - len(excluded))
    thr = np.partition(rows, K - k_eff, axis=1)[:, K - k_eff, None]  # k-th largest
    keep = rows >= thr
    n_keep = np.count_nonzero(keep, axis=1)
    if (n_keep < k_eff).any():  # NaN compares false
        raise ValueError("denoiser logits contain NaN")
    # Rows with surplus ties at the k-th value keep only the lowest-id ties.
    tied = np.flatnonzero(n_keep > k_eff)
    above, ties = rows[tied] > thr[tied], rows[tied] == thr[tied]
    need = k_eff - np.count_nonzero(above, axis=1, keepdims=True)
    keep[tied] = above | (ties & (np.cumsum(ties, axis=1) <= need))
    kept = (np.flatnonzero(keep) % K).reshape(-1, k_eff)

    vals = np.take_along_axis(rows, kept, axis=1).astype(np.float64) / temperature
    vals -= vals.max(axis=1, keepdims=True)
    probs = np.exp(vals)
    probs /= probs.sum(axis=1, keepdims=True)
    return kept, probs


def _draw_top_k(
    logits: np.ndarray,
    masked: np.ndarray,
    excluded: np.ndarray,
    k: int,
    temperature: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One top-k filtered categorical draw for each row of the (m, K) logits,
    the rows of the (B, n) `masked` positions in row-major order. One uniform
    is drawn per position, masked or not, so RNG use does not depend on the
    mask. The kept ids are in ascending order, so the inverse-CDF draw over
    them equals the full-row draw on `top_k_filter`'s probabilities.
    """
    u = rng.random((masked.size, 1))[masked.ravel()]
    kept, probs = _top_k_rows(logits, excluded, k, temperature)
    cum = np.cumsum(probs, axis=1)
    idx = (u * cum[:, -1:] > cum).sum(axis=1)
    return kept[np.arange(len(kept)), idx]


def check_sample_config(
    params: DenoiserParams, sched_params: ScheduleParams, cfg: SampleConfig
) -> None:
    """Raise ValueError unless the length fits n_max, the schedule has the
    model's T and the iterations divide T. Each message starts with the name
    of the setting at fault."""
    if cfg.length > params.config.n_max:
        raise ValueError(f"length {cfg.length} exceeds model n_max={params.config.n_max}")
    sched_params.check_model_steps(params.config.num_steps)
    big_t = sched_params.num_steps
    if big_t % cfg.num_reverse_iterations != 0:
        raise ValueError(
            f"num_reverse_iterations must divide T={big_t}, got {cfg.num_reverse_iterations}")


@dataclass
class GenerationResult:
    sequences: np.ndarray  # (num, n) final token ids, mask free
    reveal_iteration: np.ndarray  # (num, n) iteration at which each position was revealed
    trajectory: list[dict] | None  # per-iteration snapshots of the first chain


def generate_batch(
    params: DenoiserParams,
    sched_params: ScheduleParams,
    cfg: SampleConfig,
    surprisal: SurprisalTable,
    num: int,
    rng: np.random.Generator | int | None = None,
    *,
    record_trajectory: bool = False,
) -> GenerationResult:
    """Run `num` independent reverse chains in lockstep. Deterministic given
    the rng seed; every returned sequence is free of mask/pad/cls ids.
    """
    check_sample_config(params, sched_params, cfg)
    model_cfg = params.config
    big_t = sched_params.num_steps
    # Tokens of infinite surprisal (unseen under zero smoothing) have no
    # schedule, so like the special ids they are never drawn.
    excluded = np.union1d(denoiser.SPECIAL_IDS, np.flatnonzero(~np.isfinite(surprisal.h)))
    if len(excluded) >= model_cfg.vocab_size:
        raise ValueError("no content token has a finite surprisal to sample")
    rng = as_generator(cfg.seed if rng is None else rng)
    stride = big_t // cfg.num_reverse_iterations
    n = cfg.length

    x = np.full((num, n), MASK_ID, dtype=np.int64)
    reveal_iter = np.full((num, n), -1, dtype=np.int64)
    trajectory: list[dict] | None = [] if record_trajectory else None
    if trajectory is not None:
        trajectory.append({"iteration": 0, "t": big_t, "ids": x[0].copy()})

    for it, t in enumerate(range(big_t, 0, -stride), start=1):
        s = t - stride
        masked = x == MASK_ID
        if model_cfg.mode in ("lte", "pte"):
            logits, _ = denoiser.forward(params, x, np.full(num, t), train=False)
        elif it == 1 or (changed := (x != prev_x).any(axis=1)).all():
            logits, _ = denoiser.forward(params, x, None, train=False)
        else:  # tad: a chain with the same x as last iteration reuses its rows
            fresh = np.repeat(changed, masked.sum(axis=1))  # per logits row
            logits = np.empty((len(fresh), prev_logits.shape[1]), dtype=prev_logits.dtype)
            logits[~fresh] = prev_logits[~np.repeat(changed, (prev_x == MASK_ID).sum(axis=1))]
            if changed.any():
                logits[fresh] = denoiser.forward(params, x[changed], None, train=False)[0]
        prev_x, prev_logits = x, logits
        x0_hat = x.copy()
        x0_hat[masked] = _draw_top_k(logits, masked, excluded, cfg.top_k, cfg.temperature, rng)

        h = surprisal.h_for(x0_hat)
        alpha_s = spindle_alpha_bar_at(h, s, sched_params)
        alpha_t = spindle_alpha_bar_at(h, t, sched_params)

        u = rng.random((num, n))
        if cfg.remask:
            x = np.where(u < alpha_s, x0_hat, MASK_ID)
            newly = (x != MASK_ID) & masked
        else:
            newly = masked & (u < reveal_from_rows(alpha_s, alpha_t))
            x = np.where(newly, x0_hat, x)
        reveal_iter[newly] = it
        if trajectory is not None:
            trajectory.append({"iteration": it, "t": s, "ids": x[0].copy()})

    if (x == MASK_ID).any():
        raise AssertionError("mask remaining after the final reverse step")
    return GenerationResult(x, reveal_iter, trajectory)
