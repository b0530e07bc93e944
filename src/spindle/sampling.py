"""Reverse-process generation with step skipping and top-K filtered sampling.

Chains start fully masked and jump T/num_reverse_iterations steps at a time.
Each iteration predicts a clean sequence at the masked positions, computes
the two retention rows alpha_bar[s] and alpha_bar[t] of the jump t -> s in
closed form from the surprisal of that prediction (the same clamped spindle
schedule training uses, for every lam), and draws the next state from the
closed-form skip posterior. Revealed tokens are frozen by default;
`remask=True` instead re-predicts everything and redraws the mask pattern
each iteration.
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
    expected_time_mode: str | None = None

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.num_reverse_iterations < 1:
            raise ValueError("num_reverse_iterations must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def top_k_filter(logit_row: np.ndarray, k: int, temperature: float = 1.0) -> np.ndarray:
    """Keep the k largest logits (ties at the boundary go to lower token ids),
    drop the rest, and softmax at the given temperature. If fewer than k
    logits are finite, all finite ones are kept.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
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


def _top_k_probs_batch(logits: np.ndarray, k: int, temperature: float) -> np.ndarray:
    """Vectorized top-k + temperature softmax over the last axis. Assumes every
    row has the same finite-logit count (true here: only the special columns
    are -inf). Matches `top_k_filter` row for row.
    """
    flat = np.asarray(logits, dtype=np.float64).reshape(-1, logits.shape[-1])
    k_eff = min(k, int(np.isfinite(flat[0]).sum()))
    order = np.argsort(-flat, axis=-1, kind="stable")
    kept = order[:, :k_eff]
    filtered = np.full_like(flat, -np.inf)
    np.put_along_axis(filtered, kept, np.take_along_axis(flat, kept, axis=-1), axis=-1)
    filtered /= temperature
    filtered -= filtered.max(axis=-1, keepdims=True)
    probs = np.exp(filtered)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs.reshape(logits.shape)


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of a (..., K) probability array."""
    flat = probs.reshape(-1, probs.shape[-1])
    cum = np.cumsum(flat, axis=1)
    u = rng.random((flat.shape[0], 1)) * cum[:, -1:]
    idx = (u > cum).sum(axis=1)
    return idx.reshape(probs.shape[:-1])


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
    model_cfg = params.config
    if cfg.expected_time_mode is not None and cfg.expected_time_mode != model_cfg.mode:
        raise ValueError(
            f"checkpoint mode {model_cfg.mode!r} does not match expected "
            f"{cfg.expected_time_mode!r}"
        )
    if cfg.length > model_cfg.n_max:
        raise ValueError(f"length {cfg.length} exceeds model n_max={model_cfg.n_max}")
    big_t = sched_params.num_steps
    if big_t != model_cfg.num_steps:
        raise ValueError("schedule T does not match model T")
    if big_t % cfg.num_reverse_iterations != 0:
        raise ValueError(
            f"num_reverse_iterations={cfg.num_reverse_iterations} must divide T={big_t}"
        )
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
        t_in = np.full(num, t) if model_cfg.mode in ("lte", "pte") else None
        logits, _ = denoiser.forward(params, x, t_in, train=False)
        probs = _top_k_probs_batch(logits, cfg.top_k, cfg.temperature)
        drawn = _sample_rows(probs, rng)
        masked = x == MASK_ID
        x0_hat = np.where(masked, drawn, x)

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


def generate(
    params: DenoiserParams,
    sched_params: ScheduleParams,
    cfg: SampleConfig,
    surprisal: SurprisalTable,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """Single chain; returns (ids, trajectory)."""
    res = generate_batch(
        params, sched_params, cfg, surprisal, 1, rng, record_trajectory=True
    )
    return res.sequences[0], res.trajectory
