"""Variational-bound training for the absorbing chain, plus MLM pretraining.

The per-step objective draws the batch's t values stratified over {1..T}:
one uniform offset u per batch gives t_j = floor((j + u) * T / B) + 1, and
the values are shuffled across the items, so each item's t is still uniform
on {1..T}. It corrupts the batch with the forward process and charges each
masked position reveal_prob * (-log p(x0^i | x_t)); at t = 1 the reveal
probability is 1 and the term is the full reconstruction loss. The sampled
term is importance weighted by T so its expectation matches the full bound;
the prior term is identically 0 because every schedule ends fully masked.

MLM pretraining and the bound share one masked cross-entropy core
(`_masked_ce`): both charge weight * (-log p(x0^i | x_t)) at the [MASK]
positions of x_t and differ only in the weights. MLM uses 1/num_masked, the
bound reveal_prob * T / num_tokens.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import denoiser
from .corpus import MASK_ID, PAD_ID, SurprisalTable, Vocab
from .denoiser import DenoiserParams, save_checkpoint, load_checkpoint
from .diffusion import ScheduleParams, SequenceSchedule, reveal_from_rows, spindle_alpha_bar_at
from .rng import as_generator, stream


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    warmup_steps: int = 100
    batch_size: int = 32
    total_steps: int = 2000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    mlm_pretrain_steps: int = 0
    mlm_mask_rate: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.batch_size < 1 or self.total_steps < 0:
            raise ValueError("learning_rate, batch_size, total_steps must be positive")
        if not 0 < self.mlm_mask_rate < 1:
            raise ValueError("mlm_mask_rate must be in (0, 1)")
        if self.warmup_steps < 0 or self.mlm_pretrain_steps < 0:
            raise ValueError("step counts must be nonnegative")


@dataclass(frozen=True)
class LossBreakdown:
    """One sampled-t estimate of the bound, in nats. l_t_kl carries the
    masked-position KL when t >= 2, l_0 the t = 1 reconstruction, l_T the
    (analytically zero) prior term. total is the importance-weighted
    per-content-token estimate.
    """

    l_t_kl: float
    l_0: float
    l_T: float
    total: float
    num_tokens: int = 0


def _pad_batch(rows: list[np.ndarray], fill: float) -> np.ndarray:
    out = np.full((len(rows), max(len(r) for r in rows)), fill)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    out = logits - np.max(logits, axis=-1, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=-1, keepdims=True))
    return out


def _masked_ce(
    params: DenoiserParams,
    xts: list[np.ndarray],
    targets: list[np.ndarray],
    weights: list[np.ndarray],
    t: np.ndarray,
    rng: np.random.Generator,
    *,
    train: bool,
    want_grads: bool,
) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
    """The loss core shared by MLM and the bound: per item, the sum over its
    [MASK] positions of weight * (-log p(target | x_t)), and the gradients of
    the batch total. t is the step fed to lte/pte models; tad ignores it.
    Pads are PAD_ID, so `xt == MASK_ID` never selects them.
    """
    x0 = _pad_batch(targets, PAD_ID)
    if (x0 == MASK_ID).any():
        raise ValueError("training sequence contains [MASK]")
    xt = _pad_batch(xts, PAD_ID)
    masked = xt == MASK_ID
    w = np.where(masked, _pad_batch(weights, 0.0), 0.0)
    t_in = None if params.config.mode == "tad" else t
    logits, cache = denoiser.forward(params, xt, t_in, train=train, rng=rng)
    logp = _log_softmax(logits)
    rows, cols = np.ogrid[: xt.shape[0], : xt.shape[1]]
    per_item = (w * np.where(masked, -logp[rows, cols, x0], 0.0)).sum(axis=1)

    grads = None
    if want_grads:
        upstream = np.exp(logp, out=logp)
        upstream[rows, cols, x0] -= 1.0
        upstream *= w[:, :, None]
        grads = denoiser.backward(cache, upstream)
    return per_item, grads


def masked_position_kl(reveal_prob: float, model_prob_truth: float) -> float:
    """KL(q(x_{t-1}^i | x_t, x_0) || p_theta(x_{t-1}^i | x_t)) at a masked
    position collapses to reveal_prob * (-log of the model's mass on the true
    token); the mask-stay components cancel exactly.
    """
    return float(reveal_prob) * -float(np.log(model_prob_truth))


def reverse_mixture_row(
    pred_row: np.ndarray, reveal_prob: float, num_classes: int
) -> np.ndarray:
    """p_theta(x_{t-1}^i | x_t) at a masked position: the model's clean-token
    distribution scaled by the reveal probability, plus mask-stay mass.
    """
    row = np.zeros(num_classes)
    row[: len(pred_row)] = reveal_prob * pred_row
    row[MASK_ID] += 1.0 - reveal_prob
    return row


def diffusion_loss_batch(
    params: DenoiserParams,
    seqs: list[np.ndarray],
    alpha_rows: list[np.ndarray],
    t_draws: np.ndarray,
    num_steps: int,
    rng: np.random.Generator | int | None,
    *,
    train: bool = True,
    want_grads: bool = True,
) -> tuple[LossBreakdown, dict[str, np.ndarray] | None]:
    """Sampled-t bound estimate and its parameter gradients for a batch.

    Item i is drawn at step t_draws[i] in {1..num_steps}; alpha_rows[i] holds
    its two retention rows alpha_bar[t-1] and alpha_bar[t], shape (2, n_i).
    Gradients are of `total`, i.e. already importance-weighted and per-token
    normalized.
    """
    rng = as_generator(rng)
    t_draws = np.asarray(t_draws, dtype=np.int64)
    if ((t_draws < 1) | (t_draws > num_steps)).any():
        raise ValueError("t draws must lie in {1..T}")

    num_tokens = sum(len(x0) for x0 in seqs)
    xts, weights = [], []
    for x0, rows in zip(seqs, alpha_rows, strict=True):
        if np.shape(rows) != (2, len(x0)):
            raise ValueError(f"retention rows {np.shape(rows)} do not match sequence n={len(x0)}")
        alpha_prev, alpha_t = rows
        xts.append(np.where(rng.random(len(x0)) < alpha_t, x0, MASK_ID))
        weights.append(reveal_from_rows(alpha_prev, alpha_t) * num_steps / num_tokens)

    per_item, grads = _masked_ce(
        params, xts, seqs, weights, t_draws, rng, train=train, want_grads=want_grads
    )
    is_recon = t_draws == 1
    unweight = num_tokens / num_steps
    l0 = float(per_item[is_recon].sum() * unweight)
    l_kl = float(per_item[~is_recon].sum() * unweight)
    return LossBreakdown(l_kl, l0, 0.0, float(per_item.sum()), num_tokens), grads


def diffusion_loss(
    params: DenoiserParams,
    x0: np.ndarray,
    t_draw: int,
    sched: SequenceSchedule,
    rng: np.random.Generator | int | None,
    *,
    train: bool = True,
    want_grads: bool = True,
) -> tuple[LossBreakdown, dict[str, np.ndarray] | None]:
    """Single-sequence form of `diffusion_loss_batch` on an explicit schedule."""
    if np.any(sched.alpha_bar[-1] != 0.0):
        raise ValueError("prior term nonzero: schedule must end fully masked")
    return diffusion_loss_batch(
        params, [np.asarray(x0)], [sched.alpha_bar[t_draw - 1 : t_draw + 1]],
        np.array([t_draw]), sched.num_steps, rng, train=train, want_grads=want_grads,
    )


def mlm_pretrain_step(
    params: DenoiserParams,
    seqs: list[np.ndarray],
    mask_rate: float,
    rng: np.random.Generator | int | None,
    *,
    train: bool = True,
    want_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Masked-LM cross entropy: mask each position independently, score masked
    positions only, averaged per masked token. A draw that masks nothing is
    retried once and then the item is skipped. lte/pte models receive the
    sentinel step t = T.
    """
    if not 0 < mask_rate <= 1:
        raise ValueError("mask_rate must be in (0, 1]")
    rng = as_generator(rng)
    xts, keep, masks = [], [], []
    for x0 in seqs:
        m = rng.random(len(x0)) < mask_rate
        if not m.any():
            m = rng.random(len(x0)) < mask_rate
        if not m.any():
            continue
        xts.append(np.where(m, MASK_ID, x0))
        keep.append(x0)
        masks.append(m)
    if not xts:
        return 0.0, params.zeros_like() if want_grads else None

    num_masked = sum(int(m.sum()) for m in masks)
    per_item, grads = _masked_ce(
        params, xts, keep, [m / num_masked for m in masks],
        np.full(len(xts), params.config.num_steps), rng, train=train, want_grads=want_grads,
    )
    return float(per_item.sum()), grads


# --- optimizer -----------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def zeros(cls, params: DenoiserParams) -> "AdamState":
        return cls(params.zeros_like(), params.zeros_like())


def learning_rate_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup from 1e-8 to the target over warmup_steps, then constant."""
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return 1e-8 + (cfg.learning_rate - 1e-8) * step / cfg.warmup_steps
    return cfg.learning_rate


def adam_step(
    params: DenoiserParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
    step: int,
) -> tuple[DenoiserParams, AdamState, bool]:
    """One decoupled-weight-decay Adam update (in place; step is 1-based).

    Weight decay applies to matrices only, never biases or norm gains. A
    non-finite gradient skips the whole update and reports it.
    """
    if set(grads) != set(params.tensors):
        raise ValueError("gradient names do not match parameters")
    for name, g in grads.items():
        if g.shape != params.tensors[name].shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not np.isfinite(g).all():
            return params, state, True
    lr = learning_rate_at(step, cfg)
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    for name, g in grads.items():
        p = params.tensors[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)
        if cfg.weight_decay > 0 and p.ndim >= 2:
            update = update + cfg.weight_decay * p
        p -= lr * update
    return params, state, False


# --- training orchestration ------------------------------------------------------

class ShuffledPasses:
    """Batches as consecutive slices of a stream of shuffled passes over the
    corpus: pass e is stream(seed, "epoch", e).permutation(N), and step s
    (1-based) takes stream positions (s-1)*B .. s*B-1, spilling into the next
    pass when it runs off the end (so B > N works too). A batch is a pure
    function of (seed, step); only the current pass's permutation is held.
    """

    def __init__(self, seed: int, num_sequences: int) -> None:
        self.seed = seed
        self.n = num_sequences
        self._epoch = -1
        self._perm = np.empty(0, dtype=np.int64)

    def batch(self, step: int, batch_size: int) -> np.ndarray:
        pos, hi = (step - 1) * batch_size, step * batch_size
        parts = []
        while pos < hi:
            epoch, off = divmod(pos, self.n)
            if epoch != self._epoch:
                self._epoch = epoch
                self._perm = stream(self.seed, "epoch", epoch).permutation(self.n)
            take = min(self.n - off, hi - pos)
            parts.append(self._perm[off : off + take])
            pos += take
        return np.concatenate(parts)


def stratified_t_draws(rng: np.random.Generator, batch_size: int, num_steps: int) -> np.ndarray:
    """One draw of u ~ U[0, 1) per batch, t_j = floor((j + u) * T / B) + 1,
    shuffled across the batch: each item's t is uniform on {1..T}, and the
    batch covers {1..T} as evenly as B allows.
    """
    u = rng.random()
    t = np.floor((np.arange(batch_size) + u) * num_steps / batch_size).astype(np.int64) + 1
    return rng.permutation(np.minimum(t, num_steps))


@dataclass
class TrainResult:
    params: DenoiserParams
    opt_state: AdamState
    metrics: list[dict]
    final_step: int


def _opt_records(state: AdamState) -> dict[str, np.ndarray]:
    rec = {f"opt.m.{k}": v for k, v in state.m.items()}
    rec.update({f"opt.v.{k}": v for k, v in state.v.items()})
    return rec


def opt_state_from_records(params: DenoiserParams, records: dict[str, np.ndarray]) -> AdamState:
    state = AdamState.zeros(params)
    for name in params.names():
        if f"opt.m.{name}" in records:
            state.m[name] = records[f"opt.m.{name}"].astype(params.dtype)
            state.v[name] = records[f"opt.v.{name}"].astype(params.dtype)
    return state


def run_training(
    params: DenoiserParams,
    vocab: Vocab,
    surprisal: SurprisalTable,
    sequences: list[np.ndarray],
    sched_params: ScheduleParams,
    cfg: TrainConfig,
    *,
    out_dir: str | Path | None = None,
    checkpoint_every: int = 0,
    log_every: int = 50,
    start_step: int = 0,
    opt_state: AdamState | None = None,
    val_fn=None,
    val_every: int = 0,
    stop_fn=None,
) -> TrainResult:
    """MLM pretraining (first mlm_pretrain_steps steps) followed by diffusion
    training. Batches walk shuffled passes over the corpus (`ShuffledPasses`):
    every line is seen once per pass, in an order fixed by (seed, pass).
    Each item's retention rows alpha_bar[t-1], alpha_bar[t] are computed in
    closed form from its surprisal; nothing is cached per corpus line.
    Every step derives its batch and its randomness from (seed, step) alone,
    so a run resumed from a checkpoint replays identically; checkpoints round
    live state through their float32 on-disk form so interrupted and
    uninterrupted runs agree bitwise.
    """
    if not sequences:
        raise ValueError("no training sequences")
    sequences = [np.asarray(s, dtype=np.int64) for s in sequences]
    if opt_state is None:
        opt_state = AdamState.zeros(params)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    passes = ShuffledPasses(cfg.seed, len(sequences))
    big_t = sched_params.num_steps

    metrics: list[dict] = []
    metrics_path = out / "metrics.jsonl" if out is not None else None
    total = cfg.mlm_pretrain_steps + cfg.total_steps
    t_start = time.monotonic()
    vocab_hash = vocab.content_hash()

    def emit_checkpoint(step: int) -> None:
        nonlocal params, opt_state
        path = out / f"checkpoint_{step:07d}.spnd"
        save_checkpoint(
            path, params, lam=sched_params.lam, vocab_hash=vocab_hash,
            step=step, extra_tensors=_opt_records(opt_state),
        )
        ckpt = load_checkpoint(path, dtype=params.dtype)
        params = ckpt.params
        opt_state = opt_state_from_records(params, ckpt.extra_tensors)

    step = start_step
    while step < total:
        step += 1
        mlm_phase = step <= cfg.mlm_pretrain_steps
        rng = stream(cfg.seed, "train", step)
        idx = passes.batch(step, cfg.batch_size)
        batch = [sequences[i] for i in idx]
        if mlm_phase:
            loss, grads = mlm_pretrain_step(params, batch, cfg.mlm_mask_rate, rng)
            breakdown = LossBreakdown(0.0, 0.0, 0.0, loss)
            opt_step = step
        else:
            t_draws = stratified_t_draws(rng, cfg.batch_size, big_t)
            rows = [
                spindle_alpha_bar_at(surprisal.h_for(x0), [t - 1, t], sched_params)
                for x0, t in zip(batch, t_draws)
            ]
            breakdown, grads = diffusion_loss_batch(params, batch, rows, t_draws, big_t, rng)
            loss = breakdown.total
            opt_step = step - cfg.mlm_pretrain_steps
            if opt_step == 1:
                opt_state = AdamState.zeros(params)  # fresh optimizer per phase
        params, opt_state, skipped = adam_step(params, grads, opt_state, cfg, opt_step)

        record = None
        if step % log_every == 0 or step == total:
            record = {
                "step": step,
                "phase": "mlm" if mlm_phase else "diffusion",
                "loss_total": float(loss),
                "l_t_kl": breakdown.l_t_kl,
                "l0": breakdown.l_0,
                "lT": breakdown.l_T,
                "lr": learning_rate_at(opt_step, cfg),
                "elapsed_s": time.monotonic() - t_start,
            }
            if skipped:
                record["skipped_update"] = True
        if val_fn is not None and val_every > 0 and (step % val_every == 0 or step == total):
            if record is None:
                record = {"step": step, "phase": "mlm" if mlm_phase else "diffusion"}
            record["val_elbo"] = float(val_fn(params, step))
        if record is not None:
            metrics.append(record)
            if metrics_path is not None:
                with metrics_path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
        if out is not None and checkpoint_every > 0 and step % checkpoint_every == 0:
            emit_checkpoint(step)
        if stop_fn is not None and stop_fn(metrics, step):
            break

    if out is not None:
        emit_checkpoint(step)
    return TrainResult(params, opt_state, metrics, step)
