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
bound reveal_prob * T / num_tokens. The core runs a batch in length groups:
it stable-sorts the items by length, cuts groups of 8, and pads each group
only to its own longest line, so the trunk does little work on pad rows.
A batch of 8 or fewer items is one group.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import denoiser
from .corpus import MASK_ID, PAD_ID, SurprisalTable, Vocab
from .denoiser import DenoiserParams, param_shapes, save_checkpoint
from .diffusion import ScheduleParams, reveal_from_rows, spindle_alpha_bar_at
from .rng import as_generator, stream


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    warmup_steps: int = 100
    batch_size: int = 32
    total_steps: int = 2000
    weight_decay: float = 0.0
    mlm_pretrain_steps: int = 0
    mlm_mask_rate: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 < self.mlm_mask_rate < 1:
            raise ValueError(f"mlm_mask_rate must be in (0, 1), got {self.mlm_mask_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("total_steps", "warmup_steps", "mlm_pretrain_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class LossBreakdown:
    """One sampled-t estimate of the bound, in nats. l_t_kl carries the
    masked-position KL when t >= 2, l_0 the t = 1 reconstruction; the prior
    term is identically 0 and not carried. total is the importance-weighted
    per-content-token estimate.
    """

    l_t_kl: float
    l_0: float
    total: float
    num_tokens: int = 0


# Items per forward pass in `_masked_ce`: enough rows for efficient GEMMs,
# few enough that a group's lines are close in length.
_GROUP_SIZE = 8


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
    The denoiser's rows, the weights and the targets are all taken at
    `xt == MASK_ID`; pads are PAD_ID, so it never selects them.

    The items run in groups of _GROUP_SIZE consecutive items of the stable
    sort by length, each group in batch order and padded to its own longest
    line; the per-item losses come back in batch order. Each group's logits,
    log-probabilities and forward cache are released before the next
    group's forward, so a call holds one group's tensors at a time. With
    want_grads, one zero buffer is allocated per call and every group's
    `backward` adds into it; an empty batch gives zero losses and zero
    gradients.
    """
    if any((x0 == MASK_ID).any() for x0 in targets):
        raise ValueError("training sequence contains [MASK]")
    t_in = None if params.config.mode == "tad" else np.asarray(t)
    per_item = np.zeros(len(xts))
    grads = params.zeros_like() if want_grads else None
    order = np.argsort([len(x) for x in xts], kind="stable")
    for lo in range(0, len(order), _GROUP_SIZE):
        group = np.sort(order[lo : lo + _GROUP_SIZE])
        x0 = _pad_batch([targets[i] for i in group], PAD_ID)
        xt = _pad_batch([xts[i] for i in group], PAD_ID)
        masked = xt == MASK_ID
        w = _pad_batch([weights[i] for i in group], 0.0)[masked]
        rows, target = np.arange(len(w)), x0[masked]
        logits, cache = denoiser.forward(params, xt, None if t_in is None else t_in[group],
                                         train=train, rng=rng)
        logp = _log_softmax(logits)
        per_pos = np.zeros(xt.shape)
        per_pos[masked] = w * -logp[rows, target]
        per_item[group] = per_pos.sum(axis=1)
        if want_grads:  # in place, logp becomes d(loss)/d(logits) = w * (softmax - onehot)
            np.exp(logp, out=logp)
            logp[rows, target] -= 1.0
            logp *= w[:, None]
            denoiser.backward(cache, logp, grads)
        del logits, logp, cache  # else the next group's forward runs while these are held
    return per_item, grads


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
    return LossBreakdown(l_kl, l0, float(per_item.sum()), num_tokens), grads


def mlm_pretrain_step(
    params: DenoiserParams,
    seqs: list[np.ndarray],
    mask_rate: float,
    rng: np.random.Generator | int | None,
    *,
    want_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Masked-LM cross entropy: mask each position independently, score masked
    positions only, averaged per masked token. A draw that masks nothing is
    retried once and then the item is skipped; if every item is skipped the
    loss is 0 and the gradients are zero. lte/pte models receive the
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
    num_masked = sum(int(m.sum()) for m in masks)
    per_item, grads = _masked_ce(
        params, xts, keep, [m / num_masked for m in masks],
        np.full(len(xts), params.config.num_steps), rng, train=True, want_grads=want_grads,
    )
    return float(per_item.sum()), grads


# --- optimizer -----------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-8


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
    non-finite gradient skips the whole update and reports it. Temporaries
    live in one scratch buffer per call; each result is the bitwise value of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p -= lr ((m / c1) / (sqrt(v / c2) + eps) + wd p).
    """
    if set(grads) != set(params.tensors):
        raise ValueError("gradient names do not match parameters")
    for name, g in grads.items():
        if g.shape != params.tensors[name].shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not np.isfinite(g).all():
            return params, state, True
    lr = learning_rate_at(step, cfg)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    size = max(p.size for p in params.tensors.values())
    scratch = np.empty(2 * size, dtype=params.dtype)
    for name, g in grads.items():
        p = params.tensors[name]
        m = state.m[name]
        v = state.v[name]
        a = scratch[: p.size].reshape(p.shape)
        b = scratch[size : size + p.size].reshape(p.shape)
        m *= b1
        m += np.multiply(1 - b1, g, out=a)
        v *= b2
        np.multiply(1 - b2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(np.divide(m, c1, out=b), a, out=a)  # the update
        if cfg.weight_decay > 0 and p.ndim >= 2:
            a += np.multiply(cfg.weight_decay, p, out=b)
        p -= np.multiply(lr, a, out=a)
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
    """Adam moments from `_opt_records` output. Anything other than exactly
    opt.m.<name> and opt.v.<name> of each parameter's shape raises ValueError."""
    shapes = {f"opt.{k}.{name}": shape for name, shape in param_shapes(params.config).items()
              for k in "mv"}
    bad = sorted(k for k in shapes.keys() | records.keys()
                 if shapes.get(k) != getattr(records.get(k), "shape", None))
    if bad:
        raise ValueError(f"{len(bad)} optimizer records missing, unexpected or misshapen, "
                         f"first {bad[0]}")
    m, v = ({n: records[f"opt.{k}.{n}"].astype(params.dtype) for n in params.names()} for k in "mv")
    return AdamState(m, v)


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
    and checkpoints hold parameters and Adam state as float32, so for float32
    parameters a run resumed from a checkpoint agrees bitwise with an
    uninterrupted one. Checkpoints are written, never read back; a
    non-finite tensor makes `save_checkpoint` raise. metrics.jsonl keeps
    only its complete records of steps <= start_step: a resume logs no step
    twice.
    """
    if not sequences:
        raise ValueError("no training sequences")
    sched_params.check_model_steps(params.config.num_steps)
    if log_every < 1:
        raise ValueError(f"log_every must be >= 1, got {log_every}")
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
    if metrics_path is not None and metrics_path.exists():
        lines = metrics_path.read_text(encoding="utf-8").splitlines(True)
        kept = [r for r in lines if r.endswith("\n") and json.loads(r)["step"] <= start_step]
        metrics_path.write_text("".join(kept), encoding="utf-8")
    total = cfg.mlm_pretrain_steps + cfg.total_steps
    t_start = time.monotonic()
    vocab_hash = vocab.content_hash()

    def emit_checkpoint(step: int) -> None:
        save_checkpoint(
            out / f"checkpoint_{step:07d}.spnd", params, lam=sched_params.lam,
            vocab_hash=vocab_hash, step=step, extra_tensors=_opt_records(opt_state),
        )

    step = start_step
    while step < total:
        step += 1
        mlm_phase = step <= cfg.mlm_pretrain_steps
        rng = stream(cfg.seed, "train", step)
        idx = passes.batch(step, cfg.batch_size)
        batch = [sequences[i] for i in idx]
        if mlm_phase:
            loss, grads = mlm_pretrain_step(params, batch, cfg.mlm_mask_rate, rng)
            breakdown = LossBreakdown(0.0, 0.0, loss)
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
