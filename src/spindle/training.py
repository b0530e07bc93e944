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
bound reveal_prob * T / num_tokens, T the model's. Each item's step goes to
the denoiser, whose time mode decides whether to read it. The core runs a
batch in length groups: it stable-sorts the items by length, cuts groups of
8, and pads each group only to its own longest line, so the trunk does
little work on pad rows. A batch of 8 or fewer items is one group.
Where two CPUs are usable and the groups are large enough, a call hands
work to the package's pool of two threads (`_threads`, which the sampler
shares) by one rule: a call with gradients (training, MLM) hands over each
group's backward, one at a time, which runs beside the next group's
forward, and a forward-only call without dropout (`elbo_eval`) hands over
each group whole, two at a time. Every loss and gradient is bitwise the one
of a single thread.
The loss core alone bounds memory: it holds the inputs of one window of 64
items and the tensors of at most two groups at a time, however many items
it scores.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _threads, denoiser
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
        if not 0 < self.mlm_mask_rate <= 1:
            raise ValueError(f"mlm_mask_rate must be in (0, 1], got {self.mlm_mask_rate}")
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


# Items per forward pass in `_masked_ce`: enough rows for efficient GEMMs,
# few enough that a group's lines are close in length.
_GROUP_SIZE = 8
# Items per `_masked_ce` call in `diffusion_loss_batch`: the states, weights
# and retention rows of one window exist at a time.
_WINDOW = 64
# Elements per block of the vocabulary-wide passes in `adam_step` and
# `_head_logp`: 256 KB of float32, so each block's operands stay in L2
# instead of streaming whole (30,522, d) tensors through DRAM once per op.
_BLOCK = 1 << 16


def _pad_batch(rows: list[np.ndarray], fill: float) -> np.ndarray:
    out = np.full((len(rows), max(len(r) for r in rows)), fill)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def _block_rows(shape: tuple[int, ...]) -> int:
    """Rows per leading-axis block of an array of this shape: _BLOCK
    elements' worth, at least one row."""
    return max(1, _BLOCK // math.prod(shape[1:]))


def _head_logp(logits: np.ndarray, target: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """log softmax(logits)[i, target[i]] for each row i, computed one row
    block at a time in place: logits is left holding the log-probabilities,
    or, given the row weights w, d(sum_i w_i * -logp_i)/d(logits) =
    w * (softmax - onehot). Each value is the bitwise one of the whole-array
    expressions; the only temporary is one block-sized exp scratch.
    """
    step = _block_rows(logits.shape)
    scratch = np.empty((min(step, len(logits)), logits.shape[-1]), dtype=logits.dtype)
    out = np.empty(len(logits), dtype=logits.dtype)
    for lo in range(0, len(logits), step):
        z = logits[lo : lo + step]
        rows, tgt = np.arange(len(z)), target[lo : lo + step]
        z -= z.max(axis=-1, keepdims=True)
        e = np.exp(z, out=scratch[: len(z)])
        z -= np.log(e.sum(axis=-1, keepdims=True))
        out[lo : lo + step] = z[rows, tgt]
        if w is not None:
            np.exp(z, out=z)
            z[rows, tgt] -= 1.0
            z *= w[lo : lo + step, None]
    return out


def _masked_ce(
    params: DenoiserParams,
    xts: list[np.ndarray],
    targets: list[np.ndarray],
    weights: list[np.ndarray],
    t: np.ndarray,
    rng: np.random.Generator,
    grads: dict[str, np.ndarray] | None,
    *,
    train: bool,
) -> np.ndarray:
    """The loss core shared by MLM and the bound: per item, the sum over its
    [MASK] positions of weight * (-log p(target | x_t)); given a `grads`
    buffer, it adds the gradients of the batch total into it. t holds each
    item's step, passed to the denoiser as is.
    The denoiser's rows, the weights and the targets are all taken at
    `xt == MASK_ID`; pads are PAD_ID, so it never selects them.

    The items run in groups of _GROUP_SIZE consecutive items of the stable
    sort by length, each group in batch order and padded to its own longest
    line; the per-item losses come back in batch order. The head's
    log-softmax, its reading at the targets and the logit gradient run one
    row block at a time in place (`_head_logp`), so the logits array itself
    becomes `backward`'s upstream gradient and no second (rows, K) array
    exists. A group's logits and forward cache are released when the group
    is done. With the heap settings the package pins at import the next
    group reuses the freed blocks; on a 2-core x86_64 box desk-shaped
    training steps then faulted 0-283 pages each (mostly none), on two
    threads, and vocab30k `elbo_eval` before any training
    faulted 2.2k-2.3k pages on its first call and 0-1.4k (mostly none) on
    each later one.

    Every group's `backward` adds into the one `grads` buffer, in group
    order; calls on several windows of a batch sum into it too. A call of
    one group, one with `train` and no `grads`, and one that
    `_threads._threaded()` turns down, given a group's average work, run on
    the calling thread alone, holding one group's model tensors at a time.
    Any other call hands tasks to the shared pool through `_threads._tasks`,
    with BLAS pinned to one thread: in order, each once fewer than its slots
    of the call's tasks are unfinished, waiting for the oldest. A call with
    `grads` has one slot: it runs every forward and head on the calling
    thread in group order, so rng's dropout draws keep that order, and
    hands over each group's `backward`, which frees the group's cache layer
    by layer while the next group's forward runs; each parameter still gets
    one `+=` per group, in group order. A forward-only call, whose groups
    each depend on their own inputs alone, has two slots and hands over
    every group whole, so two groups run at once while the calling thread
    waits. The calling thread then sleeps through the call and may wake on
    either core; one that scored groups itself kept to one core for a whole
    run, and on a shared 2-core box, where each core's speed swung by up to
    1.4x apart from the other's, the single-threaded sampler between ELBO
    calls then read that one core's speed. So a threaded call holds at most
    two groups' tensors at a time, and its losses and gradients are bitwise
    those of one thread.

    A group that raises ends the call with its error once none of the
    call's tasks is running. If group k's forward raised, `grads` then
    holds what it held plus the gradients of groups 0..k-1; if its backward
    raised, also whatever part of group k's it had added. An empty batch
    gives zero losses and adds nothing.
    """
    if any((x0 == MASK_ID).any() for x0 in targets):
        raise ValueError("training sequence contains [MASK]")
    order = np.argsort([len(x) for x in xts], kind="stable")
    groups = [np.sort(order[lo : lo + _GROUP_SIZE]) for lo in range(0, len(order), _GROUP_SIZE)]
    threaded = False
    if len(groups) > 1 and (grads is not None or not train):
        rows = sum(len(x) + params.config.prefix_len for x in xts) / len(groups)
        threaded = _threads._threaded(_threads._gemm_work(params.config, rows))
    per_item = np.zeros(len(xts))

    def score(group):
        """Write the group's per-item losses; given grads, hand over its
        backward."""
        x0 = _pad_batch([targets[i] for i in group], PAD_ID)
        xt = _pad_batch([xts[i] for i in group], PAD_ID)
        masked = xt == MASK_ID
        w = _pad_batch([weights[i] for i in group], 0.0)[masked]
        logits, cache = denoiser.forward(params, xt, t[group], train=train, rng=rng)
        logp = _head_logp(logits, x0[masked], w if grads is not None else None)
        per_pos = np.zeros(xt.shape)
        per_pos[masked] = w * -logp
        per_item[group] = per_pos.sum(axis=1)
        if grads is not None:  # logits now holds d(loss)/d(logits)
            hand_over(denoiser.backward, cache, logits, grads)

    with _threads._tasks(threaded, 1 if grads is not None else _threads._THREADS) as hand_over:
        for group in groups:
            if grads is None:  # forward-only: the whole group goes to the pool
                hand_over(score, group)
            else:
                score(group)
    return per_item


def diffusion_loss_batch(
    params: DenoiserParams,
    seqs: list[np.ndarray],
    alpha_rows,
    t_draws: np.ndarray,
    rng: np.random.Generator | int | None,
    *,
    train: bool = True,
    want_grads: bool = True,
) -> tuple[LossBreakdown, dict[str, np.ndarray] | None]:
    """Sampled-t bound estimate and its parameter gradients for a batch.

    Item i is drawn at step t_draws[i] in {1..T}, T the model's num_steps;
    the i-th entry of the iterable alpha_rows holds its two retention rows
    alpha_bar[t-1] and alpha_bar[t], shape (2, n_i). Gradients are of
    `total`, i.e. already importance-weighted and per-token normalized.

    The items go to `_masked_ce` _WINDOW at a time, in batch order. A
    window takes its rows from alpha_rows and then draws its masks from rng,
    item i the next n_i uniforms, so a generator of rows is read one window
    at a time, and the masks do not depend on the window size.
    """
    rng = as_generator(rng)
    num_steps = params.config.num_steps
    t_draws = np.asarray(t_draws, dtype=np.int64)
    if ((t_draws < 1) | (t_draws > num_steps)).any():
        raise ValueError("t draws must lie in {1..T}")

    num_tokens = sum(len(x0) for x0 in seqs)
    items = zip(seqs, alpha_rows, strict=True)
    per_item = np.zeros(len(seqs))
    grads = params.zeros_like() if want_grads else None
    for lo in range(0, len(seqs), _WINDOW):
        window = list(itertools.islice(items, _WINDOW))
        xts, weights = [], []
        for x0, rows in window:
            if np.shape(rows) != (2, len(x0)):
                raise ValueError(f"retention rows {np.shape(rows)} do not match n={len(x0)}")
            alpha_prev, alpha_t = rows
            xts.append(np.where(rng.random(len(x0)) < alpha_t, x0, MASK_ID))
            weights.append(reveal_from_rows(alpha_prev, alpha_t) * num_steps / num_tokens)
        per_item[lo : lo + _WINDOW] = _masked_ce(params, xts, [x0 for x0, _ in window], weights,
                                                 t_draws[lo : lo + _WINDOW], rng, grads,
                                                 train=train)
    next(items, None)  # the strict zip raises if alpha_rows outlasts seqs
    is_recon = t_draws == 1
    unweight = num_tokens / num_steps
    l0 = float(per_item[is_recon].sum() * unweight)
    l_kl = float(per_item[~is_recon].sum() * unweight)
    return LossBreakdown(l_kl, l0, float(per_item.sum())), grads


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
    grads = params.zeros_like() if want_grads else None
    per_item = _masked_ce(params, xts, keep, [m / num_masked for m in masks],
                          np.full(len(xts), params.config.num_steps), rng, grads, train=True)
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
    non-finite gradient skips the whole update and reports it. An update
    whose moments or parameters overflow raises FloatingPointError naming
    the parameter, and leaves the state partly updated. Each tensor
    is updated one leading-axis block of about _BLOCK elements at a time
    (one block if it is no larger), so the operands of each operation stay
    in cache; the temporaries live in one block-sized scratch pair per call.
    Each result is the bitwise value of m = b1 m + (1 - b1) g,
    v = b2 v + (1 - b2) g g and p -= lr ((m / c1) / (sqrt(v / c2) + eps) + wd p).
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
    size = max(p[: _block_rows(p.shape)].size for p in params.tensors.values())
    scratch = np.empty(2 * size, dtype=params.dtype)
    def not_finite(kind, flag):  # numpy calls it at an overflow or invalid value
        raise FloatingPointError(f"the Adam update of {name} is not finite ({kind})")

    # With finite moments, parameters and gradients, only an overflow or an
    # invalid operation makes a value non-finite, and numpy checks those
    # flags after every operation anyway: calling on them costs nothing.
    with np.errstate(over="call", invalid="call", call=not_finite):
        for name, g in grads.items():
            step_rows = _block_rows(g.shape)
            decay = cfg.weight_decay > 0 and g.ndim >= 2
            for lo in range(0, len(g), step_rows):
                blk = slice(lo, lo + step_rows)
                p, m, v = params.tensors[name][blk], state.m[name][blk], state.v[name][blk]
                gb = g[blk]
                a = scratch[: p.size].reshape(p.shape)
                b = scratch[size : size + p.size].reshape(p.shape)
                m *= b1
                m += np.multiply(1 - b1, gb, out=a)
                v *= b2
                np.multiply(1 - b2, gb, out=a)
                v += np.multiply(a, gb, out=a)
                np.divide(v, c2, out=a)
                np.sqrt(a, out=a)
                a += ADAM_EPS
                np.divide(np.divide(m, c1, out=b), a, out=a)  # the update
                if decay:
                    a += np.multiply(cfg.weight_decay, p, out=b)
                p -= np.multiply(lr, a, out=a)
    return params, state, False


# --- training orchestration ------------------------------------------------------

class ShuffledPasses:
    """Batches as consecutive slices of a stream of shuffled passes over the
    corpus: pass e is stream(seed, "epoch", e).permutation(N), and step s
    (1-based) takes stream positions (s-1)*B .. s*B-1, spilling into the next
    pass when it runs off the end (so B > N works too). A batch is a pure
    function of (seed, step); only the current pass's permutation is held,
    as int32 where N fits: the shuffle's draws do not depend on the dtype.
    """

    def __init__(self, seed: int, num_sequences: int) -> None:
        self.seed = seed
        self.n = num_sequences
        self._epoch = -1
        dtype = np.int32 if num_sequences <= np.iinfo(np.int32).max else np.int64
        self._perm = np.empty(0, dtype)

    def batch(self, step: int, batch_size: int) -> np.ndarray:
        # allocated first, so a size numpy cannot allocate fails before any pass is drawn
        out = np.empty(batch_size, dtype=np.int64)
        start, done = (step - 1) * batch_size, 0
        while done < batch_size:
            epoch, off = divmod(start + done, self.n)
            if epoch != self._epoch:
                self._epoch = epoch
                self._perm = np.arange(self.n, dtype=self._perm.dtype)
                stream(self.seed, "epoch", epoch).shuffle(self._perm)
            take = min(self.n - off, batch_size - done)
            out[done : done + take] = self._perm[off : off + take]
            done += take
        return out


def stratified_t_draws(rng: np.random.Generator, batch_size: int, num_steps: int) -> np.ndarray:
    """One draw of u ~ U[0, 1) per batch, t_j = floor((j + u) * T / B) + 1,
    shuffled across the batch: each item's t is uniform on {1..T}, and the
    batch covers {1..T} as evenly as B allows.
    """
    u = rng.random()
    # np.indices refuses a size numpy cannot allocate; np.arange gives no items near 2^63
    t = np.floor((np.indices((batch_size,))[0] + u) * num_steps / batch_size).astype(np.int64) + 1
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


def check_intervals(*, log_every: int, checkpoint_every: int, val_every: int) -> None:
    """Raise ValueError, with a message that starts with the argument's
    name, unless `run_training`'s log_every >= 1, checkpoint_every >= 0
    and val_every >= 0 (0 turns checkpoints and validation off)."""
    for name, value, least in (("log_every", log_every, 1),
                               ("checkpoint_every", checkpoint_every, 0),
                               ("val_every", val_every, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


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
    twice, and a damaged record raises ValueError naming its line.
    stop_fn(metrics, step), where given, is asked at the end of every step;
    True ends the run there, and that step's checkpoint is written as the
    last step's is. A step whose loss, gradients or Adam update overflow or
    make an invalid value, or whose loss is not finite, raises ValueError
    naming the step: no record or checkpoint of that step or a later one is
    written.
    """
    if not sequences:
        raise ValueError("no training sequences")
    sched_params.check_model_steps(params.config.num_steps)
    check_intervals(log_every=log_every, checkpoint_every=checkpoint_every, val_every=val_every)
    sequences = [np.asarray(s, dtype=np.int64) for s in sequences]
    if opt_state is None:
        opt_state = AdamState.zeros(params)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    passes = ShuffledPasses(cfg.seed, len(sequences))

    metrics: list[dict] = []
    metrics_path = out / "metrics.jsonl" if out is not None else None
    if metrics_path is not None and metrics_path.exists():
        kept = []
        for num, line in enumerate(metrics_path.read_bytes().splitlines(True), start=1):
            if not line.endswith(b"\n"):
                continue  # a record cut short
            try:
                step = json.loads(line)["step"]
            except (ValueError, TypeError, KeyError):  # not UTF-8 JSON, or no object with a step
                step = None
            if type(step) is not int:
                raise ValueError(f"{metrics_path}: line {num} is not a JSON object with an "
                                 "integer step")
            if step <= start_step:
                kept.append(line)
        metrics_path.write_bytes(b"".join(kept))
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
        try:
            with np.errstate(over="raise", invalid="raise"):
                if mlm_phase:
                    loss, grads = mlm_pretrain_step(params, batch, cfg.mlm_mask_rate, rng)
                    breakdown = LossBreakdown(0.0, 0.0, loss)
                    opt_step = step
                else:
                    t_draws = stratified_t_draws(rng, cfg.batch_size, sched_params.num_steps)
                    rows = [
                        spindle_alpha_bar_at(surprisal.h_for(x0), [t - 1, t], sched_params)
                        for x0, t in zip(batch, t_draws)
                    ]
                    breakdown, grads = diffusion_loss_batch(params, batch, rows, t_draws, rng)
                    loss = breakdown.total
                    opt_step = step - cfg.mlm_pretrain_steps
                    if opt_step == 1:
                        opt_state = AdamState.zeros(params)  # fresh optimizer per phase
                if not np.isfinite(loss):
                    raise ValueError(f"step {step}: the loss is {float(loss)}; training stops")
                params, opt_state, skipped = adam_step(params, grads, opt_state, cfg, opt_step)
        except FloatingPointError as exc:
            raise ValueError(f"step {step}: {exc}; training stops") from None

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
        if stop_fn is not None and stop_fn(metrics, step):
            break
        if (out is not None and checkpoint_every > 0 and step % checkpoint_every == 0
                and step < total):  # the last step's checkpoint is written below
            emit_checkpoint(step)

    if out is not None:
        emit_checkpoint(step)
    return TrainResult(params, opt_state, metrics, step)
