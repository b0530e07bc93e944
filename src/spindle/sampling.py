"""Reverse-process generation with step skipping and top-K filtered sampling.

Chains start fully masked and jump T/num_reverse_iterations steps at a time.
Each iteration runs the denoiser, which predicts only at the positions that
are still masked, and draws a clean token at each of them from its top-K
filtered softmax; the special ids, whose logits the denoiser sets to -inf,
are never drawn. Top-k reads each logit row once: it takes the maximum of
each strided group of _GROUP columns, and then selects among the columns of
the k groups with the largest maxima only. That is exact, since those
groups hold every logit at or above the k-th largest; a row too narrow to
shrink that way (K = 2004) is selected whole (see `_top_k_rows`).
It then computes the two retention rows alpha_bar[s] and alpha_bar[t] of the
jump t -> s in closed form from the surprisal of that prediction (the same
clamped spindle schedule training uses, for every lam), and draws the next
state from the closed-form skip posterior. Revealed tokens are frozen by
default. With `remask=True` predictions are still drawn only at masked
positions, but the mask is redrawn over all positions from alpha_bar[s], so
a revealed token can be masked again.

A tad model sees x_t alone, so when no chain's x_t changed since the last
iteration (no reveal, or in remask mode the same mask redrawn) every
prediction is the one it had then. Such an iteration reuses the previous
rows of top-k ids and probabilities and runs neither the denoiser nor
top-k; any other iteration predicts on every chain. The uniforms are still
drawn at every position, so RNG use does not depend on the reuse. lte and
pte models see t, which changes every iteration, and predict every time.

Where an iteration runs the denoiser on two or more chains and each half of
them reaches the work gate of the package's thread pool (`_threads`), the
halves' forwards and top-k are two tasks, run on the pool's two threads
where two CPUs are usable and one after the other otherwise. The calling
thread joins their rows in order and draws every uniform itself, so the
samples are bitwise the same on one thread or two (at one BLAS thread; see
`_threads`), and a failing half ends the call with the error of one thread.
A one-chain call, or one of a small model, runs one forward on the calling
thread, and that forward hands the first column half of its head GEMM to
the pool where the head is wide enough, as at BERT's 30,522-token
vocabulary (`denoiser.forward`). Both splits follow the shapes alone, and
the threads decide only where the parts run (see `_threads`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _threads, denoiser
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
    with np.errstate(over="ignore"):  # a tiny temperature sends all but the max to -inf
        out[kept] = (row[kept] - row[kept].max()) / temperature
    probs = np.exp(out)
    return probs / probs.sum()


# Columns per group of `_top_k_rows`' group pass. A row of K logits splits
# into nb = K // _GROUP strided groups (group j holds columns j, j + nb, ...),
# and the pass runs where nb >= _GROUP * k_eff, so that it shrinks the row
# at least _GROUP-fold. Measured on a 2-core x86_64 box, float32 N(0, 1.1)
# logits, k = 30, medians of 200 calls: at (48, 30,522) top-k took 3.5 ms
# on the whole row and 1.18 / 1.18 / 1.08 / 1.16 ms at 8 / 12 / 16 / 24
# columns per group, at (25, 30,522) 1.84 ms and 0.63 / 0.64 / 0.58 / 0.59
# ms; at 32 the gate keeps K = 30,522 whole. At K = 2004 (nb = 125 <
# 16 * 30) the gate keeps the whole row: the pass forced there at 16
# columns read x0.62-0.92 of its speed at 25, 90 and 192 rows.
_GROUP = 16


def _top_k_cols(logits: np.ndarray, k_eff: int) -> np.ndarray:
    """The columns (m, k_eff) of the k_eff largest logits of each row, in
    ascending order, ties at the k_eff-th value going to the lowest columns;
    found by partition. Raises ValueError where NaNs leave fewer than k_eff
    logits at or above the k_eff-th value."""
    C = logits.shape[1]
    thr = np.partition(logits, C - k_eff, axis=1)[:, C - k_eff, None]  # k-th largest
    keep = logits >= thr
    n_keep = np.count_nonzero(keep, axis=1)
    if (n_keep < k_eff).any():  # NaN compares false
        raise ValueError("denoiser logits contain NaN")
    # Rows with surplus ties at the k-th value keep only the lowest-column ties.
    tied = np.flatnonzero(n_keep > k_eff)
    above, ties = logits[tied] > thr[tied], logits[tied] == thr[tied]
    need = k_eff - np.count_nonzero(above, axis=1, keepdims=True)
    keep[tied] = above | (ties & (np.cumsum(ties, axis=1) <= need))
    return (np.flatnonzero(keep) % C).reshape(-1, k_eff)


def _top_k_rows(logits: np.ndarray, k: int, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """`top_k_filter` for each row of the (m, K) logits of `denoiser.forward`,
    whose `SPECIAL_IDS` columns are -inf and so never kept. The logits are
    only read. Returns the kept ids (m, k_eff) of each row in ascending order
    and their probabilities; the softmax runs over the k kept columns only.

    The top k come from `_top_k_cols` in two stages. Stage 1 takes the
    maximum of each of the nb = K // _GROUP strided groups, the one read of
    the whole row. Stage 2 finds the k_eff-th largest group maximum g and
    hands `_top_k_cols` only the columns of the k_eff groups that reach it
    and the K - _GROUP * nb tail columns, in ascending order. This is exact:
    the k_eff largest group maxima are k_eff logits, so the k-th largest
    logit v_k is >= g; every logit >= v_k, ties at v_k included, therefore
    lies in a group whose maximum is >= g, and with no tie at g those are
    the chosen groups. Every row goes to `_top_k_cols` whole instead where
    the pass would not shrink it (nb < _GROUP * k_eff, as at K = 2004), or
    where some row's group maxima tie at g or hold a NaN.
    """
    m, K = logits.shape
    k_eff = min(k, K - len(denoiser.SPECIAL_IDS))
    nb = K // _GROUP
    cand = None
    if nb >= _GROUP * k_eff:
        gmax = np.max(logits[:, :_GROUP * nb].reshape(m, _GROUP, nb), axis=1)
        chosen = gmax >= np.partition(gmax, nb - k_eff, axis=1)[:, nb - k_eff, None]
        if (np.count_nonzero(chosen, axis=1) == k_eff).all() and not np.isnan(gmax).any():
            groups = (np.flatnonzero(chosen) % nb).reshape(m, 1, k_eff)
            cols = groups + nb * np.arange(_GROUP)[:, None]  # (m, _GROUP, k_eff), ascending
            tail = np.broadcast_to(np.arange(_GROUP * nb, K), (m, K - _GROUP * nb))
            cand = np.concatenate([cols.reshape(m, _GROUP * k_eff), tail], axis=1)
    sub = logits if cand is None else np.take_along_axis(logits, cand, axis=1)
    pos = _top_k_cols(sub, k_eff)
    kept = pos if cand is None else np.take_along_axis(cand, pos, axis=1)

    vals = np.take_along_axis(sub, pos, axis=1).astype(np.float64)
    vals -= vals.max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):  # as in `top_k_filter`
        vals /= temperature
    probs = np.exp(vals)
    probs /= probs.sum(axis=1, keepdims=True)
    return kept, probs


def _draw_top_k(
    kept: np.ndarray,
    probs: np.ndarray,
    masked: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One categorical draw for each row of `_top_k_rows`' (kept, probs),
    the rows of the (B, n) `masked` positions in row-major order. One
    uniform is drawn per position, masked or not, so RNG use does not depend
    on the mask. The kept ids are in ascending order, so the inverse-CDF
    draw over them equals the full-row draw on `top_k_filter`'s
    probabilities.
    """
    u = rng.random((masked.size, 1))[masked.ravel()]
    cum = np.cumsum(probs, axis=1)
    idx = (u * cum[:, -1:] > cum).sum(axis=1)
    return kept[np.arange(len(kept)), idx]


def _predict(
    params: DenoiserParams, x: np.ndarray, t: int, cfg: SampleConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(kept, probs) of `_top_k_rows` on the denoiser's logits at the [MASK]
    positions of the chains x, in row-major order.

    Where two or more chains split into halves, the first len(x) // 2 and
    the rest, whose forwards each reach `_threads._MIN_THREADED_WORK`, each
    half's forward and top-k is one task, and the halves' rows are joined in
    order. The split depends on the shapes alone; where `_threads._threaded`
    allows it the two tasks run at once on the shared pool, else one after
    the other here. Otherwise the one forward runs here, and its head may
    use the pool itself (`denoiser._head_logits`); inside the two tasks'
    block a head that its shape cuts runs its halves one after the other.
    A task's rows depend only on its own chains, and no cut on the threads
    (see `_threads`), so the result is bitwise the same on one thread or
    two. It is not always that of one forward over all chains: OpenBLAS can
    round a GEMM row differently at another row count (see
    `generate_batch`).
    """
    half = len(x) // 2
    work = denoiser._gemm_work(params.config, half * (x.shape[1] + params.config.prefix_len))
    parts = [x[:half], x[half:]] if half and work >= _threads._MIN_THREADED_WORK else [x]
    out = [None] * len(parts)

    def run(i):
        logits, _ = denoiser.forward(params, parts[i], t, train=False)
        out[i] = _top_k_rows(logits, cfg.top_k, cfg.temperature)

    threaded = len(parts) == 2 and _threads._threaded(work)
    with _threads._tasks(threaded, _threads._THREADS) as hand_over:
        for i in range(len(parts)):
            hand_over(run, i)
    if len(out) == 1:
        return out[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*out))


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

    Each iteration predicts (`_predict`) on every chain, except that a tad
    model whose chains all kept their x since the last iteration reuses the
    (kept, probs) rows it had. A prediction over c >= 2 chains whose halves
    each reach `_threads._MIN_THREADED_WORK` (a desk-shaped model's 8
    chains do; a one-chain call or a test-sized model does not) runs as two
    tasks, on the pool's two threads where `_threads._threaded` allows. A
    prediction of one forward runs here, and at a vocabulary as wide as
    BERT's its head's first column half runs on the pool beside the second
    (`denoiser._head_logits`), a cut its shape alone decides (see
    `_threads`).
    Which chains a forward runs on depends on the shapes alone; whether it
    runs depends on the draws. Neither depends on the thread count, so
    neither do the samples. A row can round differently in a forward over
    other chains, since OpenBLAS picks GEMM kernels by row count: on a
    2-core x86_64 box (OpenBLAS 0.3.31, Haswell kernels) desk-shaped
    float32 forwards with 10% or fewer of the positions masked gave other
    logit bytes over all 8 chains than over their halves in 6-16 of 20
    draws. So the split is deterministic, but where it applies it is not
    always bitwise a run of one forward over every chain.
    """
    check_sample_config(params, sched_params, cfg)
    model_cfg = params.config
    big_t = sched_params.num_steps
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
        if model_cfg.mode != "tad" or it == 1 or (x != prev_x).any():
            kept, probs = _predict(params, x, t, cfg)  # else tad: no x changed, reuse the rows
        prev_x = x
        x0_hat = x.copy()
        x0_hat[masked] = _draw_top_k(kept, probs, masked, rng)

        h = surprisal.h_for(x0_hat)
        alpha_s, alpha_t = spindle_alpha_bar_at(h[None], np.array([s, t])[:, None], sched_params)

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
