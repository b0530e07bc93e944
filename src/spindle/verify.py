"""Oracle-backed verification checks shared by the CLI `verify` command and
the acceptance suite. Each check is a pure function of its sizes and seed and
returns (ok, detail); sizes default to the acceptance settings. Errors are
folded with np.maximum / np.minimum, which keep a NaN, so a NaN fails its check.

The code under test is the code training, sampling and evaluation run, such
as `reveal_from_rows` and `diffusion_loss_batch`; the references are in
`oracle.py`, which shares no code with it. The head-split check's reference
is the head's own one-GEMM path, since what it tests is that the split
leaves every byte of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _threads, oracle
from .corpus import MASK_ID
from .denoiser import DenoiserConfig, _head_cut, _linear, _split_head, init_params
from .diffusion import ScheduleParams, reveal_from_rows, spindle_alpha_bar_at, spindle_alpha_raw
from .evaluation import exact_elbo, model_predict_fn
from .rng import stream
from .training import diffusion_loss_batch


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _timed(name: str, ok: bool, detail: str, t0: float) -> CheckResult:
    return CheckResult(name, bool(ok), detail, time.perf_counter() - t0)


def _alpha_bar(tiny: oracle.TinyInstance) -> np.ndarray:
    """The (T+1, n) retention grid of a tiny instance: [1; cumprod(1 - beta)]."""
    return np.vstack([np.ones(tiny.n), np.cumprod(1.0 - tiny.betas, axis=0)])


def check_spindle_identity(num_instances: int = 1000, seed: int = 0) -> CheckResult:
    """Pre-clamp weighted retention identity: for every t, the h-weighted mean
    of the raw curve equals 1 - t/T to 1e-9.
    """
    t0 = time.perf_counter()
    rng = stream(seed, "identity")
    worst = 0.0
    for _ in range(num_instances):
        n = int(rng.integers(1, 65))
        big_t = int(rng.integers(4, 257))
        lam = float(rng.uniform(0.0, 1.0))
        h = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=n))
        raw = spindle_alpha_raw(h, np.arange(big_t + 1), ScheduleParams(num_steps=big_t, lam=lam))
        weighted = raw @ h / h.sum()
        target = 1.0 - np.arange(big_t + 1) / big_t
        worst = np.maximum(worst, float(np.abs(weighted - target).max()))
    return _timed("spindle-identity", worst <= 1e-9, f"max |dev| = {worst:.3e}", t0)


def check_degenerate_schedule(ts: tuple[int, ...] = (1, 2, 3, 7, 64, 321, 1000, 2048)) -> CheckResult:
    """lam = 0 must reproduce beta_t = 1/(T - t + 1) to 1e-12 in the rows
    `spindle_alpha_bar_at` gives."""
    t0 = time.perf_counter()
    worst = 0.0
    for big_t in ts:
        params = ScheduleParams(num_steps=big_t, lam=0.0)
        a = spindle_alpha_bar_at(np.ones(1), np.arange(big_t + 1), params)[:, 0]
        for t in range(1, big_t + 1):
            beta = 1.0 - (a[t] / a[t - 1] if a[t - 1] > 0 else 0.0)
            worst = np.maximum(worst, abs(beta - 1.0 / (big_t - t + 1)))
    return _timed("degenerate-schedule", worst <= 1e-12, f"max |beta dev| = {worst:.3e}", t0)


def check_posterior_vs_brute(num_instances: int = 1000, seed: int = 0) -> CheckResult:
    """`reveal_from_rows` vs literal transition-matrix Bayes enumeration of
    q(x_s | x_t, x_0), 1e-9 agreement: a masked position puts the reveal
    probability on x_0 and the rest on [MASK], an unmasked one is a point
    mass on x_0.
    """
    t0 = time.perf_counter()
    rng = stream(seed, "posterior")
    worst = 0.0
    for _ in range(num_instances):
        tiny = oracle.random_tiny_instance(rng)
        ab = _alpha_bar(tiny)
        x0 = rng.choice(tiny.content_ids, size=tiny.n)
        t = int(rng.integers(1, tiny.T + 1))
        s = int(rng.integers(0, t))
        masked = rng.random(tiny.n) < 0.5
        brute = oracle.brute_skip_posterior(tiny, np.where(masked, MASK_ID, x0), x0, t, s)
        reveal = np.where(masked, reveal_from_rows(ab[s], ab[t]), 1.0)
        fast = np.zeros_like(brute)
        fast[np.arange(tiny.n), x0] = reveal
        fast[:, MASK_ID] = 1.0 - reveal
        worst = np.maximum(worst, float(np.abs(brute - fast).max()))
    return _timed("posterior-vs-brute", worst <= 1e-9, f"max |dev| = {worst:.3e}", t0)


def check_marginal_mc(
    num_instances: int = 20, num_draws: int = 100_000, seed: int = 0, tol: float = 0.01
) -> CheckResult:
    """q(x_t | x_0), mass alpha_bar[t] on x_0 and the rest on [MASK], vs Monte
    Carlo stepwise simulation."""
    t0 = time.perf_counter()
    rng = stream(seed, "marginal")
    worst = 0.0
    for i in range(num_instances):
        tiny = oracle.random_tiny_instance(rng)
        x0 = rng.choice(tiny.content_ids, size=tiny.n)
        t = int(rng.integers(0, tiny.T + 1))
        mc = oracle.mc_marginal(tiny, x0, t, num_draws, stream(seed, "marginal-draws", i))
        keep = _alpha_bar(tiny)[t]
        closed = np.zeros_like(mc)
        closed[np.arange(tiny.n), x0] = keep
        closed[:, MASK_ID] = 1.0 - keep
        worst = np.maximum(worst, float(np.abs(mc - closed).max()))
    return _timed("marginal-mc", worst <= tol, f"max |dev| = {worst:.4f}", t0)


def check_gradient_fd(num_coords: int = 100, seed: int = 0, eps: float = 1e-4) -> CheckResult:
    """Analytic gradients of the training loss vs central finite differences
    on an (L=2, d=32) denoiser: relative error <= 1e-4 with an absolute floor
    of 1e-4 in the denominator for true-zero gradients.
    """
    t0 = time.perf_counter()
    rng = stream(seed, "gradcheck")
    cfg = DenoiserConfig(
        vocab_size=11, mode="lte", num_layers=2, d_model=32, num_heads=2,
        n_max=8, num_steps=8, dropout=0.1,
    )
    params = init_params(cfg, int(rng.integers(1 << 31)))
    params.tensors["out.w"] += rng.normal(0, 0.3, params.tensors["out.w"].shape)
    x0 = rng.integers(3, 11, size=6)
    h = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=6))
    t_draw = 5
    rows = spindle_alpha_bar_at(h, [t_draw - 1, t_draw], ScheduleParams(num_steps=8, lam=0.3))

    def loss(p):
        return diffusion_loss_batch(p, [x0], [rows], np.array([t_draw]),
                                    stream(seed, "gradcheck-noise"))

    _, grads = loss(params)
    names = params.names()
    worst = 0.0
    for _ in range(num_coords):
        name = names[int(rng.integers(len(names)))]
        tensor = params.tensors[name]
        idx = tuple(int(rng.integers(s)) for s in tensor.shape)
        orig = tensor[idx]
        tensor[idx] = orig + eps
        up = loss(params)[0].total
        tensor[idx] = orig - eps
        down = loss(params)[0].total
        tensor[idx] = orig
        fd = (up - down) / (2 * eps)
        an = grads[name][idx]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
        worst = np.maximum(worst, rel)
    return _timed("gradient-fd", worst <= 1e-4, f"max rel err = {worst:.3e}", t0)


def check_kl_simplification(num_instances: int = 1000, seed: int = 0) -> CheckResult:
    """The bound `diffusion_loss_batch` charges one always-masked token at
    t >= 2 (retention rows [r, 0], so reveal probability r), divided by T,
    equals the generic categorical KL between the reveal/stay posterior and
    the model's reverse step to 1e-9, on random tad, lte and pte denoisers.
    """
    t0 = time.perf_counter()
    rng = stream(seed, "kl")
    worst = 0.0
    for i in range(num_instances):
        k = int(rng.integers(5, 15))
        big_t = int(rng.integers(2, 17))
        cfg = DenoiserConfig(
            vocab_size=k, mode=("tad", "lte", "pte")[i % 3], num_layers=1, d_model=8,
            num_heads=1, n_max=2, num_steps=big_t, dropout=0.0,
        )
        params = init_params(cfg, int(rng.integers(1 << 31)))
        params.tensors["out.w"] += rng.normal(0, 0.8, params.tensors["out.w"].shape)
        t = int(rng.integers(2, big_t + 1))
        r = float(rng.uniform(0.01, 1.0))
        x0 = int(rng.integers(3, k))
        breakdown, _ = diffusion_loss_batch(
            params, [np.array([x0])], [np.array([[r], [0.0]])], np.array([t]),
            stream(seed, "kl-noise", i), train=False,
        )
        pred = model_predict_fn(params)(np.array([MASK_ID]), t)[0]
        q_row = np.zeros(k)
        q_row[x0] = r
        q_row[MASK_ID] = 1.0 - r
        p_row = r * pred
        p_row[MASK_ID] += 1.0 - r
        worst = np.maximum(worst, abs(breakdown.total / big_t - oracle.generic_kl(q_row, p_row)))
    return _timed("kl-simplification", worst <= 1e-9, f"max |dev| = {worst:.3e}", t0)


def check_elbo_bound(num_instances: int = 50, seed: int = 0) -> CheckResult:
    """Exhaustively averaged bound >= exact enumerated NLL (slack 1e-6) on
    random tiny instances with random denoiser parameters.
    """
    t0 = time.perf_counter()
    rng = stream(seed, "elbo-bound")
    worst_gap = np.inf
    for i in range(num_instances):
        tiny = oracle.random_tiny_instance(rng, absorb_fully=True)
        mode = ("tad", "lte", "pte")[i % 3]
        cfg = DenoiserConfig(
            vocab_size=tiny.num_classes, mode=mode, num_layers=1, d_model=8,
            num_heads=1, n_max=4, num_steps=tiny.T, dropout=0.0,
        )
        params = init_params(cfg, int(rng.integers(1 << 31)))
        params.tensors["out.w"] += rng.normal(0, 0.8, params.tensors["out.w"].shape)
        predict = model_predict_fn(params)
        x0 = rng.choice(tiny.content_ids, size=tiny.n)
        gap = exact_elbo(predict, x0, _alpha_bar(tiny)) - oracle.exact_nll(tiny, predict, x0)
        worst_gap = np.minimum(worst_gap, gap)
    return _timed("elbo-bound", worst_gap >= -1e-6, f"min gap = {worst_gap:.3e}", t0)


def check_head_split(seed: int = 0, rows: tuple[int, ...] = (2, 9, 40, 100)) -> CheckResult:
    """The output head's GEMM run as two column halves (`_split_head`, the
    first on the thread pool) gives bitwise the logits of one GEMM
    (`_linear`) at every shape `_head_cut` admits, of these row counts at d
    16, 64 and 128 and K 2004, 4000 and 30,522, in float32 and float64, on
    this machine's BLAS. Samples and gradients rest on that equality. Both
    run with BLAS on one thread, as the split does when it runs on the pool:
    a GEMM on several BLAS threads can round otherwise."""
    t0 = time.perf_counter()
    rng = stream(seed, "head-split")
    checked = moved = 0
    with _threads._one_blas_thread():
        for dtype in (np.float32, np.float64):
            for d, k in ((16, 2004), (64, 4000), (128, 30522)):
                p = {"out.w": rng.normal(0.0, 0.1, (d, k)).astype(dtype),
                     "out.b": rng.normal(0.0, 0.1, k).astype(dtype)}
                for m in rows:
                    cut = _head_cut(m, d, k)
                    if cut:
                        x = rng.normal(0.0, 1.0, (m, d)).astype(dtype)
                        split = _split_head(x, p, cut)
                        moved += split.tobytes() != _linear(x, p, "out.w", "out.b").tobytes()
                        checked += 1
    return _timed("head-split", checked and not moved, f"{moved} of {checked} shapes moved", t0)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [
        check_spindle_identity(seed=seed),
        check_degenerate_schedule(),
        check_posterior_vs_brute(seed=seed),
        check_marginal_mc(seed=seed),
        check_gradient_fd(seed=seed),
        check_kl_simplification(seed=seed),
        check_elbo_bound(seed=seed),
        check_head_split(seed=seed),
    ]
