"""Oracle-backed verification checks shared by the CLI `verify` command and
the acceptance suite. Each check is a pure function of its sizes and seed and
returns (ok, detail); sizes default to the acceptance settings. Errors are
folded with np.maximum / np.minimum, which keep a NaN, so a NaN fails its check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import oracle
from .corpus import MASK_ID
from .denoiser import DenoiserConfig, init_params
from .diffusion import (
    ScheduleParams,
    flat_schedule,
    forward_marginal,
    schedule_from_betas,
    skip_posterior,
    posterior,
    spindle_alpha_raw,
    spindle_schedule,
)
from .evaluation import exact_elbo, model_predict_fn
from .rng import stream
from .training import diffusion_loss, masked_position_kl, reverse_mixture_row


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _timed(name: str, ok: bool, detail: str, t0: float) -> CheckResult:
    return CheckResult(name, bool(ok), detail, time.perf_counter() - t0)


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
        raw = spindle_alpha_raw(h, ScheduleParams(num_steps=big_t, lam=lam))
        weighted = raw @ h / h.sum()
        target = 1.0 - np.arange(big_t + 1) / big_t
        worst = np.maximum(worst, float(np.abs(weighted - target).max()))
    return _timed("spindle-identity", worst <= 1e-9, f"max |dev| = {worst:.3e}", t0)


def check_degenerate_schedule(ts: tuple[int, ...] = (1, 2, 3, 7, 64, 321, 1000, 2048)) -> CheckResult:
    """lam = 0 must reproduce beta_t = 1/(T - t + 1) to 1e-12."""
    t0 = time.perf_counter()
    worst = 0.0
    for big_t in ts:
        sched = flat_schedule(3, ScheduleParams(num_steps=big_t, lam=0.0))
        a = sched.alpha_bar[:, 0]
        for t in range(1, big_t + 1):
            beta = 1.0 - (a[t] / a[t - 1] if a[t - 1] > 0 else 0.0)
            worst = np.maximum(worst, abs(beta - 1.0 / (big_t - t + 1)))
    return _timed("degenerate-schedule", worst <= 1e-12, f"max |beta dev| = {worst:.3e}", t0)


def check_posterior_vs_brute(num_instances: int = 1000, seed: int = 0) -> CheckResult:
    """Closed-form posterior and skip posterior vs literal transition-matrix
    Bayes enumeration, 1e-9 agreement.
    """
    t0 = time.perf_counter()
    rng = stream(seed, "posterior")
    worst = 0.0
    for _ in range(num_instances):
        tiny = oracle.random_tiny_instance(rng)
        sched = schedule_from_betas(tiny.betas)
        x0 = rng.choice(tiny.content_ids, size=tiny.n)
        t = int(rng.integers(1, tiny.T + 1))
        s = int(rng.integers(0, t))
        xt = np.where(rng.random(tiny.n) < 0.5, MASK_ID, x0)
        brute = oracle.brute_skip_posterior(tiny, xt, x0, t, s)
        fast = skip_posterior(xt, x0, t, s, sched, tiny.num_classes)
        worst = np.maximum(worst, float(np.abs(brute - fast).max()))
        if s == t - 1:
            brute1 = oracle.brute_posterior(tiny, xt, x0, t)
            fast1 = posterior(xt, x0, t, sched, tiny.num_classes)
            worst = np.maximum(worst, float(np.abs(brute1 - fast1).max()))
    return _timed("posterior-vs-brute", worst <= 1e-9, f"max |dev| = {worst:.3e}", t0)


def check_marginal_mc(
    num_instances: int = 20, num_draws: int = 100_000, seed: int = 0, tol: float = 0.01
) -> CheckResult:
    """Closed-form t-step marginal vs Monte Carlo stepwise simulation."""
    t0 = time.perf_counter()
    rng = stream(seed, "marginal")
    worst = 0.0
    for i in range(num_instances):
        tiny = oracle.random_tiny_instance(rng)
        sched = schedule_from_betas(tiny.betas)
        x0 = rng.choice(tiny.content_ids, size=tiny.n)
        t = int(rng.integers(0, tiny.T + 1))
        mc = oracle.mc_marginal(tiny, x0, t, num_draws, stream(seed, "marginal-draws", i))
        closed = forward_marginal(x0, t, sched, tiny.num_classes)
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
    sched = spindle_schedule(h, ScheduleParams(num_steps=8, lam=0.3))
    t_draw = 5

    def loss_of(p) -> float:
        breakdown, _ = diffusion_loss(
            p, x0, t_draw, sched, stream(seed, "gradcheck-noise"), want_grads=False
        )
        return breakdown.total

    breakdown, grads = diffusion_loss(params, x0, t_draw, sched, stream(seed, "gradcheck-noise"))
    names = params.names()
    worst = 0.0
    for _ in range(num_coords):
        name = names[int(rng.integers(len(names)))]
        tensor = params.tensors[name]
        idx = tuple(int(rng.integers(s)) for s in tensor.shape)
        orig = tensor[idx]
        tensor[idx] = orig + eps
        up = loss_of(params)
        tensor[idx] = orig - eps
        down = loss_of(params)
        tensor[idx] = orig
        fd = (up - down) / (2 * eps)
        an = grads[name][idx]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
        worst = np.maximum(worst, rel)
    return _timed("gradient-fd", worst <= 1e-4, f"max rel err = {worst:.3e}", t0)


def check_kl_simplification(num_instances: int = 1000, seed: int = 0) -> CheckResult:
    """The collapsed masked-position KL equals the generic categorical KL of
    the full reveal/stay rows to 1e-9.
    """
    t0 = time.perf_counter()
    rng = stream(seed, "kl")
    worst = 0.0
    for _ in range(num_instances):
        c = int(rng.integers(2, 12))
        k = c + 3
        reveal = float(rng.uniform(0.01, 1.0))
        pred = rng.dirichlet(np.ones(c))
        truth = int(rng.integers(c))
        q_row = np.zeros(k)
        q_row[3 + truth] = reveal
        q_row[MASK_ID] = 1.0 - reveal
        pred_full = np.zeros(k)
        pred_full[3:] = pred
        p_row = reverse_mixture_row(pred_full, reveal, k)
        simplified = masked_position_kl(reveal, pred[truth])
        generic = oracle.generic_kl(q_row, p_row)
        worst = np.maximum(worst, abs(simplified - generic))
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
        sched = schedule_from_betas(tiny.betas)
        gap = exact_elbo(predict, x0, sched) - oracle.exact_nll(tiny, predict, x0)
        worst_gap = np.minimum(worst_gap, gap)
    return _timed("elbo-bound", worst_gap >= -1e-6, f"min gap = {worst_gap:.3e}", t0)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [
        check_spindle_identity(seed=seed),
        check_degenerate_schedule(),
        check_posterior_vs_brute(seed=seed),
        check_marginal_mc(seed=seed),
        check_gradient_fd(seed=seed),
        check_kl_simplification(seed=seed),
        check_elbo_bound(seed=seed),
    ]
