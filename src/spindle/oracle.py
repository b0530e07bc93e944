"""Brute-force reference implementations for tests and the verify command.

Everything here is derived directly from the definitions: the spindle
schedule entry by entry from its formula, the absorbing chain from the full
transition-matrix picture (explicit Q_t products and Bayes normalization).
It deliberately shares no computation with the closed-form main modules;
the duplication is the point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import NUM_SPECIALS, MASK_ID
from .rng import as_generator

ENUMERATION_BUDGET = 2_000_000  # max reverse trajectories exact_nll will visit


@dataclass(frozen=True)
class TinyInstance:
    """A chain small enough to enumerate: content ids occupy 3..3+num_content
    (the usual special layout), betas has shape (T, n) with betas[t-1] the
    step-t masking probability per position.
    """

    num_content: int
    betas: np.ndarray

    def __post_init__(self) -> None:
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 2:
            raise ValueError("betas must be (T, n)")
        if ((betas < 0) | (betas > 1)).any():
            raise ValueError("betas must lie in [0, 1]")
        object.__setattr__(self, "betas", betas)

    @property
    def T(self) -> int:
        return self.betas.shape[0]

    @property
    def n(self) -> int:
        return self.betas.shape[1]

    @property
    def num_classes(self) -> int:
        return NUM_SPECIALS + self.num_content

    @property
    def content_ids(self) -> list[int]:
        return list(range(NUM_SPECIALS, self.num_classes))

    def q_matrix(self, t: int, pos: int) -> np.ndarray:
        """Step-t transition matrix for one position: mask is absorbing, every
        other state keeps itself or moves to mask with probability beta.
        """
        if not 1 <= t <= self.T:
            raise ValueError(f"t={t} out of range")
        beta = self.betas[t - 1, pos]
        k = self.num_classes
        q = np.zeros((k, k))
        for i in range(k):
            if i == MASK_ID:
                q[i, MASK_ID] = 1.0
            else:
                q[i, i] = 1.0 - beta
                q[i, MASK_ID] = beta
        return q

    def q_bar(self, t: int, pos: int) -> np.ndarray:
        """Product Q_1 Q_2 ... Q_t (identity at t = 0)."""
        out = np.eye(self.num_classes)
        for step in range(1, t + 1):
            out = out @ self.q_matrix(step, pos)
        return out


def random_tiny_instance(
    rng: np.random.Generator | int | None,
    *,
    max_content: int = 4,
    max_n: int = 2,
    max_T: int = 4,
    absorb_fully: bool = False,
) -> TinyInstance:
    """Random instance within the enumeration budget. absorb_fully forces
    beta_T = 1 so the chain ends all-mask (required whenever the prior term
    of the bound must vanish).
    """
    rng = as_generator(rng)
    c = int(rng.integers(1, max_content + 1))
    n = int(rng.integers(1, max_n + 1))
    big_t = int(rng.integers(1, max_T + 1))
    betas = rng.uniform(0.05, 0.95, size=(big_t, n))
    if absorb_fully:
        betas[-1] = 1.0
    return TinyInstance(c, betas)


def spindle_grid(h: np.ndarray, num_steps: int, lam: float) -> tuple[np.ndarray, int]:
    """The spindle schedule as a dense (T+1, n) grid, one entry at a time from
    the formula alpha_bar[t, i] = 1 - t/T - lam * sin(pi t/T) * (1 - mean(h)/h[i]):
    each value is clipped to [0, 1] and made nonincreasing in t by a running
    minimum, and rows 0 and T are forced to exactly 1 and 0. Also returns the
    number of interior values the clip or the running minimum moved.
    """
    h = [float(v) for v in np.asarray(h).ravel()]
    n, T = len(h), num_steps
    mean = math.fsum(h) / n
    grid = np.zeros((T + 1, n))
    events = 0
    for i in range(n):
        h_tilde = 1.0 - mean / h[i]
        floor = 1.0
        for t in range(T + 1):
            raw = 1.0 - t / T - lam * math.sin(math.pi * t / T) * h_tilde
            clipped = min(max(raw, 0.0), 1.0)
            value = min(clipped, floor)
            floor = value
            if 0 < t < T:
                events += (clipped != raw) + (value != clipped)
                grid[t, i] = value
        grid[0, i] = 1.0
    return grid, events


def brute_skip_posterior(
    tiny: TinyInstance, xt: np.ndarray, x0: np.ndarray, t: int, s: int
) -> np.ndarray:
    """q(x_s | x_t, x_0): the Q product over steps s+1..t marginalizes the
    intermediate states of the jump.
    """
    if not 0 <= s < t <= tiny.T:
        raise ValueError(f"need 0 <= s < t <= T, got s={s}, t={t}")
    xt = np.asarray(xt, dtype=np.int64)
    x0 = np.asarray(x0, dtype=np.int64)
    grid = np.zeros((tiny.n, tiny.num_classes))
    for i in range(tiny.n):
        q_jump = np.eye(tiny.num_classes)
        for step in range(s + 1, t + 1):
            q_jump = q_jump @ tiny.q_matrix(step, i)
        q_bar_s = tiny.q_bar(s, i)
        evidence = (q_bar_s @ q_jump)[x0[i], xt[i]]
        if evidence <= 0:
            raise ValueError(f"impossible evidence at position {i}")
        grid[i] = q_jump[:, xt[i]] * q_bar_s[x0[i], :] / evidence
    return grid


def mc_marginal(
    tiny: TinyInstance,
    x0: np.ndarray,
    t: int,
    num_draws: int,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Empirical q(x_t | x_0) from simulating the stepwise chain."""
    if not 0 <= t <= tiny.T:
        raise ValueError(f"t={t} out of range")
    rng = as_generator(seed)
    x0 = np.asarray(x0, dtype=np.int64)
    x = np.tile(x0, (num_draws, 1))
    for step in range(1, t + 1):
        hit = rng.random((num_draws, tiny.n)) < tiny.betas[step - 1]
        x = np.where(hit, MASK_ID, x)
    grid = np.zeros((tiny.n, tiny.num_classes))
    for i in range(tiny.n):
        grid[i] = np.bincount(x[:, i], minlength=tiny.num_classes) / num_draws
    return grid


def _reverse_kernel(
    tiny: TinyInstance, t: int, state: tuple[int, ...], pred: np.ndarray
) -> np.ndarray:
    """p_theta(x_{t-1}^i = . | x_t = state) per position, (n, K).

    Unmasked positions step back to themselves; masked positions mix the
    matrix-form Bayes posterior over the model's clean-token prediction.
    """
    k = tiny.num_classes
    out = np.zeros((tiny.n, k))
    for i, xi in enumerate(state):
        if xi != MASK_ID:
            out[i, xi] = 1.0
            continue
        q_t = tiny.q_matrix(t, i)
        q_bar_prev = tiny.q_bar(t - 1, i)
        q_bar_t = tiny.q_bar(t, i)
        for c in tiny.content_ids:
            evidence = q_bar_t[c, xi]
            if evidence <= 0:
                continue
            out[i] += pred[i, c] * q_t[:, xi] * q_bar_prev[c, :] / evidence
    return out


def exact_nll(tiny: TinyInstance, predict_fn, x0: np.ndarray) -> float:
    """-ln p_theta(x0) by summing every reverse trajectory from the all-mask
    start. predict_fn maps an (n,) state and the step t to an (n, K)
    row-stochastic prediction of the clean sequence (time-agnostic models
    simply ignore t).
    """
    x0 = tuple(int(v) for v in np.asarray(x0))
    per_pos = [tuple([MASK_ID] + tiny.content_ids)] * tiny.n
    states = list(itertools.product(*per_pos))
    num_paths = len(states) ** max(tiny.T - 1, 0)
    if num_paths > ENUMERATION_BUDGET:
        raise ValueError(f"instance too large to enumerate ({num_paths} trajectories)")

    kernels: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}

    def kernel(t: int, state: tuple[int, ...]) -> np.ndarray:
        key = (t, state)
        if key not in kernels:
            pred = np.asarray(predict_fn(np.array(state, dtype=np.int64), t))
            kernels[key] = _reverse_kernel(tiny, t, state, pred)
        return kernels[key]

    all_mask = tuple([MASK_ID] * tiny.n)
    total = 0.0
    for path in itertools.product(states, repeat=max(tiny.T - 1, 0)):
        chain = (x0,) + path + (all_mask,)  # chain[t] is the state at step t
        p = 1.0
        for t in range(tiny.T, 0, -1):
            ker = kernel(t, chain[t])
            for i in range(tiny.n):
                p *= ker[i, chain[t - 1][i]]
            if p == 0.0:
                break
        total += p
    if total <= 0:
        return math.inf
    return -math.log(total)


def generic_kl(q_row: np.ndarray, p_row: np.ndarray) -> float:
    """KL(q || p) in nats with the 0 ln 0 = 0 convention; +inf where q puts
    mass outside p's support.
    """
    q = np.asarray(q_row, dtype=np.float64)
    p = np.asarray(p_row, dtype=np.float64)
    if q.shape != p.shape:
        raise ValueError("rows must have the same shape")
    if (q < -1e-12).any() or (p < -1e-12).any():
        raise ValueError("rows must be nonnegative")
    if abs(q.sum() - 1.0) > 1e-6 or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError("rows must sum to 1")
    support = q > 0
    if (p[support] == 0).any():
        return math.inf
    return float(np.sum(q[support] * np.log(q[support] / p[support])))
