"""Closed-form absorbing-chain diffusion math.

Each token follows an independent two-state chain: it keeps its identity
with probability alpha_bar[t, i] after t forward steps and is [MASK]
otherwise. The spindle schedule gives every position its own retention
curve based on how informative its token is, while preserving the global
rate of information destruction (weighted mean retention = 1 - t/T):

    alpha_bar[t, i] = 1 - t/T - lam * sin(pi t/T) * (1 - mean(h)/h[i])

clipped to [0, 1]. Rows are computed in closed form for the steps a caller
needs (`spindle_alpha_bar_at`); no (T+1, n) grid is built. `oracle.py`
holds a slow loop-by-loop grid that the tests pin these rows to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The most steps a schedule or model takes: at T = 2^32, 1/T is still 2^21
# ulps of a retention value just below 1. Near T = 2^53 it is one ulp, and
# past 2^63 a step is no int64.
MAX_STEPS = 1 << 32


@dataclass(frozen=True)
class ScheduleParams:
    """Global schedule knobs: number of steps T and spindle amplitude lam
    (lam = 0 reduces exactly to beta_t = 1/(T - t + 1)).
    """

    num_steps: int
    lam: float = 0.3

    def __post_init__(self) -> None:
        if not 1 <= self.num_steps <= MAX_STEPS:
            raise ValueError(f"num_steps must be in [1, {MAX_STEPS}], got {self.num_steps}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")

    def check_model_steps(self, model_steps: int) -> None:
        """Raise ValueError unless a model built for model_steps steps can run
        under this schedule: its T is the schedule's T."""
        if model_steps != self.num_steps:
            raise ValueError(f"schedule T={self.num_steps} does not match model T={model_steps}")


def spindle_alpha_raw(h_seq: np.ndarray, t, params: ScheduleParams) -> np.ndarray:
    """Retention before the clip, for h of shape (..., n) at steps t, which
    broadcast against h's leading axes. The h-weighted mean of each row is
    exactly 1 - t/T for any lam.
    """
    h = np.asarray(h_seq, dtype=np.float64)
    if h.ndim < 1 or h.shape[-1] < 1:
        raise ValueError("sequence must be non-empty")
    if not np.all((h > 0) & np.isfinite(h)):
        raise ValueError("all surprisals must be positive and finite")
    h_tilde = 1.0 - h.mean(axis=-1, keepdims=True) / h
    T = params.num_steps
    t = np.asarray(t, dtype=np.float64)[..., None]
    return (1.0 - t / T) - params.lam * np.sin(t * np.pi / T) * h_tilde


def spindle_alpha_bar_at(h_seq: np.ndarray, t, params: ScheduleParams) -> np.ndarray:
    """Retention rows alpha_bar[t] for h of shape (..., n); t (integers in
    0..T) broadcasts against h's leading axes.

    The raw curve f(u) = 1 - u/T - lam*sin(pi*u/T)*h~ has at most one
    stationary point in (0, T). Where h~ < 0 it is a maximum: f rises above
    f(0) = 1, which the clip to 1 flattens, then falls. Where h~ > 0 it is a
    minimum (present only if lam*pi*h~ > 1), after which f climbs back to
    f(T) = 0, under the clip's floor. So the clipped curve is already
    nonincreasing and no running minimum is needed. Row 0 is exactly 1
    (sin 0 = 0); row T is forced to 0 because sin(pi) rounds to 1.2e-16.
    """
    T = params.num_steps
    t = np.asarray(t)
    if ((t < 0) | (t > T)).any():
        raise ValueError(f"t out of range [0, {T}]")
    rows = np.clip(spindle_alpha_raw(h_seq, t, params), 0.0, 1.0)
    return np.where(t[..., None] == T, 0.0, rows)


def reveal_from_rows(alpha_s: np.ndarray, alpha_t: np.ndarray) -> np.ndarray:
    """Probability that a token masked at step t is revealed by step s < t:
    (alpha_bar[s] - alpha_bar[t]) / (1 - alpha_bar[t]), or 1 where alpha_bar[t] == 1.

    This is the whole posterior q(x_s | x_t, x_0) of the two-state chain: a
    [MASK] at step t becomes x_0 with this probability and otherwise stays
    [MASK]; an unmasked token is x_0 and stays.
    """
    denom = 1.0 - alpha_t
    ok = denom > 0
    jump = (alpha_s - alpha_t) / np.where(ok, denom, 1.0)
    return np.where(ok, np.clip(jump, 0.0, 1.0), 1.0)
