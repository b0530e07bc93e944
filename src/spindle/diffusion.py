"""Closed-form absorbing-chain diffusion math.

Each token follows an independent two-state chain: it keeps its identity
with probability alpha_bar[t, i] after t forward steps and is [MASK]
otherwise. The spindle schedule gives every position its own retention
curve based on how informative its token is, while preserving the global
rate of information destruction (weighted mean retention = 1 - t/T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScheduleParams:
    """Global schedule knobs: number of steps T, spindle amplitude lam
    (lam = 0 reduces exactly to beta_t = 1/(T - t + 1)), and an optional
    margin keeping interior retention probabilities away from 0/1.
    """

    num_steps: int
    lam: float = 0.3
    clamp_eps: float = 0.0

    def __post_init__(self) -> None:
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not 0 <= self.clamp_eps < 0.5:
            raise ValueError("clamp_eps must be in [0, 0.5)")


@dataclass(frozen=True)
class SequenceSchedule:
    """Retention probabilities for one concrete sequence.

    alpha_bar has shape (T+1, n) with alpha_bar[0] == 1 and alpha_bar[T] == 0,
    nonincreasing in t. clamp_events counts raw values that fell outside
    [0, 1] or broke monotonicity before correction.
    """

    alpha_bar: np.ndarray
    clamp_events: int = 0

    @property
    def num_steps(self) -> int:
        return self.alpha_bar.shape[0] - 1

    @property
    def length(self) -> int:
        return self.alpha_bar.shape[1]


def _raw_rows(h_seq: np.ndarray, t, params: ScheduleParams) -> np.ndarray:
    """Pre-clamp retention rows for h of shape (..., n) at steps t, which
    broadcast against h's leading axes."""
    h = np.asarray(h_seq, dtype=np.float64)
    if h.ndim < 1 or h.shape[-1] < 1:
        raise ValueError("sequence must be non-empty")
    if not np.all((h > 0) & np.isfinite(h)):
        raise ValueError("all surprisals must be positive and finite")
    h_tilde = 1.0 - h.mean(axis=-1, keepdims=True) / h
    T = params.num_steps
    t = np.asarray(t, dtype=np.float64)[..., None]
    return (1.0 - t / T) - params.lam * np.sin(t * np.pi / T) * h_tilde


def spindle_alpha_raw(h_seq: np.ndarray, params: ScheduleParams) -> np.ndarray:
    """Pre-clamp retention grid, shape (T+1, n).

    alpha_bar[t, i] = 1 - t/T - lam*sin(pi*t/T) * (1 - mean(h)/h[i]).
    The h-weighted mean of each row is exactly 1 - t/T for any lam.
    """
    if np.ndim(h_seq) != 1:
        raise ValueError("h_seq must be 1-D; use spindle_alpha_bar_at for batches of rows")
    return _raw_rows(h_seq, np.arange(params.num_steps + 1), params)


def spindle_schedule(h_seq: np.ndarray, params: ScheduleParams) -> SequenceSchedule:
    """Schedule for one sequence: raw spindle values clamped to [0, 1], made
    nonincreasing by a running minimum, with the t=0 and t=T rows forced to
    exactly 1 and 0. clamp_events counts the interior values either step moved.
    """
    raw = spindle_alpha_raw(h_seq, params)
    lo, hi = params.clamp_eps, 1.0 - params.clamp_eps
    clipped = np.clip(raw, lo, hi)
    alpha_bar = np.minimum.accumulate(clipped, axis=0)
    alpha_bar[0] = 1.0
    alpha_bar[-1] = 0.0
    events = int(((raw[1:-1] < lo) | (raw[1:-1] > hi)).sum())
    events += int((clipped[1:-1] != alpha_bar[1:-1]).sum())
    return SequenceSchedule(alpha_bar, events)


def spindle_alpha_bar_at(h_seq: np.ndarray, t, params: ScheduleParams) -> np.ndarray:
    """Row alpha_bar[t] of `spindle_schedule(h_seq, params)`, without the grid.

    h_seq has shape (..., n); t (integers in 0..T) broadcasts against its
    leading axes. The raw curve f(u) = 1 - u/T - lam*sin(pi*u/T)*h~ has at
    most one stationary point in (0, T). Where h~ < 0 it is a maximum: f
    rises above f(0) = 1, which the clip to 1 - clamp_eps flattens, then
    falls. Where h~ > 0 it is a minimum (present only if lam*pi*h~ > 1),
    after which f climbs back to f(T) = 0, under the clip's floor. So the
    running minimum changes nothing after the clip: the row is f(t) clipped
    to [clamp_eps, 1 - clamp_eps], with rows 0 and T forced to 1 and 0.
    """
    T = params.num_steps
    t = np.asarray(t)
    if ((t < 0) | (t > T)).any():
        raise ValueError(f"t out of range [0, {T}]")
    rows = np.clip(_raw_rows(h_seq, t, params), params.clamp_eps, 1.0 - params.clamp_eps)
    t = t[..., None]
    return np.where(t == 0, 1.0, np.where(t == T, 0.0, rows))


def flat_schedule(length: int, params: ScheduleParams) -> SequenceSchedule:
    """Position-independent schedule alpha_bar[t] = 1 - t/T (the lam = 0 case)."""
    return spindle_schedule(np.ones(length), params)


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
