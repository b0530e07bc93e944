"""Compact bidirectional transformer denoiser predicting the clean sequence.

Pre-norm encoder over token + learned positional embeddings, with a [CLS]
token prepended internally. Three time-conditioning modes:

  lte  sinusoidal step embedding through a 2-layer MLP, added to the hidden
       state at the input of every layer
  pte  a learned per-step token inserted between [CLS] and the sequence
  tad  ignores the step `forward` is given; the mask count carries it

An unmasked token is its own x0, so the model predicts only at [MASK]. The
last layer's keys and values read every row, but past its attention only
the [MASK] rows go on: its output projection, second layernorm and FFN, the
final layernorm and the output head all run on those rows alone.
Forward passes record activations so `backward` can produce exact
reverse-mode gradients for every parameter; correctness is pinned by
finite-difference tests rather than an autodiff framework. Each op with
parameters is one forward/backward pair: `_layernorm`, `_linear` (every GEMM
with a bias) and `_mlp` (the FFN and lte's time MLP); attention is inline.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .corpus import CLS_ID, MASK_ID, PAD_ID
from .diffusion import MAX_STEPS, ScheduleParams
from .rng import as_generator

MODES = ("lte", "pte", "tad")
SPECIAL_IDS = (MASK_ID, PAD_ID, CLS_ID)

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715
_NEG = -1e30
_FFN_MULT = 4  # FFN hidden width, in multiples of d_model

CHECKPOINT_VERSION = 3  # version 2 headers also held ffn_mult; they still load
# The deepest model. `init_params` and every pass loop over the layers in
# Python, so a depth no machine can hold would grow memory one layer's small
# arrays at a time instead of failing at once: 2^32 layers took 2.5 s to fill
# 512 MiB before a MemoryError.
MAX_LAYERS = 1 << 16


@dataclass(frozen=True)
class DenoiserConfig:
    vocab_size: int
    mode: str = "tad"
    num_layers: int = 4
    d_model: int = 128
    num_heads: int = 4
    n_max: int = 64
    num_steps: int = 64
    dropout: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 1 <= self.num_layers <= MAX_LAYERS:
            raise ValueError(f"num_layers must be in [1, {MAX_LAYERS}], got {self.num_layers}")
        if self.d_model < 2 or self.d_model % 2 != 0:
            raise ValueError(f"d_model must be even and >= 2 (sinusoidal time features), "
                             f"got {self.d_model}")
        if self.num_heads < 1 or self.d_model % self.num_heads != 0:
            raise ValueError(f"num_heads must be >= 1 and divide d_model={self.d_model}, "
                             f"got {self.num_heads}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not 1 <= self.num_steps <= MAX_STEPS:
            raise ValueError(f"num_steps must be in [1, {MAX_STEPS}], got {self.num_steps}")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must be >= 4")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def prefix_len(self) -> int:
        """Internal positions before the content sequence ([CLS], plus the
        time token in pte mode)."""
        return 2 if self.mode == "pte" else 1

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads


@dataclass
class DenoiserParams:
    """Named parameter tensors plus the config that shaped them."""

    config: DenoiserConfig
    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def copy(self) -> "DenoiserParams":
        return DenoiserParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def astype(self, dtype) -> "DenoiserParams":
        return DenoiserParams(self.config, {k: v.astype(dtype) for k, v in self.tensors.items()})

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    @property
    def dtype(self):
        return next(iter(self.tensors.values())).dtype


def _trunc_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with redraws beyond 3 std: each round redraws the
    values still out of range in flat (C) order, and tests only those."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 3 * std)
    while bad.size:
        redrawn = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redrawn
        bad = bad[np.abs(redrawn) > 3 * std]
    return out


def param_shapes(config: DenoiserConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter tensor the config implies, in the
    order `init_params` draws them."""
    d, k = config.d_model, config.vocab_size
    dh = d * _FFN_MULT
    shapes = {"tok_emb": (k, d), "pos_emb": (config.n_max + 2, d)}
    for i in range(config.num_layers):
        p = f"layer{i}."
        shapes.update({p + "ln1.g": (d,), p + "ln1.b": (d,)})
        shapes.update({p + "attn." + name: (d, d) for name in ("wq", "wk", "wv", "wo")})
        shapes.update({p + "attn." + name: (d,) for name in ("bq", "bk", "bv", "bo")})
        shapes.update({p + "ln2.g": (d,), p + "ln2.b": (d,), p + "ffn.w1": (d, dh),
                       p + "ffn.b1": (dh,), p + "ffn.w2": (dh, d), p + "ffn.b2": (d,)})
    shapes.update({"ln_f.g": (d,), "ln_f.b": (d,), "out.w": (d, k), "out.b": (k,)})
    if config.mode == "lte":
        shapes.update({"time_mlp.w1": (d, d), "time_mlp.b1": (d,),
                       "time_mlp.w2": (d, d), "time_mlp.b2": (d,)})
    elif config.mode == "pte":
        shapes["time_tok_emb"] = (config.num_steps + 1, d)
    return shapes


def init_params(config: DenoiserConfig, seed: int | np.random.Generator) -> DenoiserParams:
    """Truncated-normal weights (std 0.02), zero biases, unit norm gains, and
    a zero output projection so the untrained model predicts uniformly over
    content tokens.
    """
    rng = as_generator(seed)
    t: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "g":
            t[name] = np.ones(shape)
        elif leaf.startswith("b") or name == "out.w":
            t[name] = np.zeros(shape)
        else:
            t[name] = _trunc_normal(rng, shape)
    return DenoiserParams(config, t)


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximation GELU; returns (value, tanh term) so the backward
    pass never recomputes the transcendental.
    """
    u = x * x
    u *= x
    u *= _GELU_A
    u += x
    u *= _GELU_C
    th = np.tanh(u, out=u)
    y = th + 1.0
    y *= 0.5 * x
    return y, th


def _gelu_grad(x: np.ndarray, th: np.ndarray) -> np.ndarray:
    # in-place evaluation of d/dx [0.5 x (1 + tanh(c(x + a x^3)))]
    poly = x * x
    poly *= 3.0 * _GELU_A
    poly += 1.0
    poly *= 0.5 * _GELU_C
    poly *= x
    sech2 = th * th
    np.subtract(1.0, sech2, out=sech2)
    poly *= sech2
    poly += 0.5
    poly += 0.5 * th
    return poly


def _layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv_std = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv_std
    return g * xhat + b, (xhat, inv_std)


def _layernorm_backward(dy, cache, gain, grads, name):
    """dx of a layernorm; adds its gain and bias gradients into grads at
    `name`.g and `name`.b."""
    xhat, inv_std = cache
    dxhat = dy * gain
    grads[name + ".g"] += _sum_rows(dy * xhat)
    grads[name + ".b"] += _sum_rows(dy)
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)


def _time_features(t: np.ndarray, d: int, dtype) -> np.ndarray:
    """Standard sinusoidal features of the integer step, shape (B, d)."""
    half = d // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = t[:, None].astype(np.float64) * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1).astype(dtype)


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, m, d = x.shape
    return x.reshape(b, m, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, m, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, m, h * dh)


def _matgrad(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Gradient of y = a @ w given upstream d: a^T d folded over batch dims."""
    return a.reshape(-1, a.shape[-1]).T @ d.reshape(-1, d.shape[-1])


def _lin(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w as one GEMM over x's flattened leading dims, far faster at these
    shapes than numpy's strided batched path."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def _linear(x: np.ndarray, p: dict, w: str, b: str) -> np.ndarray:
    """x @ p[w] + p[b], the bias added in place."""
    y = _lin(x, p[w])
    y += p[b]
    return y


def _linear_grad(a: np.ndarray, d: np.ndarray, p: dict, w: str, b: str, grads: dict) -> np.ndarray:
    """dx of `_linear` at input a given upstream d; adds w's, then b's gradient into grads."""
    grads[w] += _matgrad(a, d)
    grads[b] += _sum_rows(d)
    return _lin(d, p[w].T)


def _mlp(x: np.ndarray, p: dict, prefix: str) -> tuple[np.ndarray, tuple]:
    """w2 GELU(w1 x + b1) + b2, its tensors named prefix + "w1" and so on; returns (y, cache)."""
    z = _linear(x, p, prefix + "w1", prefix + "b1")
    act, th = _gelu(z)
    return _linear(act, p, prefix + "w2", prefix + "b2"), (x, z, th, act)


def _mlp_grad(cache: tuple, dy: np.ndarray, p: dict, prefix: str, grads: dict) -> np.ndarray:
    """dx of `_mlp`; adds the gradients of its four tensors into grads."""
    x, z, th, act = cache
    dz = _linear_grad(act, dy, p, prefix + "w2", prefix + "b2", grads)
    dz *= _gelu_grad(z, th)
    return _linear_grad(x, dz, p, prefix + "w1", prefix + "b1", grads)


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """x summed over every axis but the last."""
    return x.sum(axis=tuple(range(x.ndim - 1)))


def _scatter_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (r, d) rows x placed at the True entries of the (B, m) mask rows,
    zeros elsewhere."""
    out = np.zeros((*rows.shape, x.shape[-1]), dtype=x.dtype)
    out[rows] = x
    return out


def _add_rows_at(into: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """into[idx] += rows, with repeated indices summed among themselves first
    (in order), so the result is the same whatever `into` held."""
    uniq, inv = np.unique(idx, return_inverse=True)
    part = np.zeros((len(uniq), rows.shape[-1]), dtype=rows.dtype)
    np.add.at(part, inv, rows)
    into[uniq] += part


def forward(
    params: DenoiserParams,
    xt: np.ndarray,
    t: np.ndarray | int | None = None,
    *,
    train: bool = False,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, dict]:
    """Logits over the vocabulary at each [MASK] position of xt.

    xt: (B, n) token ids, possibly containing [MASK]/[PAD]. t: (B,) steps or
    one step, in 0..T whenever given; lte and pte need it, and tad drops it
    once checked. Returns (logits (m, K), cache): one row per [MASK] of xt
    in row-major order, i.e. the rows of `xt == MASK_ID`; mask/pad/cls
    columns are -inf. The last layer runs past its attention on those rows
    only. Its dropout masks are drawn at the full (B, n + prefix, d) shape
    and taken at those rows, so a pass draws from rng as if every row ran.
    The cache holds every activation needed by `backward`.
    """
    cfg = params.config
    p = params.tensors
    xt = np.atleast_2d(np.asarray(xt, dtype=np.int64))
    B, n = xt.shape
    if n > cfg.n_max:
        raise ValueError(f"sequence length {n} exceeds n_max={cfg.n_max}")
    if t is None and cfg.mode != "tad":
        raise ValueError(f"{cfg.mode} mode requires a time step")
    if t is not None:
        t = np.broadcast_to(np.asarray(t, dtype=np.int64), (B,)).copy()
        if (t < 0).any() or (t > cfg.num_steps).any():
            raise ValueError("time step out of range")
    t = None if cfg.mode == "tad" else t
    dtype = params.dtype
    prefix = cfg.prefix_len
    m = prefix + n

    ids = np.concatenate([np.full((B, prefix), CLS_ID, dtype=np.int64), xt], axis=1)
    if cfg.mode == "pte":
        ids[:, 1] = -1  # slot filled from the time-token table, not tok_emb
    emb = p["tok_emb"][np.where(ids >= 0, ids, 0)]
    if cfg.mode == "pte":
        emb[:, 1, :] = p["time_tok_emb"][t]
    h = emb + p["pos_emb"][:m]

    drop = cfg.dropout if train else 0.0
    rng = as_generator(rng) if drop > 0 else None
    full = h.shape

    def make_mask(rows=None):
        """A dropout mask drawn at the full (B, m, d) shape, taken at rows."""
        if drop <= 0:
            return None
        u = rng.random(full, dtype=dtype)
        if rows is not None:
            u = u[rows]
        mask = (u >= drop).astype(dtype)
        mask /= 1.0 - drop
        return mask

    emb_mask = make_mask()
    if emb_mask is not None:
        h = h * emb_mask

    tvec = time_cache = None
    if cfg.mode == "lte":
        tvec, time_cache = _mlp(_time_features(t, cfg.d_model, dtype), p, "time_mlp.")

    key_valid = ids != PAD_ID
    key_bias = np.where(key_valid, 0.0, _NEG).astype(dtype)[:, None, None, :]
    # A Python float, not np.float64: under NumPy 2's promotion rules a
    # float64 scalar would turn every later float32 activation into float64.
    scale = 1.0 / float(np.sqrt(cfg.head_dim))

    # The rows of `xt == MASK_ID` in row-major order: the rows of the logits.
    head_rows = np.zeros((B, m), dtype=bool)
    head_rows[:, prefix:] = xt == MASK_ID

    layers = []
    for i in range(cfg.num_layers):
        pre, at = f"layer{i}.", f"layer{i}.attn."
        rows = head_rows if i == cfg.num_layers - 1 else None
        h_in = h + tvec[:, None, :] if tvec is not None else h
        a_norm, ln1_cache = _layernorm(h_in, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q, k, v = (_split_heads(_linear(a_norm, p, at + "w" + s, at + "b" + s), cfg.num_heads)
                   for s in "qkv")
        scores = q @ k.swapaxes(-1, -2) * scale + key_bias
        scores -= scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(probs @ v)
        if rows is not None:
            # Only the head reads the last layer's output, so past attention
            # it runs on the (r, d) [MASK] rows alone.
            ctx, h_in = ctx[rows], h_in[rows]
        attn_out = _linear(ctx, p, at + "wo", at + "bo")
        attn_mask = make_mask(rows)
        if attn_mask is not None:
            attn_out = attn_out * attn_mask
        h_mid = h_in + attn_out
        f_norm, ln2_cache = _layernorm(h_mid, p[pre + "ln2.g"], p[pre + "ln2.b"])
        f_out, ffn_cache = _mlp(f_norm, p, pre + "ffn.")
        ffn_mask = make_mask(rows)
        if ffn_mask is not None:
            f_out = f_out * ffn_mask
        h = h_mid + f_out
        layers.append(
            dict(
                ln1=ln1_cache, a_norm=a_norm, q=q, k=k, v=v, probs=probs, ctx=ctx,
                attn_mask=attn_mask, ln2=ln2_cache, ffn=ffn_cache, ffn_mask=ffn_mask,
            )
        )

    hf, lnf_cache = _layernorm(h, p["ln_f.g"], p["ln_f.b"])
    logits = _linear(hf, p, "out.w", "out.b")
    logits[:, SPECIAL_IDS] = -np.inf

    cache = dict(
        params=params, ids=ids, t=t, emb_mask=emb_mask, time_cache=time_cache,
        head_rows=head_rows, layers=layers, hf=hf, lnf=lnf_cache,
    )
    return logits, cache


def backward(
    cache: dict, upstream_grad: np.ndarray, grads: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Adds the exact gradient of every parameter, given d(loss)/d(logits)
    as an (m, K) array over the rows `forward` returned, into `grads` and
    returns it. `grads` holds one array per parameter, of its shape (zeros
    for a fresh sum), so passes over several batches accumulate into one
    buffer. The gradient stays on the [MASK] rows down
    to the last layer's attention output, where it is scattered back into
    the full (B, n + prefix, d) tensor.

    Entries of upstream_grad at the forced -inf columns are ignored (those
    logits are constants). upstream_grad is never written: it is read as
    is when those columns are already zero, as the loss core's gradients
    are, and through a copy with them zeroed otherwise.

    backward consumes its cache: it drops the head's input and each layer's
    activations as soon as it has used them, so the cache it works through
    shrinks while a caller's next forward fills another. A second backward
    on a spent cache raises ValueError; run forward again for it.
    """
    if "hf" not in cache:
        raise ValueError("this forward cache was spent by an earlier backward; run forward "
                         "again")
    params: DenoiserParams = cache["params"]
    cfg = params.config
    p = params.tensors
    B, m = cache["ids"].shape
    expected = (len(cache["hf"]), cfg.vocab_size)
    if np.shape(upstream_grad) != expected:
        raise ValueError(f"upstream grad shape {np.shape(upstream_grad)} != {expected}")
    g = grads

    dlogits = np.asarray(upstream_grad, dtype=params.dtype)
    if dlogits[:, SPECIAL_IDS].any():
        dlogits = np.array(upstream_grad, dtype=params.dtype)
        dlogits[:, SPECIAL_IDS] = 0.0
    dh = _linear_grad(cache.pop("hf"), dlogits, p, "out.w", "out.b", g)
    dh = _layernorm_backward(dh, cache["lnf"], p["ln_f.g"], g, "ln_f")

    scale = 1.0 / float(np.sqrt(cfg.head_dim))
    dtvec = np.zeros((B, cfg.d_model), dtype=params.dtype) if cfg.mode == "lte" else None

    for i in reversed(range(cfg.num_layers)):
        pre, at = f"layer{i}.", f"layer{i}.attn."
        c = cache["layers"].pop()  # layer i's activations, freed with c
        # ffn sublayer: h = h_mid + drop(mlp(ln2(h_mid)))
        df = dh * c["ffn_mask"] if c["ffn_mask"] is not None else dh
        dln2 = _mlp_grad(c["ffn"], df, p, pre + "ffn.", g)
        dh_mid = dh + _layernorm_backward(dln2, c["ln2"], p[pre + "ln2.g"], g, pre + "ln2")
        # attention sublayer: h_mid = h_in + drop(attn(ln1(h_in)))
        dattn = dh_mid * c["attn_mask"] if c["attn_mask"] is not None else dh_mid
        dctx = _linear_grad(c["ctx"], dattn, p, at + "wo", at + "bo", g)
        if i == cfg.num_layers - 1:
            # the last layer ran past attention on the [MASK] rows alone
            rows = cache["head_rows"]
            dh_mid, dctx = _scatter_rows(dh_mid, rows), _scatter_rows(dctx, rows)
        dctx = _split_heads(dctx, cfg.num_heads)
        dprobs = dctx @ c["v"].swapaxes(-1, -2)
        dv = c["probs"].swapaxes(-1, -2) @ dctx
        dscores = c["probs"] * (dprobs - (dprobs * c["probs"]).sum(axis=-1, keepdims=True))
        dq = _merge_heads(dscores @ c["k"] * scale)
        dk = _merge_heads(dscores.swapaxes(-1, -2) @ c["q"] * scale)
        dv = _merge_heads(dv)
        dln1 = (_linear_grad(c["a_norm"], dq, p, at + "wq", at + "bq", g)
                + _linear_grad(c["a_norm"], dk, p, at + "wk", at + "bk", g)
                + _linear_grad(c["a_norm"], dv, p, at + "wv", at + "bv", g))
        dh = dh_mid + _layernorm_backward(dln1, c["ln1"], p[pre + "ln1.g"], g, pre + "ln1")
        if dtvec is not None:
            dtvec += dh.sum(axis=1)

    if cache["emb_mask"] is not None:
        dh = dh * cache["emb_mask"]
    g["pos_emb"][:m] += dh.sum(axis=0)
    ids = cache["ids"].reshape(-1)
    real = ids >= 0  # pte's time slot (-1) reads time_tok_emb instead
    _add_rows_at(g["tok_emb"], ids[real], dh.reshape(-1, cfg.d_model)[real])
    if cfg.mode == "pte":
        _add_rows_at(g["time_tok_emb"], cache["t"], dh[:, 1, :])
    if cfg.mode == "lte":  # the time features are constants: their gradient is dropped
        _mlp_grad(cache["time_cache"], dtvec, p, "time_mlp.", g)
    return g


# --- checkpoint serialization -------------------------------------------------

_HEADER = "[header]"  # archive member holding the JSON header; no tensor has this name
_HEADER_KEYS = ({"version", "records", "lambda", "vocab_hash", "step"}
                | {f.name for f in fields(DenoiserConfig)})
# The types each header value may have: a config field's own type, where an
# int passes for a float (a bool passes for neither).
_HEADER_TYPES = {**{k: (int, float) if v is float else (v,)
                    for k, v in get_type_hints(DenoiserConfig).items()},
                 "version": (int,), "records": (int,), "lambda": (int, float),
                 "vocab_hash": (str,), "step": (int, type(None))}


def save_checkpoint(
    path: str | Path,
    params: DenoiserParams,
    *,
    lam: float,
    vocab_hash: str,
    step: int | None = None,
    extra_tensors: dict[str, np.ndarray] | None = None,
) -> None:
    """Write an uncompressed numpy .npz archive (zip with a CRC-32 per
    member): the JSON header as one uint8 member named "[header]", then one
    little-endian float32 .npy member per tensor. extra_tensors (optimizer
    state under "opt." names) ride along and are ignored by model loaders.

    A tensor that is not finite in float32 raises ValueError naming it
    before anything is written. The archive goes to `<path>.tmp` in the
    same directory, is flushed and fsynced, and then replaces `path`, so a
    crash mid-write leaves the previous file intact; the temp file is
    removed on any exception.
    """
    records = {**params.tensors, **(extra_tensors or {})}
    header = {**asdict(params.config), "version": CHECKPOINT_VERSION, "records": len(records),
              "lambda": lam, "vocab_hash": vocab_hash, "step": step}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    members = {name: np.ascontiguousarray(t, dtype="<f4") for name, t in records.items()}
    for name, t in members.items():
        if not np.isfinite(t).all():
            raise ValueError(f"{path}: tensor {name} is not finite in float32; nothing written")
    tmp = Path(f"{path}.tmp")
    try:
        # np.savez appends ".npz" to a path, so it gets an open file
        with open(tmp, "wb") as fh:
            np.savez(fh, **{_HEADER: np.frombuffer(blob, dtype=np.uint8)}, **members)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class Checkpoint:
    params: DenoiserParams
    lam: float
    vocab_hash: str
    step: int | None
    extra_tensors: dict[str, np.ndarray] = field(default_factory=dict)


def load_checkpoint(path: str | Path, dtype=np.float64) -> Checkpoint:
    """Read a file written by `save_checkpoint`. Damage raises ValueError
    naming the path: not an .npz archive, cut short, a failed member CRC-32,
    a header key missing, a header value of the wrong type, another version,
    a tensor record count unlike the header's, a config or lambda out of
    range, a negative step, a tensor that is not finite float32 (optimizer
    records included), or model tensor names or shapes that do not fit the
    config.
    Version-2 files load: their header's extra ffn_mult key, always 4, is
    ignored, as the FFN width is now the constant _FFN_MULT. Version-1 files
    (the "SPND1" record format) are rejected, not read.
    """
    with open(path, "rb") as fh:
        try:
            if fh.read(5) == b"SPND1":
                raise ValueError("version 1 checkpoints are no longer read")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                header = json.loads(archive[_HEADER].tobytes())
                tensors = {name: archive[name] for name in archive.files if name != _HEADER}
            missing = sorted(_HEADER_KEYS - set(header))
            if missing:
                raise ValueError(f"header lacks {missing}")
            for key, kinds in _HEADER_TYPES.items():
                if type(header[key]) not in kinds:
                    raise ValueError(f"header {key} {json.dumps(header[key])} has the wrong type")
            if header["version"] not in (2, CHECKPOINT_VERSION):
                raise ValueError(f"unsupported checkpoint version {header['version']}")
            if len(tensors) != header["records"]:
                raise ValueError(f"{len(tensors)} tensor records, header says {header['records']}")
            if (header["step"] or 0) < 0:
                raise ValueError(f"header step {header['step']} is negative")
            for name, data in tensors.items():
                if data.dtype != np.dtype("<f4") or not np.isfinite(data).all():
                    raise ValueError(f"tensor {name} is not finite float32")
                tensors[name] = data.astype(dtype, copy=False)
            config = DenoiserConfig(**{f.name: header[f.name] for f in fields(DenoiserConfig)})
            ScheduleParams(config.num_steps, header["lambda"])  # range-checks lambda
            model = {k: v for k, v in tensors.items() if not k.startswith("opt.")}
            if {k: v.shape for k, v in model.items()} != param_shapes(config):
                raise ValueError("tensor names or shapes do not match the config")
        # zipfile and its decompressors raise many exception types on damaged bytes
        except Exception as exc:
            raise ValueError(f"{path}: {exc}") from exc
    extra = {k: v for k, v in tensors.items() if k.startswith("opt.")}
    return Checkpoint(DenoiserParams(config, model), header["lambda"], header["vocab_hash"],
                      header["step"], extra)
