"""Compact bidirectional transformer denoiser predicting the clean sequence.

Pre-norm encoder over token + learned positional embeddings, with a [CLS]
token prepended internally. Three time-conditioning modes:

  lte  sinusoidal step embedding through a 2-layer MLP, added to the hidden
       state at the input of every layer
  pte  a learned per-step token inserted between [CLS] and the sequence
  tad  no time input at all; the mask count carries the step implicitly

Forward passes record activations so `backward` can produce exact
reverse-mode gradients for every parameter; correctness is pinned by
finite-difference tests rather than an autodiff framework.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import CLS_ID, MASK_ID, PAD_ID
from .rng import as_generator

MODES = ("lte", "pte", "tad")
SPECIAL_IDS = (MASK_ID, PAD_ID, CLS_ID)

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715
_NEG = -1e30

CHECKPOINT_MAGIC = b"SPND1"
CHECKPOINT_VERSION = 1


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
    ffn_mult: int = 4

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if self.d_model % 2 != 0:
            raise ValueError("d_model must be even (sinusoidal time features)")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must be >= 4")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")

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
    """Normal(0, std) with redraws beyond 3 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 3 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 3 * std
    return out


def init_params(config: DenoiserConfig, seed: int | np.random.Generator) -> DenoiserParams:
    """Truncated-normal weights (std 0.02), zero biases, and a zero output
    projection so the untrained model predicts uniformly over content tokens.
    """
    rng = as_generator(seed)
    d, k = config.d_model, config.vocab_size
    dh = d * config.ffn_mult
    t: dict[str, np.ndarray] = {}
    t["tok_emb"] = _trunc_normal(rng, (k, d))
    t["pos_emb"] = _trunc_normal(rng, (config.n_max + 2, d))
    for i in range(config.num_layers):
        p = f"layer{i}."
        t[p + "ln1.g"] = np.ones(d)
        t[p + "ln1.b"] = np.zeros(d)
        for name in ("wq", "wk", "wv", "wo"):
            t[p + "attn." + name] = _trunc_normal(rng, (d, d))
        for name in ("bq", "bk", "bv", "bo"):
            t[p + "attn." + name] = np.zeros(d)
        t[p + "ln2.g"] = np.ones(d)
        t[p + "ln2.b"] = np.zeros(d)
        t[p + "ffn.w1"] = _trunc_normal(rng, (d, dh))
        t[p + "ffn.b1"] = np.zeros(dh)
        t[p + "ffn.w2"] = _trunc_normal(rng, (dh, d))
        t[p + "ffn.b2"] = np.zeros(d)
    t["ln_f.g"] = np.ones(d)
    t["ln_f.b"] = np.zeros(d)
    t["out.w"] = np.zeros((d, k))
    t["out.b"] = np.zeros(k)
    if config.mode == "lte":
        t["time_mlp.w1"] = _trunc_normal(rng, (d, d))
        t["time_mlp.b1"] = np.zeros(d)
        t["time_mlp.w2"] = _trunc_normal(rng, (d, d))
        t["time_mlp.b2"] = np.zeros(d)
    elif config.mode == "pte":
        t["time_tok_emb"] = _trunc_normal(rng, (config.num_steps + 1, d))
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


def _layernorm_backward(dy, cache, g):
    xhat, inv_std = cache
    dxhat = dy * g
    d_g = (dy * xhat).sum(axis=(0, 1))
    d_b = dy.sum(axis=(0, 1))
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, d_g, d_b


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
    """x @ w with leading dims flattened; one large GEMM beats numpy's
    strided batched path by a wide margin at these shapes.
    """
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def _check_time_arg(config: DenoiserConfig, t) -> None:
    if config.mode == "tad":
        if t is not None:
            raise ValueError("tad mode takes no time step")
    elif t is None:
        raise ValueError(f"{config.mode} mode requires a time step")


def forward(
    params: DenoiserParams,
    xt: np.ndarray,
    t: np.ndarray | int | None = None,
    *,
    train: bool = False,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, dict]:
    """Logits over the vocabulary for each content position.

    xt: (B, n) token ids, possibly containing [MASK]/[PAD]. t: (B,) steps for
    lte/pte, None for tad. Returns (logits (B, n, K), cache); mask/pad/cls
    columns of the logits are -inf. The cache holds every activation needed
    by `backward`.
    """
    cfg = params.config
    p = params.tensors
    xt = np.atleast_2d(np.asarray(xt, dtype=np.int64))
    B, n = xt.shape
    if n > cfg.n_max:
        raise ValueError(f"sequence length {n} exceeds n_max={cfg.n_max}")
    _check_time_arg(cfg, t)
    if t is not None:
        t = np.broadcast_to(np.asarray(t, dtype=np.int64), (B,)).copy()
        if (t < 0).any() or (t > cfg.num_steps).any():
            raise ValueError("time step out of range")
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

    def make_mask(shape):
        if drop <= 0:
            return None
        u = rng.random(shape, dtype=np.float32) if dtype == np.float32 else rng.random(shape)
        mask = (u >= drop).astype(dtype)
        mask /= 1.0 - drop
        return mask

    emb_mask = make_mask(h.shape)
    if emb_mask is not None:
        h = h * emb_mask

    tvec = None
    time_cache = None
    if cfg.mode == "lte":
        feats = _time_features(t, cfg.d_model, dtype)
        z1 = feats @ p["time_mlp.w1"] + p["time_mlp.b1"]
        a1, th1 = _gelu(z1)
        tvec = a1 @ p["time_mlp.w2"] + p["time_mlp.b2"]
        time_cache = (feats, z1, th1, a1)

    key_valid = ids != PAD_ID
    key_bias = np.where(key_valid, 0.0, _NEG).astype(dtype)[:, None, None, :]
    scale = 1.0 / np.sqrt(cfg.head_dim)

    layers = []
    for i in range(cfg.num_layers):
        pre = f"layer{i}."
        h_in = h + tvec[:, None, :] if tvec is not None else h
        a_norm, ln1_cache = _layernorm(h_in, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q = _split_heads(_lin(a_norm, p[pre + "attn.wq"]) + p[pre + "attn.bq"], cfg.num_heads)
        k = _split_heads(_lin(a_norm, p[pre + "attn.wk"]) + p[pre + "attn.bk"], cfg.num_heads)
        v = _split_heads(_lin(a_norm, p[pre + "attn.wv"]) + p[pre + "attn.bv"], cfg.num_heads)
        scores = q @ k.swapaxes(-1, -2) * scale + key_bias
        scores -= scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(probs @ v)
        attn_out = _lin(ctx, p[pre + "attn.wo"]) + p[pre + "attn.bo"]
        attn_mask = make_mask(attn_out.shape)
        if attn_mask is not None:
            attn_out = attn_out * attn_mask
        h_mid = h_in + attn_out
        f_norm, ln2_cache = _layernorm(h_mid, p[pre + "ln2.g"], p[pre + "ln2.b"])
        z = _lin(f_norm, p[pre + "ffn.w1"]) + p[pre + "ffn.b1"]
        act, z_th = _gelu(z)
        f_out = _lin(act, p[pre + "ffn.w2"]) + p[pre + "ffn.b2"]
        ffn_mask = make_mask(f_out.shape)
        if ffn_mask is not None:
            f_out = f_out * ffn_mask
        h = h_mid + f_out
        layers.append(
            dict(
                ln1=ln1_cache, a_norm=a_norm, q=q, k=k, v=v, probs=probs, ctx=ctx,
                attn_mask=attn_mask, ln2=ln2_cache, f_norm=f_norm, z=z, z_th=z_th,
                act=act, ffn_mask=ffn_mask,
            )
        )

    hf, lnf_cache = _layernorm(h, p["ln_f.g"], p["ln_f.b"])
    logits_full = _lin(hf, p["out.w"]) + p["out.b"]
    logits = logits_full[:, prefix:, :].copy()
    logits[:, :, SPECIAL_IDS] = -np.inf

    cache = dict(
        params=params, ids=ids, t=t, emb_mask=emb_mask, time_cache=time_cache,
        layers=layers, hf=hf, lnf=lnf_cache, shape=(B, n, m),
    )
    return logits, cache


def backward(cache: dict, upstream_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of every parameter given d(loss)/d(logits).

    Entries of upstream_grad at the forced -inf columns are ignored (those
    logits are constants).
    """
    params: DenoiserParams = cache["params"]
    cfg = params.config
    p = params.tensors
    B, n, m = cache["shape"]
    prefix = cfg.prefix_len
    upstream_grad = np.asarray(upstream_grad)
    if upstream_grad.shape != (B, n, cfg.vocab_size):
        raise ValueError(
            f"upstream grad shape {upstream_grad.shape} != {(B, n, cfg.vocab_size)}"
        )
    g = {k: np.zeros_like(v) for k, v in p.items()}

    dfull = np.zeros((B, m, cfg.vocab_size), dtype=params.dtype)
    dfull[:, prefix:, :] = upstream_grad
    dfull[:, :, SPECIAL_IDS] = 0.0

    hf = cache["hf"]
    g["out.w"] = _matgrad(hf, dfull)
    g["out.b"] = dfull.sum(axis=(0, 1))
    dhf = _lin(dfull, p["out.w"].T)
    dh, g["ln_f.g"], g["ln_f.b"] = _layernorm_backward(dhf, cache["lnf"], p["ln_f.g"])

    scale = 1.0 / np.sqrt(cfg.head_dim)
    dtvec = np.zeros((B, cfg.d_model), dtype=params.dtype) if cfg.mode == "lte" else None

    for i in reversed(range(cfg.num_layers)):
        pre = f"layer{i}."
        c = cache["layers"][i]
        # ffn sublayer: h = h_mid + drop(w2 gelu(w1 ln2(h_mid)))
        df = dh * c["ffn_mask"] if c["ffn_mask"] is not None else dh
        g[pre + "ffn.w2"] = _matgrad(c["act"], df)
        g[pre + "ffn.b2"] = df.sum(axis=(0, 1))
        dz = _lin(df, p[pre + "ffn.w2"].T) * _gelu_grad(c["z"], c["z_th"])
        g[pre + "ffn.w1"] = _matgrad(c["f_norm"], dz)
        g[pre + "ffn.b1"] = dz.sum(axis=(0, 1))
        dln2 = _lin(dz, p[pre + "ffn.w1"].T)
        dx, g[pre + "ln2.g"], g[pre + "ln2.b"] = _layernorm_backward(
            dln2, c["ln2"], p[pre + "ln2.g"]
        )
        dh_mid = dh + dx
        # attention sublayer: h_mid = h_in + drop(attn(ln1(h_in)))
        dattn = dh_mid * c["attn_mask"] if c["attn_mask"] is not None else dh_mid
        g[pre + "attn.wo"] = _matgrad(c["ctx"], dattn)
        g[pre + "attn.bo"] = dattn.sum(axis=(0, 1))
        dctx = _split_heads(_lin(dattn, p[pre + "attn.wo"].T), cfg.num_heads)
        dprobs = dctx @ c["v"].swapaxes(-1, -2)
        dv = c["probs"].swapaxes(-1, -2) @ dctx
        dscores = c["probs"] * (dprobs - (dprobs * c["probs"]).sum(axis=-1, keepdims=True))
        dq = _merge_heads(dscores @ c["k"] * scale)
        dk = _merge_heads(dscores.swapaxes(-1, -2) @ c["q"] * scale)
        dv = _merge_heads(dv)
        a_norm = c["a_norm"]
        g[pre + "attn.wq"] = _matgrad(a_norm, dq)
        g[pre + "attn.bq"] = dq.sum(axis=(0, 1))
        g[pre + "attn.wk"] = _matgrad(a_norm, dk)
        g[pre + "attn.bk"] = dk.sum(axis=(0, 1))
        g[pre + "attn.wv"] = _matgrad(a_norm, dv)
        g[pre + "attn.bv"] = dv.sum(axis=(0, 1))
        dln1 = (
            _lin(dq, p[pre + "attn.wq"].T)
            + _lin(dk, p[pre + "attn.wk"].T)
            + _lin(dv, p[pre + "attn.wv"].T)
        )
        dx, g[pre + "ln1.g"], g[pre + "ln1.b"] = _layernorm_backward(
            dln1, c["ln1"], p[pre + "ln1.g"]
        )
        dh = dh_mid + dx
        if dtvec is not None:
            dtvec += dh.sum(axis=1)

    if cache["emb_mask"] is not None:
        dh = dh * cache["emb_mask"]
    g["pos_emb"][:m] = dh.sum(axis=0)
    ids = cache["ids"].reshape(-1)
    real = ids >= 0  # pte's time slot (-1) reads time_tok_emb instead
    np.add.at(g["tok_emb"], ids[real], dh.reshape(-1, cfg.d_model)[real])
    if cfg.mode == "pte":
        np.add.at(g["time_tok_emb"], cache["t"], dh[:, 1, :])
    if cfg.mode == "lte":
        feats, z1, th1, a1 = cache["time_cache"]
        g["time_mlp.w2"] = _matgrad(a1, dtvec)
        g["time_mlp.b2"] = dtvec.sum(axis=0)
        dz1 = (dtvec @ p["time_mlp.w2"].T) * _gelu_grad(z1, th1)
        g["time_mlp.w1"] = _matgrad(feats, dz1)
        g["time_mlp.b1"] = dz1.sum(axis=0)
    return g


def predict_x0_logits(
    params: DenoiserParams, xt: np.ndarray, t: int | None = None
) -> np.ndarray:
    """Deterministic (n, K) logits for a single sequence; no dropout."""
    logits, _ = forward(params, np.asarray(xt)[None, :], None if t is None else t)
    return logits[0]


# --- checkpoint serialization -------------------------------------------------

_HEADER_KEYS = {"version", "lambda", "vocab_hash", "step"} | {f.name for f in fields(DenoiserConfig)}


def save_checkpoint(
    path: str | Path,
    params: DenoiserParams,
    *,
    lam: float,
    vocab_hash: str,
    step: int | None = None,
    extra_tensors: dict[str, np.ndarray] | None = None,
) -> None:
    """Binary checkpoint: magic, JSON config block, then named float32 tensor
    records. extra_tensors (e.g. optimizer state under "opt." names) ride in
    the same record stream and are ignored by model loaders.
    """
    cfg = params.config
    header = {
        "version": CHECKPOINT_VERSION,
        "mode": cfg.mode,
        "num_layers": cfg.num_layers,
        "d_model": cfg.d_model,
        "num_heads": cfg.num_heads,
        "n_max": cfg.n_max,
        "num_steps": cfg.num_steps,
        "lambda": lam,
        "vocab_hash": vocab_hash,
        "vocab_size": cfg.vocab_size,
        "dropout": cfg.dropout,
        "ffn_mult": cfg.ffn_mult,
        "step": step,
    }
    records = dict(params.tensors)
    if extra_tensors:
        records.update(extra_tensors)
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    cfg_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += struct.pack("<I", len(cfg_bytes))
    blob += cfg_bytes
    blob += struct.pack("<I", len(records))
    for name, tensor in records.items():
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<H", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<B", tensor.ndim)
        blob += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
        blob += np.ascontiguousarray(tensor, dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(blob))


@dataclass
class Checkpoint:
    params: DenoiserParams
    lam: float
    vocab_hash: str
    step: int | None
    extra_tensors: dict[str, np.ndarray] = field(default_factory=dict)


def load_checkpoint(path: str | Path, dtype=np.float64) -> Checkpoint:
    """Read a file written by `save_checkpoint`. A file that is not a
    checkpoint, is cut short, lacks a header key, or holds a non-finite
    tensor (optimizer records included) raises ValueError naming the path.
    """
    raw = memoryview(Path(path).read_bytes())
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a spindle checkpoint")
    off = len(CHECKPOINT_MAGIC)

    def take(size: int) -> memoryview:
        nonlocal off
        if off + size > len(raw):
            raise ValueError(f"{path} is truncated: {len(raw)} bytes")
        off += size
        return raw[off - size : off]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    (cfg_len,) = unpack("<I")
    header = json.loads(bytes(take(cfg_len)).decode("utf-8"))
    missing = sorted(_HEADER_KEYS - set(header))
    if missing:
        raise ValueError(f"{path} header lacks {missing}")
    if header["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {header['version']}")
    (num_records,) = unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(num_records):
        (name_len,) = unpack("<H")
        name = bytes(take(name_len)).decode("utf-8")
        (rank,) = unpack("<B")
        shape = unpack(f"<{rank}I")
        data = np.frombuffer(take(4 * int(np.prod(shape))), dtype="<f4").reshape(shape)
        if not np.isfinite(data).all():
            raise ValueError(f"{path}: tensor {name} holds non-finite values")
        tensors[name] = data.astype(dtype)
    config = DenoiserConfig(**{f.name: header[f.name] for f in fields(DenoiserConfig)})
    model_tensors = {k: v for k, v in tensors.items() if not k.startswith("opt.")}
    extra = {k: v for k, v in tensors.items() if k.startswith("opt.")}
    params = DenoiserParams(config, model_tensors)
    expected = set(init_params(config, 0).names())
    if set(params.names()) != expected:
        raise ValueError(f"{path}: checkpoint tensor names do not match the config")
    return Checkpoint(params, header["lambda"], header["vocab_hash"], header["step"], extra)
