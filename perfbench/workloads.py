"""Workload shapes and the seeded input generator.

Every input a run uses is a pure function of (workload, seed) and is made
with numpy alone, so a change to the library cannot change its own inputs.
Generation is vectorized and happens before any timer starts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

MIN_LEN, MAX_LEN = 20, 63
ZIPF_EXPONENT = 1.1
HEAD_STD = 0.1  # logit std ~ HEAD_STD * sqrt(d_model) ~ 1.1 after the final layernorm


@dataclass(frozen=True)
class Workload:
    name: str
    vocab_size: int  # K, including the four reserved ids
    num_steps: int  # T
    chains: int  # sequences per generate_batch call
    length: int  # generated sequence length
    iterations: int  # reverse iterations per chain
    train_lines: int
    heldout_lines: int
    t_samples: int  # elbo t draws per held-out sequence (the CLI's default is 4)
    # Timed operations of a --seconds 42 run, each phase after one warm-up.
    # On a 2-core x86_64 box a whole run then takes 30 to 45 s.
    train_steps: int = 10
    eval_rounds: int = 6  # sample + elbo rounds; even, so traced pairs alternate evenly
    batch_size: int = 32
    top_k: int = 30
    lam: float = 0.3
    time_mode: str = "tad"
    num_layers: int = 4
    d_model: int = 128
    num_heads: int = 4
    n_max: int = 64
    dtype: str = "float32"
    min_len: int = MIN_LEN
    max_len: int = MAX_LEN

    def shape(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", vocab_size=2004, num_steps=64, chains=8, length=48, iterations=16,
                 train_lines=1500, heldout_lines=32, t_samples=4, train_steps=10, eval_rounds=6),
        Workload("t2048", vocab_size=2004, num_steps=2048, chains=1, length=48, iterations=128,
                 train_lines=1500, heldout_lines=32, t_samples=4, train_steps=10, eval_rounds=6),
        Workload("vocab30k", vocab_size=30522, num_steps=64, chains=1, length=48, iterations=16,
                 train_lines=1600, heldout_lines=8, t_samples=4, batch_size=8,
                 train_steps=8, eval_rounds=4),
    )
}


def _word_names(count: int) -> np.ndarray:
    """Distinct lowercase words 'w0', 'w1', ... (fixed, so the seed only moves counts)."""
    return np.array([f"w{i:x}" for i in range(count)], dtype=object)


def _lines(rng: np.random.Generator, words: np.ndarray, num_lines: int,
           min_len: int, max_len: int, cover_all: bool) -> list[str]:
    """Zipf-ranked word lines with lengths spread evenly over [min_len,
    max_len] in a seeded order. Every seed thus gets the same length profile,
    and batch padding does not move the figures from seed to seed.

    With cover_all every word type occurs at least once, so the corpus has
    exactly len(words) types and the tail beyond the vocabulary folds into
    [UNK].
    """
    lengths = rng.permutation(np.linspace(min_len, max_len, num_lines).round().astype(np.int64))
    total = int(lengths.sum())
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    cdf = np.cumsum(ranks**-ZIPF_EXPONENT)
    cdf /= cdf[-1]
    draws = np.searchsorted(cdf, rng.random(total), side="right")
    if cover_all:
        if total < len(words):
            raise ValueError("corpus too short to cover every word type")
        draws[: len(words)] = rng.permutation(len(words))
        draws = rng.permutation(draws)
    tokens = words[np.minimum(draws, len(words) - 1)]
    bounds = np.cumsum(lengths)[:-1]
    return [" ".join(chunk) for chunk in np.split(tokens, bounds)]


@dataclass(frozen=True)
class Inputs:
    corpus_path: Path
    heldout_path: Path
    stats: dict


def generate(w: Workload, seed: int, work_dir: Path) -> Inputs:
    """Write the training corpus and the held-out split for (w, seed)."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    words = _word_names(2 * w.vocab_size)
    train = _lines(rng, words, w.train_lines, w.min_len, w.max_len, cover_all=True)
    heldout = _lines(rng, words, w.heldout_lines, w.min_len, w.max_len, cover_all=False)
    work_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = work_dir / f"{w.name}-{seed}-train.txt"
    heldout_path = work_dir / f"{w.name}-{seed}-heldout.txt"
    corpus_path.write_text("\n".join(train) + "\n", encoding="utf-8")
    heldout_path.write_text("\n".join(heldout) + "\n", encoding="utf-8")
    lengths = np.array([line.count(" ") + 1 for line in train])
    stats = {
        "train_lines": len(train),
        "train_tokens": int(lengths.sum()),
        "word_types": len(set(" ".join(train).split(" "))),
        "heldout_lines": len(heldout),
        "mean_train_length": float(lengths.mean()),
    }
    return Inputs(corpus_path, heldout_path, stats)


def eval_model(params, seed: int):
    """The fixed sampling/eval model: the given init plus a seeded non-zero
    output head. A zero head ties every logit, which makes top-k sorting
    artificially cheap, so the head gets N(0, HEAD_STD) weights and biases.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    out = params.copy()
    w, b = out.tensors["out.w"], out.tensors["out.b"]
    w[...] = rng.normal(0.0, HEAD_STD, size=w.shape)
    b[...] = rng.normal(0.0, HEAD_STD, size=b.shape)
    return out
