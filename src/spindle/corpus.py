"""Corpus ingestion: normalization, tokenization, vocabulary, unigram surprisal.

The vocabulary reserves [MASK]/[PAD]/[CLS] at indices 0..2 and an [UNK]
content token at index 3; everything above is corpus-derived. Surprisal is
the per-occurrence information content -ln p(token) in nats under the
additively smoothed unigram distribution over content tokens.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

MASK_TOKEN = "[MASK]"
PAD_TOKEN = "[PAD]"
CLS_TOKEN = "[CLS]"
UNK_TOKEN = "[UNK]"

SPECIAL_TOKENS = (MASK_TOKEN, PAD_TOKEN, CLS_TOKEN)

MASK_ID = 0
PAD_ID = 1
CLS_ID = 2
UNK_ID = 3

NUM_SPECIALS = len(SPECIAL_TOKENS)

TOKENIZERS = ("word", "char")


def normalize_line(line: str) -> str:
    """Lowercase and collapse all whitespace runs to single spaces."""
    return " ".join(line.lower().split())


def split_line(line: str, tokenizer: str) -> list[str]:
    normalized = normalize_line(line)
    if not normalized:
        return []
    if tokenizer == "word":
        return normalized.split(" ")
    if tokenizer == "char":
        return list(normalized)
    raise ValueError(f"unknown tokenizer {tokenizer!r}")


@dataclass(frozen=True)
class Vocab:
    """Token <-> id mapping. `tokens[i]` has id i; `counts` are corpus counts
    (0 for the three specials; [UNK] carries the mass folded from truncation).
    """

    tokens: tuple[str, ...]
    counts: tuple[int, ...]
    tokenizer: str = "word"

    def __post_init__(self) -> None:
        if self.tokens[:NUM_SPECIALS] != SPECIAL_TOKENS or self.tokens[UNK_ID] != UNK_TOKEN:
            raise ValueError("vocab must start with [MASK] [PAD] [CLS] [UNK]")
        if len(self.tokens) != len(set(self.tokens)):
            raise ValueError("duplicate tokens in vocab")
        if len(self.tokens) != len(self.counts):
            raise ValueError("tokens/counts length mismatch")
        if self.tokenizer not in TOKENIZERS:
            raise ValueError(f"unknown tokenizer {self.tokenizer!r}")

    @cached_property
    def ids(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def num_content(self) -> int:
        return len(self.tokens) - NUM_SPECIALS

    def to_tsv(self) -> str:
        return "".join(f"{tok}\t{cnt}\n" for tok, cnt in zip(self.tokens, self.counts))

    @classmethod
    def from_tsv(cls, text: str, tokenizer: str = "word") -> "Vocab":
        tokens: list[str] = []
        counts: list[int] = []
        for line in text.split("\n"):
            if not line:
                continue
            tok, _, cnt = line.partition("\t")
            tokens.append(tok)
            counts.append(int(cnt))
        return cls(tuple(tokens), tuple(counts), tokenizer)

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_tsv().encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path, tokenizer: str = "word") -> "Vocab":
        return cls.from_tsv(Path(path).read_bytes().decode("utf-8"), tokenizer)

    def content_hash(self) -> str:
        """Stable hash binding checkpoints to the vocabulary they were trained on."""
        digest = hashlib.sha256(self.to_tsv().encode("utf-8")).hexdigest()
        return digest[:16]


def build_vocab(corpus_path: str | Path, max_vocab: int, tokenizer: str = "word") -> Vocab:
    """Count tokens in the corpus and keep the `max_vocab - 3` most frequent
    (ties broken lexicographically) after the three specials. [UNK] is always
    present and absorbs the counts of truncated-away tokens.
    """
    if max_vocab < NUM_SPECIALS + 1:
        raise ValueError(f"max_vocab must be >= {NUM_SPECIALS + 1}, got {max_vocab}")
    counter: Counter[str] = Counter()
    for line in Path(corpus_path).read_text(encoding="utf-8").split("\n"):
        counter.update(split_line(line, tokenizer))
    if not counter:
        raise ValueError(f"corpus {corpus_path} contains no tokens")
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = ranked[: max_vocab - NUM_SPECIALS]
    folded = sum(cnt for _, cnt in ranked[len(keep) :])
    tokens = SPECIAL_TOKENS + (UNK_TOKEN,) + tuple(tok for tok, _ in keep)
    counts = (0, 0, 0, folded) + tuple(cnt for _, cnt in keep)
    return Vocab(tokens, counts, tokenizer)


def tokenize(line: str, vocab: Vocab) -> np.ndarray:
    """Token ids for one line; out-of-vocab tokens map to [UNK]."""
    ids = vocab.ids
    return np.array(
        [ids.get(tok, UNK_ID) for tok in split_line(line, vocab.tokenizer)], dtype=np.int64
    )


def detokenize(ids: np.ndarray, vocab: Vocab) -> str:
    sep = " " if vocab.tokenizer == "word" else ""
    return sep.join(vocab.tokens[int(i)] for i in ids)


@dataclass(frozen=True)
class SurprisalTable:
    """Per-token-id surprisal in nats. Specials get 0 and are excluded from
    schedule statistics; content tokens get -ln of their smoothed probability.
    """

    h: np.ndarray

    def __post_init__(self) -> None:
        if np.isnan(self.h).any():
            raise ValueError("NaN surprisal: internal error")
        if (self.h < 0).any():
            raise ValueError("negative surprisal")

    def h_for(self, ids: np.ndarray) -> np.ndarray:
        return self.h[np.asarray(ids, dtype=np.int64)]

    def to_tsv(self, vocab: Vocab) -> str:
        return "".join(f"{tok}\t{float(h)!r}\n" for tok, h in zip(vocab.tokens, self.h))

    def save(self, path: str | Path, vocab: Vocab) -> None:
        Path(path).write_bytes(self.to_tsv(vocab).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path, vocab: Vocab) -> "SurprisalTable":
        rows = [line for line in Path(path).read_text(encoding="utf-8").split("\n") if line]
        if len(rows) != len(vocab):
            raise ValueError(f"{path}: {len(rows)} surprisal rows for a vocab of "
                             f"{len(vocab)} entries")
        h = np.zeros(len(vocab))
        for i, line in enumerate(rows):
            tok, _, val = line.partition("\t")
            if tok != vocab.tokens[i]:
                raise ValueError(f"surprisal table row {i} does not match vocab ({tok!r})")
            h[i] = float(val)
        return cls(h)


def surprisal_table(
    corpus_path: str | Path, vocab: Vocab, smoothing_count: float = 1.0
) -> SurprisalTable:
    """Unigram surprisal from a corpus scan with additive smoothing.

    h[v] = -ln((count[v] + s) / (total + s * C)) over the C content tokens
    (including [UNK], which absorbs out-of-vocab occurrences). With s = 0 an
    unseen token gets h = +inf. It has no schedule, so the sampler never draws
    it, and training on or scoring a sequence that contains it raises
    ValueError.
    """
    if smoothing_count < 0:
        raise ValueError("smoothing_count must be nonnegative")
    counts = np.zeros(len(vocab), dtype=np.int64)
    for line in Path(corpus_path).read_text(encoding="utf-8").split("\n"):
        ids = tokenize(line, vocab)
        if ids.size:
            np.add.at(counts, ids, 1)
    total = int(counts[NUM_SPECIALS:].sum())
    if total == 0:
        raise ValueError(f"corpus {corpus_path} contains no tokens")
    num_content = len(vocab) - NUM_SPECIALS
    denom = total + smoothing_count * num_content
    h = np.zeros(len(vocab))
    with np.errstate(divide="ignore"):
        h[NUM_SPECIALS:] = -np.log((counts[NUM_SPECIALS:] + smoothing_count) / denom)
    return SurprisalTable(h)
