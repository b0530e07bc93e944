"""Corpus ingestion: normalization, tokenization, vocabulary, unigram surprisal.

The vocabulary reserves [MASK]/[PAD]/[CLS] at indices 0..2 and an [UNK]
content token at index 3; everything above is corpus-derived. Surprisal is
the per-occurrence information content -ln p(token) in nats under the
additively smoothed unigram distribution over content tokens. It depends
only on the vocab's counts and the smoothing, so it is computed from them
(`SurprisalTable.from_counts`) and never stored.
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
        if self.tokens[: UNK_ID + 1] != SPECIAL_TOKENS + (UNK_TOKEN,):
            raise ValueError("vocab must start with [MASK] [PAD] [CLS] [UNK]")
        if len(self.tokens) < UNK_ID + 2:
            raise ValueError("vocab must hold a content token besides [UNK]")
        if len(self.tokens) != len(set(self.tokens)):
            raise ValueError("duplicate tokens in vocab")
        if len(self.tokens) != len(self.counts):
            raise ValueError("tokens/counts length mismatch")
        if min(self.counts) < 0 or not any(self.counts[NUM_SPECIALS:]):
            raise ValueError("counts must be >= 0, and some content count > 0")
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

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_tsv().encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path, tokenizer: str = "word") -> "Vocab":
        """Read a file written by `save`; damage raises ValueError naming it."""
        try:
            text = Path(path).read_bytes().decode("utf-8")
            rows = [line.split("\t") for line in text.split("\n") if line]
            return cls(tuple(t for t, _ in rows), tuple(int(c) for _, c in rows), tokenizer)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def content_hash(self) -> str:
        """Stable hash binding checkpoints to the vocabulary they were trained on."""
        digest = hashlib.sha256(self.to_tsv().encode("utf-8")).hexdigest()
        return digest[:16]


def build_vocab(corpus_path: str | Path, max_vocab: int, tokenizer: str = "word") -> Vocab:
    """A vocab of at most `max_vocab` entries in all: the three specials,
    [UNK], and the `max_vocab - 4` most frequent corpus tokens (ties broken
    lexicographically). [UNK] absorbs the counts of truncated-away tokens.
    `max_vocab` must leave room for one corpus token besides [UNK].
    """
    if max_vocab < UNK_ID + 2:
        raise ValueError(f"max_vocab must be >= {UNK_ID + 2}, got {max_vocab}")
    counter: Counter[str] = Counter()
    for line in Path(corpus_path).read_text(encoding="utf-8").split("\n"):
        counter.update(split_line(line, tokenizer))
    if not counter:
        raise ValueError(f"corpus {corpus_path} contains no tokens")
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = ranked[: max_vocab - NUM_SPECIALS - 1]
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
        if not (np.isfinite(self.h) & (self.h >= 0)).all():
            raise ValueError("every surprisal must be finite and >= 0")

    def h_for(self, ids: np.ndarray) -> np.ndarray:
        return self.h[np.asarray(ids, dtype=np.int64)]

    @classmethod
    def from_counts(cls, counts, smoothing_count: float = 1.0) -> "SurprisalTable":
        """h[v] = -ln((count[v] + s) / (total + s * C)) over the C content
        tokens, [UNK] included. s must be finite and > 0, so a token the
        corpus never produced still gets a finite surprisal, and a schedule;
        an s so small that such a token's probability rounds to 0 is refused.
        """
        if not 0 < smoothing_count < np.inf:
            raise ValueError(f"smoothing_count must be finite and > 0, got {smoothing_count}")
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts[NUM_SPECIALS:].sum())
        if total == 0 or (counts < 0).any():
            raise ValueError("counts must be >= 0, and some content count > 0")
        denom = total + smoothing_count * (len(counts) - NUM_SPECIALS)
        prob = (counts[NUM_SPECIALS:] + smoothing_count) / denom
        if not (prob > 0).all():
            raise ValueError(f"smoothing_count {smoothing_count} rounds a token's probability "
                             "to 0, which has no finite surprisal")
        h = np.zeros(len(counts))
        h[NUM_SPECIALS:] = -np.log(prob)
        return cls(h)


def surprisal_table(
    corpus_path: str | Path, vocab: Vocab, smoothing_count: float = 1.0
) -> SurprisalTable:
    """`SurprisalTable.from_counts` over the ids of the corpus tokenized
    under `vocab`. On the corpus `vocab` was built from, those counts are
    `vocab.counts`: a normalized line is lowercase, so it never spells a
    special token, and every out-of-vocab occurrence lands on [UNK].
    """
    counts = np.zeros(len(vocab), dtype=np.int64)
    for line in Path(corpus_path).read_text(encoding="utf-8").split("\n"):
        np.add.at(counts, tokenize(line, vocab), 1)
    return SurprisalTable.from_counts(counts, smoothing_count)
