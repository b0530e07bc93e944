import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spindle as sp
from spindle import corpus, denoiser
from spindle.corpus import CLS_ID, MASK_ID, PAD_ID, UNK_ID, normalize_line, split_line


def write(tmp_path, text):
    p = tmp_path / "c.txt"
    p.write_text(text, encoding="utf-8")
    return p


def test_build_vocab_counts(tmp_path):
    vocab = sp.build_vocab(write(tmp_path, "a b a\n"), 10)
    assert vocab.tokens[:4] == ("[MASK]", "[PAD]", "[CLS]", "[UNK]")
    content = dict(zip(vocab.tokens[4:], vocab.counts[4:]))
    assert content == {"a": 2, "b": 1}


def test_build_vocab_lowercases(tmp_path):
    vocab = sp.build_vocab(write(tmp_path, "A a\n"), 10)
    assert vocab.tokens[4:] == ("a",)
    assert vocab.counts[4:] == (2,)


def test_build_vocab_truncation_ties_lexicographic(tmp_path):
    vocab = sp.build_vocab(write(tmp_path, "a b c\n"), 5)
    assert vocab.tokens[4:] == ("a",)
    assert vocab.counts[UNK_ID] == 2  # b and c folded


@pytest.mark.parametrize("max_vocab", [5, 6, 8, 10])
def test_build_vocab_has_max_vocab_entries(tmp_path, max_vocab):
    """max_vocab counts every entry, the four reserved ids included."""
    vocab = sp.build_vocab(write(tmp_path, "a b c d e f g h i j k\n"), max_vocab)
    assert len(vocab) == max_vocab
    assert sum(vocab.counts) == 11


def test_build_vocab_errors(tmp_path):
    with pytest.raises(ValueError):
        sp.build_vocab(write(tmp_path, "\n\n"), 10)
    with pytest.raises(ValueError):
        sp.build_vocab(write(tmp_path, "a\n"), 3)
    # [UNK] alone would hold all the mass, at surprisal 0
    with pytest.raises(ValueError, match="max_vocab must be >= 5, got 4"):
        sp.build_vocab(write(tmp_path, "a b\n"), 4)


def test_special_ids():
    assert (MASK_ID, PAD_ID, CLS_ID, UNK_ID) == (0, 1, 2, 3)


def test_surprisal_matches_hand_value(tmp_path):
    """counts a 2, b 1, [UNK] 0 and s = 0.5: the total is 3 + 3 * 0.5."""
    corpus = write(tmp_path, "a b a\n")
    vocab = sp.build_vocab(corpus, 10)
    table = sp.surprisal_table(corpus, vocab, smoothing_count=0.5)
    assert table.h[vocab.ids["a"]] == pytest.approx(-math.log(2.5 / 4.5), abs=1e-12)
    assert table.h[UNK_ID] == pytest.approx(-math.log(0.5 / 4.5), abs=1e-12)  # unseen


def test_surprisal_uniform_counts_equal(tmp_path):
    corpus = write(tmp_path, "a b c d\n")
    vocab = sp.build_vocab(corpus, 10)
    table = sp.surprisal_table(corpus, vocab, 1.0)
    content_h = table.h[4:]
    assert np.allclose(content_h, content_h[0])


def test_surprisal_unseen_exceeds_seen(tmp_path):
    corpus = write(tmp_path, "a a b\n")
    vocab = sp.build_vocab(corpus, 10)
    table = sp.surprisal_table(corpus, vocab, smoothing_count=1.0)
    total, c = 3, vocab.num_content
    assert table.h[UNK_ID] == pytest.approx(-math.log(1 / (total + c)), abs=1e-12)
    assert table.h[UNK_ID] > table.h[vocab.ids["a"]]
    assert table.h[UNK_ID] > table.h[vocab.ids["b"]]


def test_smoothed_probabilities_normalize(tmp_path):
    corpus = write(tmp_path, "a b a c a b\nречь unicode\n")
    vocab = sp.build_vocab(corpus, 6)
    table = sp.surprisal_table(corpus, vocab, 0.7)
    mass = np.exp(-table.h[3:]).sum()
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_more_frequent_means_lower_surprisal(tmp_path):
    corpus = write(tmp_path, "a a a b b c\n")
    vocab = sp.build_vocab(corpus, 10)
    table = sp.surprisal_table(corpus, vocab, 1.0)
    assert table.h[vocab.ids["a"]] < table.h[vocab.ids["b"]] < table.h[vocab.ids["c"]]


def test_specials_have_zero_surprisal(tmp_path):
    corpus = write(tmp_path, "a b\n")
    vocab = sp.build_vocab(corpus, 10)
    table = sp.surprisal_table(corpus, vocab, 1.0)
    assert np.all(table.h[:3] == 0.0)


def test_vocab_build_deterministic(tmp_path):
    corpus = write(tmp_path, "x y z y x x\n")
    v1 = sp.build_vocab(corpus, 10)
    v2 = sp.build_vocab(corpus, 10)
    assert v1.to_tsv() == v2.to_tsv()


def test_vocab_tsv_round_trip(tmp_path):
    corpus = write(tmp_path, "a b a\n")
    vocab = sp.build_vocab(corpus, 10)
    path = tmp_path / "v.tsv"
    vocab.save(path)
    again = sp.Vocab.load(path, vocab.tokenizer)
    assert again == vocab
    again.save(tmp_path / "v2.tsv")
    assert (tmp_path / "v.tsv").read_bytes() == (tmp_path / "v2.tsv").read_bytes()


@pytest.mark.parametrize("smoothing", [0.5, 0.7, 1.0])
@pytest.mark.parametrize("tokenizer, max_vocab", [("word", 10), ("word", 5), ("char", 40)])
def test_surprisal_from_vocab_counts_is_the_corpus_scan(tmp_path, smoothing, tokenizer,
                                                        max_vocab):
    """The corpus scan under the vocab counts exactly vocab.counts, [UNK]'s
    folded mass included, so the table from the counts alone is bitwise
    the scan's."""
    corpus = write(tmp_path, "A b a c a b\nречь unicode [MASK] [unk]\n\n b  d\n")
    vocab = sp.build_vocab(corpus, max_vocab, tokenizer)
    scanned = sp.surprisal_table(corpus, vocab, smoothing)
    assert np.array_equal(sp.SurprisalTable.from_counts(vocab.counts, smoothing).h, scanned.h)


@pytest.mark.parametrize("counts, smoothing", [
    ((0, 0, 0, 1, 2), float("nan")),
    ((0, 0, 0, 1, 2), float("inf")),
    ((0, 0, 0, 1, 2), -0.5),
    ((0, 0, 0, 1, 2), 0.0),
    ((0, 0, 0, 0, 0), 1.0),
    ((0, 0, 0, 3, -1), 1.0),
], ids=["nan", "inf", "negative", "zero", "no-content-count", "negative-count"])
def test_surprisal_from_counts_rejects(counts, smoothing):
    with pytest.raises(ValueError):
        sp.SurprisalTable.from_counts(counts, smoothing)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
def test_surprisal_table_holds_only_finite_nonnegative_values(bad):
    """A token with no finite surprisal has no schedule, so no table holds one."""
    h = np.array([0.0, 0.0, 0.0, 1.5, 2.0])
    h[3] = bad
    with pytest.raises(ValueError, match="finite and >= 0"):
        sp.SurprisalTable(h)
    h[3:] = bad  # no content token left with a finite surprisal
    with pytest.raises(ValueError, match="finite and >= 0"):
        sp.SurprisalTable(h)


def test_tokenize_round_trip_word(tmp_path):
    corpus = write(tmp_path, "hello world again\n")
    vocab = sp.build_vocab(corpus, 10)
    ids = sp.tokenize("Hello   WORLD again", vocab)
    assert sp.detokenize(ids, vocab) == "hello world again"


def test_tokenize_oov_maps_to_unk(tmp_path):
    corpus = write(tmp_path, "hello world\n")
    vocab = sp.build_vocab(corpus, 10)
    ids = sp.tokenize("hello mars", vocab)
    assert list(ids) == [vocab.ids["hello"], UNK_ID]


def test_tokenize_empty_line(tmp_path):
    corpus = write(tmp_path, "a\n")
    vocab = sp.build_vocab(corpus, 10)
    assert sp.tokenize("   ", vocab).size == 0


def test_char_tokenizer_round_trip(tmp_path):
    corpus = write(tmp_path, "ab ba\n")
    vocab = sp.build_vocab(corpus, 20, "char")
    ids = sp.tokenize("ab  Ba", vocab)
    assert sp.detokenize(ids, vocab) == "ab ba"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=6), min_size=1, max_size=8))
def test_round_trip_property(tmp_path_factory, words):
    line = " ".join(words)
    path = tmp_path_factory.mktemp("h") / "c.txt"
    path.write_text(line + "\n", encoding="utf-8")
    vocab = sp.build_vocab(path, 4 + len(set(words)))
    assert sp.detokenize(sp.tokenize(line, vocab), vocab) == normalize_line(line)


# Text that tries the streamed reader's cuts: line ends of every kind,
# whitespace that ends no line, and capital sigmas, whose lowercase depends
# on their neighbours, next to all of them.
_TRICKY = ["\n", "\r\n", "\r", "\x85", "\u2028", "\x1c", " ", "\t", "\u03a3", "A\u03a3",
           "\u03a3\n", "\n\u03a3", "\u0130", "\u00df", "a", "b"]
_texts = st.lists(st.one_of(st.sampled_from(_TRICKY), st.characters(codec="utf-8")),
                  max_size=60).map("".join)
_derandomized = settings(derandomize=True, deadline=None, max_examples=150)


def _write_bytes(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("c") / "c.txt"
    path.write_bytes(text.encode("utf-8"))
    return path


def _line_tokens(line, tokenizer):
    """A line's tokens by their definition: the words, or the characters,
    of `normalize_line(line)`."""
    normalized = normalize_line(line)
    if tokenizer == "word":
        return normalized.split(" ") if normalized else []
    return list(normalized)


def _per_line_tokens(path, tokenizer):
    """The tokens of each line of the whole text read at once."""
    return [tok for line in path.read_text(encoding="utf-8").split("\n")
            for tok in _line_tokens(line, tokenizer)]


@_derandomized
@given(text=_texts, block_bytes=st.integers(1, 40), tokenizer=st.sampled_from(corpus.TOKENIZERS))
@example(text="\u03a3\n\u03a3\u03a3\r\nA\u03a3\rb\u03a3\x85\u03a3\u2028\n\nx\u03a3", block_bytes=1,
         tokenizer="word")
def test_streamed_tokens_are_the_per_line_tokens(tmp_path_factory, text, block_bytes, tokenizer):
    """The reader's blocks, of any size, hold the tokens of each line, in
    order, for both tokenizers, as `split_line` does line by line."""
    path = _write_bytes(tmp_path_factory, text)
    with mock.patch.object(corpus, "_BLOCK_BYTES", block_bytes):
        streamed = [tok for block in corpus._token_blocks(path, tokenizer) for tok in block]
    reference = _per_line_tokens(path, tokenizer)
    assert streamed == reference
    assert [tok for line in path.read_text(encoding="utf-8").split("\n")
            for tok in split_line(line, tokenizer)] == reference


@_derandomized
@given(text=_texts, cut=st.integers(0, 60), block_bytes=st.integers(1, 40),
       bad=st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\x85"]))
def test_text_that_is_not_utf8_fails_where_decoding_it_whole_does(tmp_path_factory, text, cut,
                                                                  block_bytes, bad):
    """Read a block at a time, a file with a bad byte sequence raises the
    error decoding the whole file raises: same position, same reason."""
    data = text[:cut].encode("utf-8") + bad + text[cut:].encode("utf-8")
    path = tmp_path_factory.mktemp("c") / "c.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    with mock.patch.object(corpus, "_BLOCK_BYTES", block_bytes), \
            pytest.raises(UnicodeDecodeError) as streamed:
        for _ in corpus._line_blocks(path):
            pass
    assert ((streamed.value.start, streamed.value.end, streamed.value.reason)
            == (whole.value.start, whole.value.end, whole.value.reason))


@_derandomized
@given(vocab_text=_texts, text=_texts, block_bytes=st.integers(1, 40),
       tokenizer=st.sampled_from(corpus.TOKENIZERS), max_vocab=st.integers(5, 12))
def test_surprisal_counts_and_ids_are_the_per_line_ones(tmp_path_factory, vocab_text, text,
                                                        block_bytes, tokenizer, max_vocab):
    """On a corpus other than the vocab's, `surprisal_table` gives the table
    of the counts a per-line `np.add.at` makes, and `tokenize` gives each
    line the ids of its tokens."""
    vocab_path = _write_bytes(tmp_path_factory, vocab_text + " a b")
    path = _write_bytes(tmp_path_factory, text)
    vocab = sp.build_vocab(vocab_path, max_vocab, tokenizer)
    counts = np.zeros(len(vocab), dtype=np.int64)
    for line in path.read_text(encoding="utf-8").split("\n"):
        ids = np.array([vocab.ids.get(tok, UNK_ID) for tok in _line_tokens(line, tokenizer)],
                       dtype=np.int64)
        np.testing.assert_array_equal(sp.tokenize(line, vocab), ids, strict=True)
        np.add.at(counts, ids, 1)
    with mock.patch.object(corpus, "_BLOCK_BYTES", block_bytes):
        if not counts.any():
            with pytest.raises(ValueError, match="some content count > 0"):
                sp.surprisal_table(path, vocab)
            return
        table = sp.surprisal_table(path, vocab, 0.5)
    np.testing.assert_array_equal(table.h, sp.SurprisalTable.from_counts(counts, 0.5).h)


@_derandomized
@given(counts=st.dictionaries(st.text(alphabet="ab\u00e9\u00df_9", min_size=1, max_size=3),
                              st.integers(1, 3), min_size=1, max_size=30),
       max_vocab=st.integers(5, 40), seed=st.integers(0, 2**16))
def test_build_vocab_ranks_by_count_then_word(tmp_path_factory, counts, max_vocab, seed):
    """With many tied counts, the vocab keeps the order of the key
    (-count, word) and folds the rest into [UNK]."""
    words = [w for w, c in counts.items() for _ in range(c)]
    np.random.default_rng(seed).shuffle(words)
    path = _write_bytes(tmp_path_factory, "\n".join(" ".join(words[i : i + 4])
                                                     for i in range(0, len(words), 4)))
    vocab = sp.build_vocab(path, max_vocab)
    ranked = sorted(Counter(words).items(), key=lambda kv: (-kv[1], kv[0]))
    keep = ranked[: max_vocab - 4]
    assert vocab.tokens[4:] == tuple(w for w, _ in keep)
    assert vocab.counts[4:] == tuple(c for _, c in keep)
    assert vocab.counts[UNK_ID] == sum(c for _, c in ranked[len(keep) :])


def _full_array_trunc_normal(rng, shape, std=0.02):
    """`_trunc_normal` as it was: each round redraws by boolean mask and
    tests the whole array again."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 3 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 3 * std
    return out


@_derandomized
@given(seed=st.integers(0, 2**32 - 1), shape=st.lists(st.integers(0, 40), max_size=3).map(tuple))
@example(seed=0, shape=(0,))
@example(seed=0, shape=(1,))
@example(seed=3, shape=(1, 1))
@example(seed=5, shape=(0, 7))
@example(seed=7, shape=(2000, 64))
def test_trunc_normal_is_the_full_array_loop(seed, shape):
    """Redrawing by flat index gives the old loop's values bit for bit, and
    leaves the generator where the old loop did."""
    rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = denoiser._trunc_normal(rng, shape)
    old = _full_array_trunc_normal(old_rng, shape)
    assert out.shape == shape and out.tobytes() == old.tobytes()
    assert rng.bit_generator.state == old_rng.bit_generator.state
