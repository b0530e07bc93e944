import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spindle as sp
from spindle.corpus import CLS_ID, MASK_ID, PAD_ID, UNK_ID, normalize_line


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
