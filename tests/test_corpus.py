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
    vocab = sp.build_vocab(write(tmp_path, "a b c\n"), 4)
    assert vocab.tokens[4:] == ("a",)
    assert vocab.counts[UNK_ID] == 2  # b and c folded


def test_build_vocab_errors(tmp_path):
    with pytest.raises(ValueError):
        sp.build_vocab(write(tmp_path, "\n\n"), 10)
    with pytest.raises(ValueError):
        sp.build_vocab(write(tmp_path, "a\n"), 3)


def test_special_ids():
    assert (MASK_ID, PAD_ID, CLS_ID, UNK_ID) == (0, 1, 2, 3)


def test_surprisal_unsmoothed_matches_hand_value(tmp_path):
    corpus = write(tmp_path, "a b a\n")
    vocab = sp.build_vocab(corpus, 10)
    table = sp.surprisal_table(corpus, vocab, smoothing_count=0.0)
    a_id = vocab.ids["a"]
    assert table.h[a_id] == pytest.approx(-math.log(2 / 3), abs=1e-12)
    assert math.isinf(table.h[UNK_ID])  # unseen with s=0


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


def test_surprisal_tsv_round_trip(tmp_path):
    corpus = write(tmp_path, "a b a c\n")
    vocab = sp.build_vocab(corpus, 10)
    table = sp.surprisal_table(corpus, vocab, 0.5)
    table.save(tmp_path / "s.tsv", vocab)
    again = sp.SurprisalTable.load(tmp_path / "s.tsv", vocab)
    assert np.array_equal(again.h, table.h)


@pytest.mark.parametrize("rows", [7, 5], ids=["extra-row", "missing-row"])
def test_surprisal_load_checks_row_count(tmp_path, rows):
    """A surprisal table that does not have one row per vocab entry is
    refused at load, naming the file and both counts."""
    corpus = write(tmp_path, "a b\n")
    vocab = sp.build_vocab(corpus, 10)
    assert len(vocab) == 6
    lines = sp.surprisal_table(corpus, vocab, 1.0).to_tsv(vocab).splitlines()
    path = tmp_path / "s.tsv"
    path.write_text("".join(line + "\n" for line in (lines + ["d\t1.0"])[:rows]))
    with pytest.raises(ValueError) as exc:
        sp.SurprisalTable.load(path, vocab)
    assert str(exc.value) == f"{path}: {rows} surprisal rows for a vocab of 6 entries"


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
