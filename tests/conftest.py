import os

# single-threaded BLAS: these models are small enough that thread fan-out
# costs more than it buys, and it keeps timings stable on shared runners
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest  # noqa: E402

import spindle as sp  # noqa: E402


@pytest.fixture(scope="session")
def word_corpus(tmp_path_factory):
    lines = [
        "the cat sat on the mat",
        "the dog sat on the rug",
        "a bird flew over the tree",
        "the cat saw the bird",
        "a dog ran under the tree",
    ]
    path = tmp_path_factory.mktemp("wcorpus") / "train.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    vocab = sp.build_vocab(path, 64, "word")
    table = sp.surprisal_table(path, vocab, 1.0)
    seqs = [sp.tokenize(s, vocab) for s in lines]
    return {"path": path, "sentences": lines, "vocab": vocab, "table": table, "seqs": seqs}
