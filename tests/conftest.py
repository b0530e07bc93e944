import json
import os
import struct

# single-threaded BLAS: these models are small enough that thread fan-out
# costs more than it buys, and it keeps timings stable on shared runners
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import spindle as sp  # noqa: E402
from spindle import denoiser as dn  # noqa: E402


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


def _corrupt_checkpoint(src, dst, kind):
    """Write a damaged copy of checkpoint src to dst and return dst:
    "truncated" keeps 7 bytes, "cut_record" drops the last 3, "missing_key"
    removes "mode" from the header, "nan_weight" sets all of out.w to NaN and
    "inf_opt" sets one entry of the first opt.* record to inf.
    """
    raw = src.read_bytes()
    if kind == "truncated":
        dst.write_bytes(raw[:7])
    elif kind == "cut_record":
        dst.write_bytes(raw[:-3])
    elif kind == "missing_key":
        off = len(dn.CHECKPOINT_MAGIC)
        (size,) = struct.unpack_from("<I", raw, off)
        header = json.loads(raw[off + 4 : off + 4 + size])
        del header["mode"]
        body = json.dumps(header).encode("utf-8")
        dst.write_bytes(raw[:off] + struct.pack("<I", len(body)) + body + raw[off + 4 + size :])
    else:
        ckpt = dn.load_checkpoint(src)
        if kind == "nan_weight":
            ckpt.params.tensors["out.w"][...] = np.nan
        else:
            next(iter(ckpt.extra_tensors.values())).flat[0] = np.inf
        dn.save_checkpoint(dst, ckpt.params, lam=ckpt.lam, vocab_hash=ckpt.vocab_hash,
                           step=ckpt.step, extra_tensors=ckpt.extra_tensors)
    return dst


@pytest.fixture()
def corrupt_checkpoint():
    return _corrupt_checkpoint
