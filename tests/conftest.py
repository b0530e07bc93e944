import json
import os
import sys
import time

# one BLAS thread, as in the benchmark, keeps test timings stable on shared
# runners. The loss core and the sampler pin BLAS to one thread themselves
# while they run tasks on two threads: on a 2-core box a desk-shaped forward-only
# loss call took 268 ms serially, 234 ms on two BLAS threads, 183 ms on two
# Python threads and 433 ms on both
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import spindle as sp  # noqa: E402
from spindle import _threads, denoiser  # noqa: E402


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
    removes "mode" from the header, "nan_weight" sets all of out.w to NaN,
    "misshapen" drops the last entry of out.b, "inf_opt" sets one entry of
    the first opt.* record to inf and "version1" writes a file that starts
    like the retired SPND1 record format. A kind "<key>=<json>", such as
    'lambda="x"', sets that header value; "<n>" in the JSON stands for the
    file's record count.
    """
    raw = src.read_bytes()
    if kind == "truncated":
        dst.write_bytes(raw[:7])
    elif kind == "cut_record":
        dst.write_bytes(raw[:-3])
    elif kind == "version1":
        dst.write_bytes(b"SPND1" + b"\x00" * 64)
    else:
        # written with np.savez, past save_checkpoint, which refuses
        # non-finite tensors
        with np.load(src) as archive:
            members = {name: archive[name] for name in archive.files}
        if kind == "missing_key" or "=" in kind:
            header = json.loads(members["[header]"].tobytes())
            if kind == "missing_key":
                del header["mode"]
            else:
                key, _, value = kind.partition("=")
                header[key] = json.loads(value.replace("<n>", str(header["records"])))
            members["[header]"] = np.frombuffer(json.dumps(header).encode("utf-8"),
                                                dtype=np.uint8)
        elif kind == "nan_weight":
            members["out.w"][...] = np.nan
        elif kind == "misshapen":
            members["out.b"] = members["out.b"][:-1]
        else:
            members[next(name for name in members if name.startswith("opt."))].flat[0] = np.inf
        with open(dst, "wb") as fh:
            np.savez(fh, **members)
    return dst


# header values of the wrong type or out of range, as _corrupt_checkpoint kinds
BAD_HEADER_KINDS = ('lambda="x"', "lambda=-1", 'num_steps="4"', "num_steps=0",
                    "num_heads=2.0", 'step="5"', "step=2.5", "step=-1", "vocab_hash=7",
                    "version=3.0", 'version="3"', "records=<n>.0")


@pytest.fixture()
def corrupt_checkpoint():
    return _corrupt_checkpoint


@pytest.fixture()
def force_threads(monkeypatch):
    """force_threads(True) or force_threads(False) makes the shared gate
    `_threads._threaded` answer that for every call that asks it, whatever
    the work; force_threads(fn) answers fn(work) instead."""
    def force(answer):
        monkeypatch.setattr(_threads, "_threaded",
                            answer if callable(answer) else lambda _: answer)
    return force


@pytest.fixture()
def thread_stress(monkeypatch):
    """The interpreter switches threads every microsecond, and each
    `denoiser.backward` starts 10 ms late, longer than a test-sized
    forward, so a calling thread reaches each hand-over while the previous
    backward still runs."""
    backward = denoiser.backward
    monkeypatch.setattr(denoiser, "backward", lambda *args: time.sleep(0.01) or backward(*args))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)
