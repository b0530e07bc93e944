"""Golden digests: the SHA-256 of every output of a tiny scripted CLI
session and of a few library calls, pinned in golden.json beside this file.

The session runs two ways, and both must give the same digests: on the
calling thread alone with the default work gate, and with the gate at 0 and
every gated call on the pool's two threads, under `thread_stress`. The first
must also give the committed digests, one test per entry, where the
platform is the one that wrote them. The session runs in a fresh directory on relative paths, so the
paths it echoes never vary. Regenerate the file, saying why in CHANGES.md,
with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as conftest.py sets it, for --write

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import spindle as sp  # noqa: E402
from spindle import _threads, cli  # noqa: E402
from spindle import denoiser as dn  # noqa: E402
from spindle.corpus import MASK_ID  # noqa: E402
from spindle.diffusion import spindle_alpha_bar_at  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py --write"

# 9 lines of 2 to 13 words: a batch of 20 runs as three length groups
CORPUS = """the cat sat on the mat
the dog sat on the rug by the door
a bird flew over the tree
the cat saw the bird and the bird saw the cat
a dog ran under the tree
a red bird sat on a red mat by the tree in the sun
the dog and the cat ran to the door and sat
a tree
the bird is in the tree by the door
"""
TRAIN = ["train", "--prep", "prep", "--corpus", "corpus.txt", "--val-corpus", "corpus.txt",
         "--val-every", "3", "--steps", "4", "--mlm-pretrain-steps", "2", "--batch-size", "20",
         "--layers", "1", "--d-model", "16", "--heads", "2", "--n-max", "16", "--T", "8",
         "--dropout", "0.1", "--lambda", "0.3", "--checkpoint-every", "3", "--log-every", "1",
         "--lr", "0.003", "--warmup", "2", "--seed", "1"]
SAMPLE = ["sample", "--prep", "prep", "--num", "5", "--length", "7", "--iterations", "8",
          "--top-k", "10", "--seed", "3"]
EVAL = ["eval", "--checkpoint", "lte/model.spnd", "--prep", "prep", "--test", "corpus.txt",
        "--num-gen", "4", "--t-samples", "2", "--iterations", "4"]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    """A checkpoint's digest is that of its header and tensors, not of its
    zip bytes, which hold write times; metrics.jsonl drops elapsed_s."""
    if path.suffix == ".spnd":
        with np.load(path) as archive:
            return _digest(b"".join(name.encode() + archive[name].tobytes()
                                    for name in sorted(archive.files)))
    return _digest(re.sub(rb'"elapsed_s": [^,}]*, ', b"", path.read_bytes()))


def _run(digests: dict[str, str], label: str, *argv: str) -> None:
    """Run one CLI command; its exit code and stdout are the entry `label`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    digests[label] = _digest(f"{rc}\n{out.getvalue()}".encode())


def _library(digests: dict[str, str]) -> None:
    """Per mode and dtype, the loss and its gradients over 70 items, so two
    windows sum into one buffer, and a frozen and a remask sample of 64
    iterations, in which a tad model skips the iterations where no chain
    changed; three float64 Adam updates; a sample of tied logits; a
    desk-shaped 8-chain tad sample. Per dtype, at a head wide enough to
    split (K 4000, d 32): a gradient call of one group per mode; for lte
    and tad, two Adam updates with its gradients, at weight decay 0.01 and
    0, and then a one-chain sample."""
    rng = np.random.default_rng(0)
    h = np.r_[0.0, 0.0, 0.0, np.linspace(0.5, 4.0, 2001)]
    seqs = [rng.integers(4, 13, size=n) for n in rng.integers(2, 16, size=70)]
    t_draws = rng.integers(1, 9, size=70)
    sched = sp.ScheduleParams(num_steps=8, lam=0.3)
    rows = [spindle_alpha_bar_at(rng.uniform(0.5, 2.0, len(x)), [t - 1, t], sched)
            for x, t in zip(seqs, t_draws)]
    for mode in dn.MODES:
        config = dn.DenoiserConfig(vocab_size=13, mode=mode, num_layers=1, d_model=16,
                                   num_heads=2, n_max=16, num_steps=64)
        params = dn.init_params(config, 5)
        params.tensors["out.w"][:] = np.random.default_rng(6).normal(0.0, 0.4, (16, 13))
        for dtype in (np.float32, np.float64):
            p = params.astype(dtype)
            scored, _ = sp.diffusion_loss_batch(p, seqs, rows, t_draws, 8, train=False)
            bound, grads = sp.diffusion_loss_batch(p, seqs, rows, t_draws, 7)
            mlm, mlm_grads = sp.mlm_pretrain_step(p, seqs[:20], 0.3, 9)
            blob = repr([scored, bound, mlm]).encode() + b"".join(
                g[k].tobytes() for g in (grads, mlm_grads) for k in sorted(g))
            digests[f"loss {mode} {np.dtype(dtype)}"] = _digest(blob)
            for remask in (False, True):
                res = sp.generate_batch(p, sp.ScheduleParams(64, 0.3),
                                        sp.SampleConfig(7, 64, top_k=6, remask=remask),
                                        sp.SurprisalTable(h[:13]), 5, 11)
                digests[f"sample {mode} {np.dtype(dtype)} remask={remask}"] = _digest(
                    res.sequences.tobytes() + res.reveal_iteration.tobytes())

    params = dn.init_params(config, 9)  # float64
    state = sp.AdamState.zeros(params)
    for step in range(1, 4):
        grads = {k: rng.normal(0, 1, x.shape) for k, x in params.tensors.items()}
        sp.adam_step(params, grads, state, sp.TrainConfig(weight_decay=0.01), step)
    digests["adam float64"] = _digest(b"".join(
        t[k].tobytes() for t in (params.tensors, state.m, state.v) for k in sorted(t)))

    tied = dn.init_params(dn.DenoiserConfig(vocab_size=40, mode="pte", num_layers=1,
                                            d_model=16, num_heads=2), 3)  # a zero head
    desk = dn.init_params(dn.DenoiserConfig(vocab_size=2004), 3).astype(np.float32)
    desk.tensors["out.w"][:] = np.random.default_rng(4).normal(0.0, 0.1, (128, 2004))
    for name, params, num, cfg in (
            ("sample all-tied", tied, 4, sp.SampleConfig(9, 8, top_k=30, remask=True)),
            ("sample desk tad", desk, 8, sp.SampleConfig(48, 2, top_k=30))):
        res = sp.generate_batch(params, sp.ScheduleParams(64, 0.3), cfg,
                                sp.SurprisalTable(h[: params.config.vocab_size]), num, 5)
        digests[name] = _digest(res.sequences.tobytes() + res.reveal_iteration.tobytes())

    rng = np.random.default_rng(10)
    wide = dn.init_params(dn.DenoiserConfig(vocab_size=4000, mode="lte", num_layers=1, d_model=32,
                                            num_heads=2, n_max=48, num_steps=8), 7)
    wide.tensors["out.w"][:] = rng.normal(0.0, 0.2, (32, 4000))
    lines = [rng.integers(4, 4000, size=n) for n in rng.integers(30, 48, size=8)]
    t_draws = rng.integers(1, 9, size=8)
    sched = sp.ScheduleParams(num_steps=8, lam=0.3)
    rows = [spindle_alpha_bar_at(rng.uniform(0.5, 2.0, len(x)), [t - 1, t], sched)
            for x, t in zip(lines, t_draws)]
    wide_h = np.r_[0.0, 0.0, 0.0, np.linspace(0.5, 4.0, 3997)]
    for dtype in (np.float32, np.float64):
        p = wide.astype(dtype)
        bound, grads = sp.diffusion_loss_batch(p, lines, rows, t_draws, 12)
        digests[f"loss wide {np.dtype(dtype)}"] = _digest(repr(bound).encode() + b"".join(
            grads[k].tobytes() for k in sorted(grads)))
        state = sp.AdamState.zeros(p)
        for step in (1, 2):
            sp.adam_step(p, grads, state, sp.TrainConfig(weight_decay=0.01), step)
        digests[f"adam wide {np.dtype(dtype)}"] = _digest(b"".join(
            t[k].tobytes() for t in (p.tensors, state.m, state.v) for k in sorted(t)))
        res = sp.generate_batch(p, sched, sp.SampleConfig(48, 8, top_k=20),
                                sp.SurprisalTable(wide_h), 1, 13)
        digests[f"sample wide {np.dtype(dtype)}"] = _digest(res.sequences.tobytes()
                                                            + res.reveal_iteration.tobytes())
    for mode in ("tad", "pte"):  # after the lte entries, so that none of theirs moves
        model = dn.init_params(dataclasses.replace(wide.config, mode=mode), 7)
        model.tensors["out.w"][:] = wide.tensors["out.w"]
        for dtype in (np.float32, np.float64):
            p = model.astype(dtype)
            bound, grads = sp.diffusion_loss_batch(p, lines, rows, t_draws, 12)
            digests[f"loss wide {mode} {np.dtype(dtype)}"] = _digest(
                repr(bound).encode() + b"".join(grads[k].tobytes() for k in sorted(grads)))
            if mode == "pte":
                continue
            state = sp.AdamState.zeros(p)
            for step in (1, 2):
                sp.adam_step(p, grads, state, sp.TrainConfig(weight_decay=0.0), step)
            digests[f"adam wide {mode} decay=0 {np.dtype(dtype)}"] = _digest(b"".join(
                t[k].tobytes() for t in (p.tensors, state.m, state.v) for k in sorted(t)))
            res = sp.generate_batch(p, sched, sp.SampleConfig(48, 8, top_k=20),
                                    sp.SurprisalTable(wide_h), 1, 13)
            digests[f"sample wide {mode} {np.dtype(dtype)}"] = _digest(
                res.sequences.tobytes() + res.reveal_iteration.tobytes())


def session() -> dict[str, str]:
    """Each entry's digest, from a session run in the current directory."""
    digests: dict[str, str] = {}
    Path("corpus.txt").write_text(CORPUS, encoding="utf-8")
    _run(digests, "$ prepare", "prepare", "--corpus", "corpus.txt", "--vocab-size", "40",
         "--out", "prep")
    for mode in dn.MODES:
        _run(digests, f"$ train {mode}", *TRAIN, "--time-mode", mode, "--out", mode)
        _run(digests, f"$ sample {mode}", *SAMPLE, "--checkpoint", f"{mode}/model.spnd",
             "--out", f"{mode}.txt")
    _run(digests, "$ train resumed", *TRAIN, "--resume", "tad/checkpoint_0000003.spnd",
         "--out", "resumed")
    _run(digests, "$ sample remask", *SAMPLE, "--checkpoint", "tad/model.spnd", "--remask",
         "--out", "remask.txt", "--trajectory", "remask.jsonl")
    _run(digests, "$ eval", *EVAL, "--out", "report.json")
    _run(digests, "$ eval sweep", *EVAL, "--sweep", "sweep.csv")
    _run(digests, "$ schedule", "schedule", "--prep", "prep", "--text", "the red bird sat",
         "--T", "8", "--out", "schedule.csv")
    for path in sorted(Path().rglob("*")):
        if path.is_file():
            digests[path.as_posix()] = _file_digest(path)
    _library(digests)
    return digests


def platform_record() -> dict:
    """What float results depend on besides the code: numpy and the SIMD targets
    it dispatches to here, its BLAS and the core it picked, and the machine."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    core = None  # where numpy's wheel bundles no scipy-openblas
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        get = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            core = get().decode()
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath  # numpy 2.x, 1.x
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "numpy_simd": " ".join(simd), "blas_core": core,
            "blas": f"{blas.get('name')} {blas.get('version')}", "machine": platform.machine()}


def moved(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """The entries whose digests differ, or that only one side has."""
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


def _one_thread() -> dict[str, str]:
    """The session's digests on the calling thread alone, with the default gate."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(_threads, "_threaded", lambda _: False)
        mp.chdir(tmp)
        return session()


@pytest.fixture(scope="module")
def one_thread():
    return _one_thread()


# read at collection, one test per entry; empty before the first --write
COMMITTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"digests": {}}


@pytest.fixture(scope="module")
def committed():
    """The committed digests, where this platform is the one that wrote them."""
    here = platform_record()
    if COMMITTED.get("platform") != here:
        pytest.skip(f"digests written on {COMMITTED.get('platform')}, this is {here}")
    return COMMITTED["digests"]


@pytest.mark.parametrize("entry", sorted(COMMITTED["digests"]))
def test_the_session_gives_the_committed_digest(entry, committed, one_thread):
    assert one_thread.get(entry) == committed[entry], (
        f"moved: {entry!r}; if the change means to move it, regenerate with `{REGENERATE}` "
        f"and say why in CHANGES.md")


def test_the_session_gives_no_entry_the_file_lacks(committed, one_thread):
    new = sorted(one_thread.keys() - committed.keys())
    assert not new, f"not in {GOLDEN.name}: {new}; regenerate with `{REGENERATE}`"


def test_the_session_is_the_same_on_two_threads_under_stress(one_thread, force_threads,
                                                            thread_stress, monkeypatch, tmp_path):
    """The gate at 0 splits every sampler prediction of two or more chains
    and sends every call of the loss core on more than one group to the
    pool. Outside those calls' blocks, the head's column halves where
    `_head_cut` admits them, each backward's weight gradient and, with
    _ADAM_SPLIT at 1, every Adam update use the pool too, each call at the
    wide head (K 4000) as often as its shapes say. Each prediction
    is on a whole batch, the one its iteration draws from, and a tad model
    skips some iterations. The resumed run ends where the one it resumed
    does."""
    pool, submitted = _threads._thread_pool, []
    predict, draw, events = sp.sampling._predict, sp.sampling._draw_top_k, []
    # each hand-over's caller: the function that called a block's hand_over
    monkeypatch.setattr(_threads, "_thread_pool",
                        lambda: submitted.append(sys._getframe(3).f_code.co_name) or pool())
    forward, masked = dn.forward, []  # the [MASK] rows of each forward
    monkeypatch.setattr(dn, "forward", lambda params, xt, *a, **kw:
                        masked.append(int((xt == MASK_ID).sum())) or forward(params, xt, *a, **kw))
    wide = []  # (function, pool uses, forwards of 16 or more [MASK] rows) of each K 4000 call

    def counting(fn):
        def call(params, *args, **kwargs):
            uses, forwards = len(submitted), len(masked)
            out = fn(params, *args, **kwargs)
            if params.config.vocab_size == 4000:
                wide.append((fn.__name__, len(submitted) - uses,
                             sum(rows >= 16 for rows in masked[forwards:])))
            return out
        return call

    for name in ("diffusion_loss_batch", "adam_step", "generate_batch"):
        monkeypatch.setattr(sp, name, counting(getattr(sp, name)))
    monkeypatch.setattr(sp.sampling, "_predict",
                        lambda params, x, *a: events.append(("predict", len(x)))
                        or predict(params, x, *a))
    monkeypatch.setattr(sp.sampling, "_draw_top_k",
                        lambda kept, probs, masked, rng: events.append(("draw", len(masked)))
                        or draw(kept, probs, masked, rng))
    monkeypatch.setattr(_threads, "_MIN_THREADED_WORK", 0)
    monkeypatch.setattr(sp.training, "_ADAM_SPLIT", 1)
    force_threads(True)
    monkeypatch.chdir(tmp_path)
    two = session()
    changed = moved(one_thread, two)
    assert not changed, f"moved on two threads: {changed}"
    assert len(submitted) > 200
    assert {"_split_head", "backward", "adam_step", "_masked_ce", "score",
            "_predict"} <= set(submitted)
    pairs = list(zip(events, events[1:]))
    assert all(after == ("draw", n) for (kind, n), after in pairs if kind == "predict")
    assert any(before[0] == after[0] == "draw" for before, after in pairs)  # a skip
    assert two["resumed/model.spnd"] == two["tad/model.spnd"]
    # at K 4000 a one-group gradient call hands over its head's first column
    # half and its weight gradient, an Adam update its first list's scan and
    # update, and a one-chain sample each head of 16 or more rows' first half
    calls = {name: [(uses, heads) for fn, uses, heads in wide if fn == name]
             for name in ("diffusion_loss_batch", "adam_step", "generate_batch")}
    assert [uses for uses, _ in calls["diffusion_loss_batch"]] == [2] * 6
    assert [uses for uses, _ in calls["adam_step"]] == [2] * 8
    assert len(calls["generate_batch"]) == 4
    assert all(uses == heads >= 2 for uses, heads in calls["generate_batch"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    GOLDEN.write_text(json.dumps({"platform": platform_record(), "digests": _one_thread()},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
