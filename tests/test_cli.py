import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import os
import resource
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import BAD_HEADER_KINDS, _corrupt_checkpoint
from hypothesis import given, settings, strategies as st

import spindle as sp
from spindle import cli, oracle
from spindle.verify import CheckResult


CORPUS = "the cat sat on the mat\nthe dog sat on the rug\na bird flew over the tree\n"


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS, encoding="utf-8")
    return path


@pytest.fixture()
def prep_dir(tmp_path, corpus_file):
    out = tmp_path / "prep"
    rc = cli.main(["prepare", "--corpus", str(corpus_file), "--vocab-size", "64",
                   "--out", str(out)])
    assert rc == 0
    return out


# the model and batch of every tiny training run
TINY = ["--batch-size", "4", "--layers", "1", "--d-model", "16", "--heads", "2", "--n-max",
        "16", "--T", "8", "--seed", "1"]


def train_tiny(tmp_path, corpus_file, prep_dir, out_name="run", extra=()):
    out = tmp_path / out_name
    rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir), "--out",
                   str(out), "--steps", "12", "--log-every", "4", *TINY, *extra])
    assert rc == 0
    return out


def test_prepare_outputs_and_idempotence(tmp_path, corpus_file):
    out = tmp_path / "prep"
    assert cli.main(["prepare", "--corpus", str(corpus_file), "--vocab-size", "64",
                     "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(first) == {"vocab.tsv", "stats.json"}
    vocab_lines = first["vocab.tsv"].decode().splitlines()
    assert vocab_lines[0].startswith("[MASK]\t")
    assert cli.main(["prepare", "--corpus", str(corpus_file), "--vocab-size", "64",
                     "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second  # byte-identical rerun
    stats = json.loads(first["stats.json"])
    assert stats["format_version"] == 1 and "config" in stats


def test_prepare_vocab_too_small(tmp_path, corpus_file, capsys):
    """Four entries leave [UNK] the only content token, of surprisal 0."""
    rc = cli.main(["prepare", "--corpus", str(corpus_file), "--vocab-size", "4",
                   "--out", str(tmp_path / "p")])
    assert rc == 2
    assert "error: --vocab-size must be >= 5, got 4" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_prepare_empty_corpus_is_usage_error(tmp_path, capsys):
    """A corpus without a token exits 2 naming it, and --out is not made."""
    corpus = tmp_path / "empty.txt"
    corpus.write_text("\n  \n", encoding="utf-8")
    out = tmp_path / "p"
    capsys.readouterr()
    rc = cli.main(["prepare", "--corpus", str(corpus), "--vocab-size", "10", "--out", str(out)])
    assert rc == 2
    assert f"error: corpus {corpus} contains no tokens" in capsys.readouterr().err
    assert not out.exists()


def test_train_writes_artifacts(tmp_path, corpus_file, prep_dir):
    out = train_tiny(tmp_path, corpus_file, prep_dir)
    assert (out / "model.spnd").exists()
    assert (out / "config.json").exists()
    metrics = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert metrics and {"step", "loss_total", "l_t_kl", "l0", "lr", "elapsed_s"} <= set(metrics[0])
    assert "lT" not in metrics[0]
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["config"]["steps"] == 12


def test_train_lambda_zero_and_mlm(tmp_path, corpus_file, prep_dir):
    out = train_tiny(tmp_path, corpus_file, prep_dir, "run0",
                     ["--lambda", "0", "--mlm-pretrain-steps", "6"])
    metrics = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert any(m["phase"] == "mlm" for m in metrics)
    assert any(m["phase"] == "diffusion" for m in metrics)
    # a mask rate of 1 masks every token, as mlm_pretrain_step allows
    train_tiny(tmp_path, corpus_file, prep_dir, "run1",
               ["--mlm-mask-rate", "1", "--mlm-pretrain-steps", "1"])


def test_train_config_file_and_flag_override(tmp_path, corpus_file, prep_dir):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"steps": 4, "d_model": 16, "layers": 1, "heads": 2,
                                    "T": 8, "batch_size": 4, "n_max": 16}))
    out = tmp_path / "cfgrun"
    rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                   "--out", str(out), "--config", str(cfg_path), "--steps", "6",
                   "--log-every", "2", "--seed", "0"])
    assert rc == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["config"]["steps"] == 6  # flag beats file
    assert resolved["config"]["d_model"] == 16
    # resolved config round-trips: feeding it back reproduces the same resolution
    rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                   "--out", str(tmp_path / "cfgrun2"), "--config", str(out / "config.json"),
                   "--seed", "0"])
    assert rc == 0
    resolved2 = json.loads((tmp_path / "cfgrun2" / "config.json").read_text())
    assert resolved2["config"] == resolved["config"]


def test_train_resume_matches_uninterrupted(tmp_path, corpus_file, prep_dir):
    full = train_tiny(tmp_path, corpus_file, prep_dir, "full", ["--checkpoint-every", "6"])
    part = train_tiny(tmp_path, corpus_file, prep_dir, "part",
                      ["--checkpoint-every", "6", "--steps", "6"])
    resumed = train_tiny(tmp_path, corpus_file, prep_dir, "resumed",
                         ["--checkpoint-every", "6",
                          "--resume", str(part / "checkpoint_0000006.spnd")])
    full_m = {m["step"]: m for m in map(json.loads, (full / "metrics.jsonl").read_text().splitlines())}
    res_m = {m["step"]: m for m in map(json.loads, (resumed / "metrics.jsonl").read_text().splitlines())}
    for step in (8, 12):
        assert full_m[step]["loss_total"] == res_m[step]["loss_total"]


def test_train_resume_keeps_checkpoint_lambda(tmp_path, corpus_file, prep_dir):
    """Without --lambda a resume trains on, saves and records the
    checkpoint's lambda, not the 0.3 default."""
    from spindle.denoiser import load_checkpoint

    part = train_tiny(tmp_path, corpus_file, prep_dir, "part",
                      ["--lambda", "0.5", "--checkpoint-every", "6", "--steps", "6"])
    resumed = train_tiny(tmp_path, corpus_file, prep_dir, "resumed",
                         ["--resume", str(part / "checkpoint_0000006.spnd")])
    assert load_checkpoint(resumed / "model.spnd").lam == 0.5
    assert json.loads((resumed / "config.json").read_text())["config"]["lam"] == 0.5


@pytest.mark.parametrize("flag, message", [
    (["--lambda", "0.5"], "--lambda 0.5"),
    (["--time-mode", "lte"], "--time-mode lte"),
    (["--T", "16"], "--T 16"),
    (["--layers", "2"], "--layers 2"),
    (["--d-model", "32"], "--d-model 32"),
    (["--heads", "4"], "--heads 4"),
    (["--n-max", "32"], "--n-max 32"),
    (["--dropout", "0.2"], "--dropout 0.2"),
    (["--config", "cfg.json"], "--lambda 0.5"),
])
def test_train_resume_rejects_contradicting_setting(tmp_path, corpus_file, prep_dir, capsys,
                                                    flag, message):
    """A flag or config file that asks for another lambda, time mode, T or
    model shape than the checkpoint's is a usage error."""
    (tmp_path / "cfg.json").write_text(json.dumps({"lam": 0.5}))
    part = train_tiny(tmp_path, corpus_file, prep_dir, "part",
                      ["--checkpoint-every", "6", "--steps", "6"])
    capsys.readouterr()
    rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                   "--out", str(tmp_path / "x"), "--steps", "8",
                   "--resume", str(part / "checkpoint_0000006.spnd"),
                   flag[0], str(tmp_path / flag[1]) if flag[0] == "--config" else flag[1]])
    assert rc == 2
    assert f"{message} contradicts the checkpoint's" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["sample", "eval", "train"])
def test_a_checkpoint_of_another_vocab_exits_2_naming_both_paths(tmp_path, corpus_file,
                                                                 prep_dir, capsys, command):
    """sample, eval and train --resume refuse a checkpoint trained on another
    vocab than the prep directory's: exit 2, one message naming the
    checkpoint and the prep directory, and no file or directory written."""
    run = train_tiny(tmp_path, corpus_file, prep_dir, extra=["--checkpoint-every", "6"])
    other_corpus = tmp_path / "other.txt"
    other_corpus.write_text("red fish swim in blue water\n", encoding="utf-8")
    other = tmp_path / "other"
    assert cli.main(["prepare", "--corpus", str(other_corpus), "--vocab-size", "64",
                     "--out", str(other)]) == 0
    ckpt = run / ("checkpoint_0000006.spnd" if command == "train" else "model.spnd")
    out = tmp_path / "out" / "result"
    argv = {"sample": ["--checkpoint", str(ckpt), "--num", "1", "--length", "4",
                       "--iterations", "4", "--out", str(out)],
            "eval": ["--checkpoint", str(ckpt), "--test", str(corpus_file), "--out", str(out)],
            "train": ["--resume", str(ckpt), "--corpus", str(corpus_file), "--out", str(out)]}
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = cli.main([command, *argv[command], "--prep", str(other)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: vocab hash mismatch: checkpoint {ckpt} was trained on another "
                   f"vocab than prep directory {other}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_train_resume_needs_optimizer_state(tmp_path, corpus_file, prep_dir, capsys):
    """model.spnd carries no Adam state, so resuming from it would silently
    restart the optimizer; the CLI refuses and names the files that work."""
    run = train_tiny(tmp_path, corpus_file, prep_dir)
    capsys.readouterr()
    rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                   "--out", str(tmp_path / "x"), "--resume", str(run / "model.spnd"),
                   "--T", "8", "--steps", "14"])
    assert rc == 2
    assert "no optimizer state" in capsys.readouterr().err


def test_train_resume_rejects_bad_optimizer_state(tmp_path, corpus_file, prep_dir, capsys):
    """A checkpoint whose Adam records do not cover every parameter is a
    damaged file: the resume stops with exit 3 instead of restarting part of
    the optimizer."""
    part = train_tiny(tmp_path, corpus_file, prep_dir, "part", ["--checkpoint-every", "6"])
    ckpt = sp.load_checkpoint(part / "checkpoint_0000006.spnd", dtype=np.float32)
    del ckpt.extra_tensors["opt.v.tok_emb"]
    bad = tmp_path / "bad.spnd"
    sp.save_checkpoint(bad, ckpt.params, lam=ckpt.lam, vocab_hash=ckpt.vocab_hash,
                       step=ckpt.step, extra_tensors=ckpt.extra_tensors)
    capsys.readouterr()
    rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                   "--out", str(tmp_path / "x"), "--resume", str(bad), "--steps", "12"])
    assert rc == 3
    assert "opt.v.tok_emb" in capsys.readouterr().err


def test_train_resume_rejects_bad_header_values(tmp_path, corpus_file, prep_dir,
                                                corrupt_checkpoint, capsys):
    """A header value of the wrong type or out of range is a damaged
    checkpoint, named as such: not a traceback, and not a flag nobody gave."""
    part = train_tiny(tmp_path, corpus_file, prep_dir, "part", ["--checkpoint-every", "6"])
    for n, kind in enumerate(BAD_HEADER_KINDS):
        bad = corrupt_checkpoint(part / "checkpoint_0000006.spnd", tmp_path / f"{n}.spnd", kind)
        capsys.readouterr()
        rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                       "--out", str(tmp_path / "x"), "--resume", str(bad), "--steps", "12"])
        err = capsys.readouterr().err
        assert rc == 3, kind
        assert err.startswith(f"runtime failure: {bad}: ") and "Traceback" not in err, kind


def test_sample_deterministic_and_mask_free(tmp_path, corpus_file, prep_dir):
    run = train_tiny(tmp_path, corpus_file, prep_dir)
    args = ["sample", "--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
            "--num", "3", "--length", "5", "--iterations", "4", "--top-k", "5",
            "--seed", "7", "--out", str(tmp_path / "s1.txt"),
            "--trajectory", str(tmp_path / "t1.jsonl")]
    assert cli.main(args) == 0
    args2 = list(args)
    args2[args.index(str(tmp_path / "s1.txt"))] = str(tmp_path / "s2.txt")
    args2[args.index(str(tmp_path / "t1.jsonl"))] = str(tmp_path / "t2.jsonl")
    assert cli.main(args2) == 0
    assert (tmp_path / "s1.txt").read_bytes() == (tmp_path / "s2.txt").read_bytes()
    lines = (tmp_path / "s1.txt").read_text().splitlines()
    assert len(lines) == 3
    assert all("[MASK]" not in l and "[PAD]" not in l for l in lines)
    traj = [json.loads(l) for l in (tmp_path / "t1.jsonl").read_text().splitlines()]
    assert traj[0]["iteration"] == 0
    assert traj[0]["text_with_masks"].split() == ["[MASK]"] * 5
    assert json.loads((tmp_path / "s1.txt.meta.json").read_text())["format_version"] == 1


def test_sample_rejects_corrupt_checkpoint(tmp_path, corpus_file, prep_dir,
                                          corrupt_checkpoint, capsys):
    run = train_tiny(tmp_path, corpus_file, prep_dir)
    for n, kind in enumerate(("truncated", "missing_key", "nan_weight", "version1",
                              *BAD_HEADER_KINDS)):
        bad = corrupt_checkpoint(run / "model.spnd", tmp_path / f"{n}.spnd", kind)
        capsys.readouterr()
        rc = cli.main(["sample", "--checkpoint", str(bad), "--prep", str(prep_dir),
                       "--num", "1", "--length", "4", "--iterations", "4",
                       "--out", str(tmp_path / "s.txt")])
        err = capsys.readouterr().err
        assert rc == 3, kind
        assert str(bad) in err and "Traceback" not in err, kind


def test_sample_runtime_fault_exits_3(tmp_path, corpus_file, prep_dir, monkeypatch, capsys):
    """Valid flags and a fault inside generation (NaN logits) is a runtime
    failure, not a usage error."""
    from spindle import denoiser as dn

    run = train_tiny(tmp_path, corpus_file, prep_dir)
    real_forward = dn.forward

    def nan_forward(*args, **kwargs):
        logits, cache = real_forward(*args, **kwargs)
        return np.full_like(logits, np.nan), cache

    monkeypatch.setattr(dn, "forward", nan_forward)
    rc = cli.main(["sample", "--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                   "--num", "1", "--length", "5", "--iterations", "4",
                   "--out", str(tmp_path / "s.txt")])
    assert rc == 3
    assert "runtime failure: denoiser logits contain NaN" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, message", [
    ("sample", ["--num", "1000000000000000", "--length", "5"], "Unable to allocate"),
    ("eval", ["--num-gen", "1000000000000000"], "Unable to allocate"),
    ("eval", ["--t-samples", str(10**23)], "Maximum allowed dimension exceeded"),
    ("train", ["--batch-size", "1000000000000"], "Unable to allocate"),
], ids=["sample-num", "eval-num-gen", "eval-t-samples", "train-batch-size"])
def test_a_size_beyond_memory_exits_3_with_a_message(tmp_path, cli_files, capsys, command, flags,
                                                       message):
    """A sample or generation count, a count of t draws or a batch whose arrays cannot be
    allocated exits 3 at once with numpy's message and no traceback: numpy refuses each
    before it allocates anything, so no work runs first, and no model is written."""
    out, corpus, prep = tmp_path / "out", str(cli_files["corpus"]), str(cli_files["prep"])
    model = ["--checkpoint", str(cli_files["model"]), "--iterations", "4"]
    argv = {"train": ["--corpus", corpus, "--steps", "2", *TINY], "sample": model,
            "eval": [*model, "--test", corpus]}[command]
    capsys.readouterr()
    assert cli.main([command, "--prep", prep, "--out", str(out), *argv, *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {message}") and err.count("\n") == 1
    assert not (out / "model.spnd").exists() and (command == "train" or not out.exists())


def test_eval_report_schema(tmp_path, corpus_file, prep_dir):
    run = train_tiny(tmp_path, corpus_file, prep_dir)
    report_path = tmp_path / "report.json"
    rc = cli.main(["eval", "--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                   "--test", str(corpus_file), "--num-gen", "4", "--iterations", "4",
                   "--t-samples", "2", "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["ppl_proxy"] >= 1.0
    assert 0.0 <= report["bleu4"] <= 1.0 and 0.0 <= report["self_bleu4"] <= 1.0
    assert report["num_samples"] == 4
    assert report["format_version"] == 1 and "config" in report


def test_eval_sweep_csv(tmp_path, corpus_file, prep_dir):
    run = train_tiny(tmp_path, corpus_file, prep_dir)
    sweep_path = tmp_path / "sweep.csv"
    rc = cli.main(["eval", "--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                   "--test", str(corpus_file), "--num-gen", "4", "--iterations", "4",
                   "--sweep", str(sweep_path)])
    assert rc == 0
    lines = sweep_path.read_text().splitlines()
    assert lines[0].startswith("# format_version=1")
    assert lines[1] == "k,temperature,bleu4,self_bleu4"
    assert len(lines) == 2 + 10  # one row per grid point


@pytest.mark.parametrize("command, flag", [
    ("eval", "--out"), ("eval", "--sweep"), ("sample", "--trajectory"), ("schedule", "--out"),
], ids=["eval-out", "eval-sweep", "sample-trajectory", "schedule-out"])
def test_output_parent_is_created_before_the_work(tmp_path, corpus_file, prep_dir, monkeypatch,
                                                  command, flag):
    """An output path in a directory that does not exist yet gets its
    directory before the ELBO pass, the sweep, the generation or the
    schedule curves run."""
    target = tmp_path / "nodir" / "deeper" / "file.out"
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            seen.append(target.parent.is_dir())
            return fn(*args, **kwargs)
        return wrapped

    for name in ("elbo_eval", "quality_diversity_sweep", "generate_batch", "spindle_alpha_bar_at"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    if command == "schedule":
        argv = ["schedule", "--prep", str(prep_dir), "--text", "the cat sat"]
    else:
        run = train_tiny(tmp_path, corpus_file, prep_dir)
        argv = [command, "--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                "--iterations", "4"]
    if command == "eval":
        argv += ["--test", str(corpus_file), "--num-gen", "2", "--t-samples", "1"]
    elif command == "sample":
        argv += ["--num", "2", "--length", "4", "--out", str(tmp_path / "s.txt")]
    assert cli.main([*argv, flag, str(target)]) == 0
    assert target.is_file() and target.stat().st_size > 0
    assert seen and all(seen)


@pytest.mark.parametrize("flags, missing", [
    (["--val-corpus", "VAL"], "--val-every"),
    (["--val-every", "2"], "--val-corpus"),
], ids=["corpus-only", "every-only"])
def test_half_set_validation_is_usage_error(tmp_path, corpus_file, prep_dir, capsys,
                                            flags, missing):
    """Validation needs both a corpus and an interval: either one alone
    exits 2 naming the other, and nothing is written."""
    out = tmp_path / "out"
    flags = [str(corpus_file) if f == "VAL" else f for f in flags]
    capsys.readouterr()
    rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                   "--out", str(out), "--steps", "2", *TINY, *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--iterations", "3"], "--iterations must divide T=8, got 3"),
    (["--length", "0"], "--length must be >= 1, got 0"),
    (["--num-gen", "1"], "--num-gen must be >= 2 for self-BLEU, got 1"),
    (["--t-samples", "0"], "--t-samples must be >= 1, got 0"),
], ids=["iterations", "length", "num-gen", "t-samples"])
@pytest.mark.parametrize("sweep", [False, True])
def test_eval_checks_sampling_flags_first(tmp_path, corpus_file, prep_dir, monkeypatch,
                                          capsys, sweep, flags, message):
    """Iterations that do not divide T, a zero length, fewer than two
    generated samples (self-BLEU needs two) and no t draws are usage errors,
    found before the ELBO pass or the sweep runs; the last two even before
    the checkpoint is loaded, so a missing one is not what they report."""
    early = flags[0] in ("--num-gen", "--t-samples")
    run = tmp_path if early else train_tiny(tmp_path, corpus_file, prep_dir)
    ran = []
    monkeypatch.setattr(cli, "elbo_eval", lambda *a, **k: ran.append("elbo"))
    monkeypatch.setattr(cli, "quality_diversity_sweep", lambda *a, **k: ran.append("sweep"))
    out = tmp_path / ("sweep.csv" if sweep else "report.json")
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                   "--test", str(corpus_file), *flags,
                   "--sweep" if sweep else "--out", str(out)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert ran == [] and not out.exists()


def test_a_signal_stops_train_at_a_step_that_resumes_bitwise(tmp_path, corpus_file, prep_dir):
    """`python -m spindle train`, sent SIGTERM once a step is logged, stops
    at the end of its step: it writes that step's checkpoint and no
    model.spnd, prints the resume command and exits 3 without a traceback.
    That command, run for two more steps, ends with the tensors and losses
    of a run never stopped."""
    flags = ["--corpus", str(corpus_file), "--prep", str(prep_dir), "--log-every", "1", *TINY]
    out, full = tmp_path / "stopped", tmp_path / "full"
    env = {**os.environ, "PYTHONPATH": str(Path(sp.__file__).resolve().parent.parent)}
    proc = subprocess.Popen([sys.executable, "-m", "spindle", "train", *flags, "--out", str(out),
                             "--steps", "1000000"], env=env, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while proc.poll() is None and time.monotonic() < deadline and not (
                (out / "metrics.jsonl").exists() and (out / "metrics.jsonl").read_text()):
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        err = proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
    assert proc.returncode == 3 and "Traceback" not in err, err
    (ckpt,) = out.glob("checkpoint_*.spnd")
    step = sp.load_checkpoint(ckpt).step
    assert not (out / "model.spnd").exists()
    resume = shlex.split(err.split("resume with: ")[1])[1:]
    assert cli.main([*resume, "--steps", str(step + 2)]) == 0
    assert cli.main(["train", *flags, "--steps", str(step + 2), "--out", str(full)]) == 0
    a, b = (sp.load_checkpoint(d / "model.spnd", dtype=np.float32).params for d in (out, full))
    assert all(np.array_equal(a[name], b[name]) for name in a.names())
    losses = [[json.loads(line)["loss_total"] for line in (d / "metrics.jsonl").read_text()
               .splitlines()] for d in (out, full)]
    assert losses[0] == losses[1] and len(losses[0]) == step + 2


def test_stop_requests_take_one_signal_and_leave_an_ignored_one_ignored():
    """In the block the first SIGTERM is recorded and a second exits with
    3; a SIGINT ignored before the block stays ignored, and the SIGTERM
    handler comes back after it."""
    sigint, sigterm = signal.signal(signal.SIGINT, signal.SIG_IGN), signal.getsignal(signal.SIGTERM)
    try:
        with cli._stop_requests() as received:
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
            os.kill(os.getpid(), signal.SIGTERM)
            assert received == [signal.SIGTERM]
            with pytest.raises(SystemExit, match="^3$"):
                os.kill(os.getpid(), signal.SIGTERM)
        assert signal.getsignal(signal.SIGTERM) is sigterm
    finally:
        signal.signal(signal.SIGINT, sigint)


@pytest.mark.parametrize("case", ["prepare-out", "prepare-corpus", "sample-out", "train-out"])
def test_os_error_is_runtime_failure(tmp_path, corpus_file, prep_dir, capsys, case):
    """An output path under a regular file, or a corpus that is a directory,
    exits 3 naming the path, without a traceback."""
    blocker = tmp_path / "f"
    blocker.write_text("a file\n")
    if case == "sample-out":
        train_tiny(tmp_path, corpus_file, prep_dir)
    argv, path = {
        "prepare-out": (["prepare", "--corpus", str(corpus_file), "--vocab-size", "64",
                         "--out", str(blocker / "sub")], blocker / "sub"),
        "prepare-corpus": (["prepare", "--corpus", str(tmp_path), "--vocab-size", "64",
                            "--out", str(tmp_path / "p")], tmp_path),
        "sample-out": (["sample", "--checkpoint", str(tmp_path / "run" / "model.spnd"),
                        "--prep", str(prep_dir), "--num", "2", "--length", "4",
                        "--iterations", "4", "--out", str(blocker / "s.txt")], blocker),
        "train-out": (["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                       "--out", str(blocker / "run"), "--steps", "2", *TINY], blocker / "run"),
    }[case]
    capsys.readouterr()
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: ") and str(path) in err
    assert "Traceback" not in err


def test_train_stops_at_the_step_whose_update_overflows(tmp_path, corpus_file, prep_dir,
                                                       capsys):
    """At --lr 1e23 step 2's Adam update overflows: the run exits 3 with one
    line naming the step and the tensor, raises no RuntimeWarning, and
    writes no record or checkpoint of step 2 or later."""
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                       "--out", str(out), "--steps", "6", "--log-every", "1",
                       "--checkpoint-every", "1", "--lr", "1e23", "--warmup", "0", *TINY])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("runtime failure: step 2: the Adam update of tok_emb is not finite")
    assert err.endswith("; training stops\n") and err.count("\n") == 1
    records = (out / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["step"] for line in records] == [1]
    assert sorted(p.name for p in out.glob("*.spnd")) == ["checkpoint_0000001.spnd"]


@pytest.mark.parametrize("threads", [False, True])
def test_train_stops_at_the_step_whose_loss_overflows(tmp_path, corpus_file, prep_dir, capsys,
                                                      force_threads, threads):
    """At --weight-decay 1e23 step 1's update leaves weights whose step-2
    forward overflows: on one thread or two, the run exits 3 with one line
    naming the step, raises no RuntimeWarning, and writes no record or
    checkpoint of step 2 or later."""
    force_threads(threads)
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                       "--out", str(out), "--steps", "6", "--log-every", "1",
                       "--checkpoint-every", "1", "--weight-decay", "1e23", "--warmup", "0",
                       *TINY, "--batch-size", "16"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "runtime failure: step 2: overflow encountered in multiply; training stops\n"
    records = (out / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["step"] for line in records] == [1]
    assert sorted(p.name for p in out.glob("*.spnd")) == ["checkpoint_0000001.spnd"]


@pytest.mark.parametrize("threads", [False, True])
def test_train_stops_at_the_step_whose_validation_overflows(tmp_path, corpus_file, prep_dir,
                                                            capsys, force_threads, threads):
    """At --weight-decay 1e23 step 1's update leaves weights whose
    validation forward overflows, on one thread or, with 12 validation lines
    in two groups, two: the run exits 3 with one line naming step 1, raises
    no RuntimeWarning, and writes no record or checkpoint."""
    force_threads(threads)
    val = tmp_path / "val.txt"
    val.write_text(CORPUS * 4, encoding="utf-8")
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                       "--out", str(out), "--steps", "4", "--log-every", "1",
                       "--checkpoint-every", "1", "--weight-decay", "1e23", "--warmup", "0",
                       "--val-corpus", str(val), "--val-every", "1", *TINY])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "runtime failure: step 1: overflow encountered in multiply; training stops\n"
    assert sorted(p.name for p in out.iterdir()) == ["config.json"]


def _overflowing_checkpoint(tmp_path, corpus_file, prep_dir):
    """A float32 checkpoint of a tiny trained model with every tensor
    scaled by 1e20: finite, but its forward overflows float32."""
    ckpt = sp.load_checkpoint(train_tiny(tmp_path, corpus_file, prep_dir) / "model.spnd",
                              dtype=np.float32)
    for tensor in ckpt.params.tensors.values():
        tensor *= 1e20
    path = tmp_path / "scaled.spnd"
    sp.save_checkpoint(path, ckpt.params, lam=ckpt.lam, vocab_hash=ckpt.vocab_hash,
                       step=ckpt.step)
    return path


@pytest.mark.parametrize("command", ["sample", "eval"])
def test_a_model_whose_forward_overflows_exits_3(tmp_path, corpus_file, prep_dir, capsys,
                                                 command):
    """sample and eval on a model whose forward overflows exit 3 with one
    line, raise no RuntimeWarning, and write no output file."""
    checkpoint = _overflowing_checkpoint(tmp_path, corpus_file, prep_dir)
    out = tmp_path / "out"
    argv = {"sample": ["--num", "2", "--length", "4", "--out", str(out / "s.txt"),
                       "--trajectory", str(out / "s.jsonl")],
            "eval": ["--test", str(corpus_file), "--num-gen", "2", "--out",
                     str(out / "report.json")]}[command]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main([command, "--checkpoint", str(checkpoint), "--prep", str(prep_dir),
                       "--iterations", "4", *argv])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("runtime failure: overflow encountered in ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("case", ["prepare-corpus", "train-corpus", "train-val-corpus",
                                  "train-config", "eval-test"])
def test_input_that_is_not_utf8_is_usage_error(tmp_path, corpus_file, prep_dir, capsys, case):
    """A corpus, validation corpus, test corpus or config file that is not
    UTF-8 exits 2 naming it, without a traceback, and no --out is left."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes("\ufeffthe cat\n".encode("utf-16-le"))  # starts ff fe
    out = tmp_path / "new" / "out"

    def train(corpus, *extra):
        return ["train", "--corpus", str(corpus), "--prep", str(prep_dir), "--out", str(out),
                "--steps", "2", *TINY, *extra]

    if case == "eval-test":
        train_tiny(tmp_path, corpus_file, prep_dir)
    argv = {
        "prepare-corpus": ["prepare", "--corpus", str(bad), "--vocab-size", "64",
                           "--out", str(out)],
        "train-corpus": train(bad),
        "train-val-corpus": train(corpus_file, "--val-corpus", str(bad), "--val-every", "1"),
        "train-config": train(corpus_file, "--config", str(bad)),
        "eval-test": ["eval", "--checkpoint", str(tmp_path / "run" / "model.spnd"), "--prep",
                      str(prep_dir), "--test", str(bad), "--out", str(out)],
    }[case]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad} is not UTF-8" in err
    assert "Traceback" not in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("line", [b"not json", b"[]", b'{"step": "4"}', b"\xff{}"])
def test_resume_rejects_a_damaged_metrics_line(tmp_path, corpus_file, prep_dir, capsys, line):
    """On resume, a complete metrics.jsonl line that is not a UTF-8 JSON
    object with an integer step exits 3 naming the file and the line number."""
    run = train_tiny(tmp_path, corpus_file, prep_dir, extra=["--checkpoint-every", "4"])
    metrics = run / "metrics.jsonl"
    first, *rest = metrics.read_bytes().splitlines(True)
    metrics.write_bytes(b"".join([first, line + b"\n", *rest]))
    capsys.readouterr()
    rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                   "--out", str(run), "--steps", "12", "--batch-size", "4",
                   "--resume", str(run / "checkpoint_0000004.spnd")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == (f"runtime failure: {metrics}: line 2 is not a JSON object with an "
                   "integer step\n")


def test_train_unusable_out_fails_before_tokenizing(tmp_path, corpus_file, prep_dir, capsys,
                                                    monkeypatch):
    """An --out under a regular file exits 3 naming it before any corpus is
    tokenized."""
    blocker = tmp_path / "f"
    blocker.write_text("a file\n")
    read = []
    monkeypatch.setattr(cli, "_read_sequences", lambda *a: read.append(a))
    capsys.readouterr()
    rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                   "--val-corpus", str(corpus_file), "--val-every", "1",
                   "--out", str(blocker / "run"), "--steps", "2", *TINY])
    assert rc == 3
    assert str(blocker / "run") in capsys.readouterr().err
    assert read == []


@pytest.mark.parametrize("which", ["train", "validation"])
def test_train_corpus_without_lines_makes_no_out(tmp_path, corpus_file, prep_dir, capsys,
                                                 which):
    """A training or validation corpus without a usable line exits 2, and
    the --out directories made for the run are removed again."""
    blank = tmp_path / "blank.txt"
    blank.write_text("\n \n", encoding="utf-8")
    train, val = (blank, corpus_file) if which == "train" else (corpus_file, blank)
    out = tmp_path / "a" / "b" / "run"
    capsys.readouterr()
    rc = cli.main(["train", "--corpus", str(train), "--prep", str(prep_dir),
                   "--val-corpus", str(val), "--val-every", "1",
                   "--out", str(out), "--steps", "2", *TINY])
    assert rc == 2
    assert f"error: no usable sequences in {blank}" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_smoothing_that_rounds_a_probability_to_0_exits_2_naming_it(tmp_path, corpus_file,
                                                                      capsys):
    """A subnormal smoothing rounds the probability of [UNK], which this
    corpus never produces, to 0: `prepare` exits 2 with one error line that
    names --smoothing, warns of nothing and writes nothing."""
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["prepare", "--corpus", str(corpus_file), "--vocab-size", "64",
                       "--smoothing", "5e-324", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and caught == []
    assert err.startswith("error: --smoothing 5e-324 rounds") and err.count("\n") == 1
    assert not out.exists()


def test_schedule_csv(tmp_path, corpus_file, prep_dir, capsys):
    """Every value matches the oracle's dense grid, and the printed clamp
    count is the number of interior values the oracle's clip moved; lam = 2
    pushes the curve out of [0, 1]."""
    vocab, table = cli._load_prep(prep_dir)
    h = table.h_for(sp.tokenize("the cat sat", vocab))
    out = tmp_path / "sched.csv"
    for lam in ("0.3", "2.0"):
        capsys.readouterr()
        rc = cli.main(["schedule", "--prep", str(prep_dir), "--text", "the cat sat",
                       "--lambda", lam, "--T", "8", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "t,position,alpha_bar"
        assert len(lines) == 2 + 9 * 3
        cells = [line.split(",") for line in lines[2:]]
        assert [(int(t), int(i)) for t, i, _ in cells] == [(t, i) for t in range(9)
                                                           for i in range(3)]
        dense, events = oracle.spindle_grid(h, 8, float(lam))
        values = np.array([float(v) for _, _, v in cells]).reshape(9, 3)
        assert np.abs(values - dense).max() <= 1e-12
        assert f"({events} clamp events)" in capsys.readouterr().out
    assert events > 0
    # rerun is byte-identical
    out2 = tmp_path / "sched2.csv"
    cli.main(["schedule", "--prep", str(prep_dir), "--text", "the cat sat",
              "--lambda", "2.0", "--T", "8", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("smoothing", ["0.5", "0.7", "1"])
@pytest.mark.parametrize("tokenizer", ["word", "char"])
def test_prep_table_is_the_corpus_scan(tmp_path, corpus_file, tokenizer, smoothing):
    """The table a prep directory loads to, computed from vocab.tsv and
    stats.json, is bitwise the one a scan of the corpus gives."""
    prep = tmp_path / "prep"
    assert cli.main(["prepare", "--corpus", str(corpus_file), "--vocab-size", "12",
                     "--tokenizer", tokenizer, "--smoothing", smoothing,
                     "--out", str(prep)]) == 0
    vocab, table = cli._load_prep(prep)
    assert vocab.tokenizer == tokenizer and len(vocab) == 12
    assert np.array_equal(table.h, sp.surprisal_table(corpus_file, vocab, float(smoothing)).h)


@pytest.mark.parametrize("stats, needle", [
    ("{}", "no 'config' key"),
    ("{config", "Expecting"),
    ('{"config": []}', "list indices"),
    ('{"config": {"tokenizer": "word"}}', "no 'smoothing' key"),
    ('{"config": {"tokenizer": "word", "smoothing": "x"}}', 'smoothing "x"'),
    ('{"config": {"tokenizer": "word", "smoothing": true}}', "smoothing true"),
    ('{"config": {"tokenizer": "word", "smoothing": NaN}}', "finite and > 0, got nan"),
    ('{"config": {"tokenizer": "word", "smoothing": -1}}', "finite and > 0, got -1"),
    ('{"config": {"tokenizer": "word", "smoothing": 0}}', "finite and > 0, got 0"),
    ('{"config": {"tokenizer": "bpe", "smoothing": 1.0}}', 'tokenizer "bpe"'),
], ids=["empty", "not-json", "config-list", "no-smoothing", "string-smoothing",
        "bool-smoothing", "nan-smoothing", "negative-smoothing", "zero-smoothing",
        "unknown-tokenizer"])
def test_damaged_stats_json_exits_3(tmp_path, prep_dir, capsys, stats, needle):
    """A stats.json that does not give the tokenizer and the smoothing is a
    damaged prep directory: a runtime failure naming the file. A bool is
    not a number; a smoothing out of range is refused by
    `SurprisalTable.from_counts`, under the file's name."""
    stats_path = prep_dir / "stats.json"
    stats_path.write_text(stats)
    out = tmp_path / "sched.csv"
    capsys.readouterr()
    rc = cli.main(["schedule", "--prep", str(prep_dir), "--text", "the cat sat",
                   "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {stats_path}: ") and needle in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[MASK]\t0\n[PAD]\t0\n[CLS]\t0\n",
    "[MASK]\t0\n[PAD]\t0\n[CLS]\t0\n[UNK]\tx\n",
    "[MASK]\t0\n[PAD]\t0\n[CLS]\t0\n[UNK]\n",
    "[MASK]\t0\n[PAD]\t0\n[CLS]\t0\n[UNK]\t0\nthe\t-3\ncat\t5\n",
    "[MASK]\t0\n[PAD]\t0\n[CLS]\t0\n[UNK]\t0\nthe\t0\n",
    "[MASK]\t0\n[PAD]\t0\n[CLS]\t0\n[UNK]\t9\n",
], ids=["no-unk", "count-not-int", "no-tab", "negative-count", "no-content-count",
        "unk-only"])
def test_damaged_vocab_tsv_exits_3(tmp_path, prep_dir, capsys, text):
    vocab_path = prep_dir / "vocab.tsv"
    vocab_path.write_text(text)
    capsys.readouterr()
    rc = cli.main(["schedule", "--prep", str(prep_dir), "--text", "the cat sat",
                   "--out", str(tmp_path / "sched.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {vocab_path}: ") and "Traceback" not in err


def test_missing_stats_json_exits_2(tmp_path, corpus_file, capsys):
    """A prep directory without stats.json is not read under a guessed
    tokenizer: it is a usage error, as a missing vocab.tsv is."""
    prep = tmp_path / "prep"
    assert cli.main(["prepare", "--corpus", str(corpus_file), "--vocab-size", "64",
                     "--tokenizer", "char", "--out", str(prep)]) == 0
    (prep / "stats.json").unlink()
    out = tmp_path / "sched.csv"
    capsys.readouterr()
    rc = cli.main(["schedule", "--prep", str(prep), "--text", "w1 w2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(prep / "stats.json") in err
    assert not out.exists()


def _subparsers() -> dict:
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_train_defaults_are_the_library_defaults():
    """Each train setting's CLI default, and each sample, eval and schedule
    flag default that a library field owns, is in value and type the
    default of that field or argument."""
    owned = {}
    train_fields = {f.name: f.default for f in dataclasses.fields(sp.TrainConfig)}
    owned.update({key: train_fields[f] for key, f in cli._TRAIN_FIELDS.items()})
    model_fields = {f.name: f.default for f in dataclasses.fields(sp.DenoiserConfig)}
    owned.update({key: model_fields[f] for key, f in cli._MODEL_FIELDS.items()})
    owned["lam"] = next(f.default for f in dataclasses.fields(sp.ScheduleParams)
                        if f.name == "lam")
    run_args = inspect.signature(sp.run_training).parameters
    owned.update({key: run_args[key].default
                  for key in ("checkpoint_every", "log_every", "val_every")})
    assert len(owned) == len(cli._TRAIN_DEFAULTS) == 19
    for key, default in cli._TRAIN_DEFAULTS.items():
        assert (type(default), default) == (type(owned[key]), owned[key]), key
    parsers = _subparsers()
    sample_fields = {f.name: f.default for f in dataclasses.fields(sp.SampleConfig)}
    flag_owners = [("sample", key, sample_fields[key]) for key in ("top_k", "temperature", "seed")]
    flag_owners += [("eval", key, default) for _, key, default in flag_owners]
    flag_owners += [("schedule", "lam", owned["lam"]), ("schedule", "T", model_fields["num_steps"])]
    for command, key, default in flag_owners:
        got = parsers[command].get_default(key)
        assert (type(got), got) == (type(default), default), (command, key)


def test_verify_command_reports_and_exit_codes(monkeypatch, capsys):
    from spindle import verify as verify_mod

    ok = [CheckResult("a", True, "fine", 0.1), CheckResult("b", True, "fine", 0.1)]
    monkeypatch.setattr(verify_mod, "run_all", lambda seed=0: ok)
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2

    bad = [CheckResult("a", True, "fine", 0.1), CheckResult("b", False, "broken", 0.1)]
    monkeypatch.setattr(verify_mod, "run_all", lambda seed=0: bad)
    assert cli.main(["verify"]) == 3
    assert "FAIL b" in capsys.readouterr().out


@pytest.mark.parametrize("source, needle", [
    ({"steps": 2, "lerning_rate": 1e-3}, "lerning_rate"),
    ({"config": {"stpes": 2}}, "stpes"),
    ([2], "no settings object"),
    ("{steps", "not JSON"),
    (("preset", {"steps": 2, "top_k": 30}), "top_k"),
    ({"steps": None}, "steps must be int, got null"),
    ({"steps": "ten"}, 'steps must be int, got "ten"'),
    ({"steps": [2]}, "steps must be int, got [2]"),
    ({"seed": 1.7}, "seed must be int, got 1.7"),
    ({"steps": True}, "steps must be int, got true"),
    ({"lam": "0.5"}, 'lam must be float, got "0.5"'),
    ({"dropout": {}}, "dropout must be float, got {}"),
    (("preset", {"lr": "3e-6"}), 'lr must be float, got "3e-6"'),
], ids=["misspelt-key", "misspelt-nested-key", "list", "not-json", "preset-key",
        "null", "string-int", "list-int", "float-int", "bool-int", "string-float",
        "object-float", "preset-string-float"])
def test_bad_setting_source_exits_2(tmp_path, corpus_file, prep_dir, capsys, monkeypatch,
                                    source, needle):
    """A config file that is not a settings object, a misspelt key in one, a
    preset key that train never reads, or a preset or config-file value not
    of its default's type is a usage error before any work naming its source:
    nothing is written."""
    if isinstance(source, tuple):
        monkeypatch.setitem(cli.PRESETS, "odd", source[1])
        flags, origin = ["--preset", "odd"], "preset 'odd'"
    else:
        path = tmp_path / "cfg.json"
        path.write_text(source if isinstance(source, str) else json.dumps(source))
        flags, origin = ["--config", str(path)], f"config file {path}"
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                     "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and origin in err
    assert not out.exists()


def test_integer_passes_for_a_float_setting(tmp_path, corpus_file, prep_dir):
    """An integer in a config file is a valid float setting and is recorded
    as a float."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lam": 1}))
    out = train_tiny(tmp_path, corpus_file, prep_dir, extra=["--config", str(cfg_path)])
    lam = json.loads((out / "config.json").read_text())["config"]["lam"]
    assert lam == 1.0 and type(lam) is float


def test_every_model_field_is_a_train_setting():
    """Every DenoiserConfig field but vocab_size, which the prep directory
    gives, has a train setting: a flag sets it and a resume checks it."""
    fields = {f.name for f in dataclasses.fields(sp.DenoiserConfig)}
    assert fields - {"vocab_size"} == set(cli._MODEL_FIELDS.values())


def test_train_flags_are_the_settings_table():
    """Each train setting has one flag, named and typed by its default, and
    there is no --float64."""
    train = _subparsers()["train"]
    others = {"help", "corpus", "prep", "out", "config", "preset", "val_corpus", "resume"}
    assert {a.dest for a in train._actions} - others == set(cli._TRAIN_DEFAULTS)
    for key, default in cli._TRAIN_DEFAULTS.items():
        action = train._option_string_actions[cli._flag(key)]
        assert action.dest == key and action.type is type(default)
    assert cli._flag("lam") == "--lambda" and cli._flag("batch_size") == "--batch-size"
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--corpus", "c", "--prep", "p", "--out", "o", "--float64"])
    assert exc.value.code == 2


def test_paper_preset_holds_train_settings_only():
    """The merge gives exactly the preset's settings; the defaults are laid
    under them by train, not by the merge."""
    given = cli._merge_config(argparse.Namespace(preset="paper-lm1b"))
    assert given == cli.PRESETS["paper-lm1b"]
    assert given["T"] == 2048 and given["steps"] == 1_900_000


def test_cut_lines_are_counted_on_stderr(tmp_path, corpus_file, prep_dir, capsys):
    """Lines longer than n_max are cut, and train and eval say how many."""
    capsys.readouterr()
    train_tiny(tmp_path, corpus_file, prep_dir, "full")
    assert "cut" not in capsys.readouterr().err
    run = train_tiny(tmp_path, corpus_file, prep_dir, "short", ["--n-max", "5"])
    note = f"cut 3 of 3 lines in {corpus_file} to n_max=5 tokens"
    assert note in capsys.readouterr().err
    rc = cli.main(["eval", "--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                   "--test", str(corpus_file), "--num-gen", "2", "--iterations", "4",
                   "--t-samples", "1", "--out", str(tmp_path / "report.json")])
    assert rc == 0
    assert note in capsys.readouterr().err


def test_python_dash_m_spindle_runs_the_cli():
    """`python -m spindle` is the command line: --help lists the commands
    and exits 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(sp.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-m", "spindle", "--help"], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "verify" in done.stdout


# --- the exit-code contract ------------------------------------------------------

# A valid tiny argv per command, and a resume, over `cli_files`; {out} is a new path.
_BASES = {
    "prepare": "prepare --corpus {corpus} --vocab-size 64 --out {out}",
    "train": "train --corpus {corpus} --prep {prep} --config {config} --val-corpus {corpus} "
             "--val-every 1 --steps 1 --out {out} " + " ".join(TINY),
    "resume": "train --corpus {corpus} --prep {prep} --resume {checkpoint} --steps 6 --out {out}",
    "sample": "sample --checkpoint {model} --prep {prep} --length 4 --iterations 4 --out {out}",
    "eval": "eval --checkpoint {model} --prep {prep} --test {corpus} --num-gen 2 --t-samples 1 "
            "--iterations 4 --out {out}",
    "schedule": "schedule --prep {prep} --text cat --T 8 --out {out}",
}
# Flags that only set how long valid work runs, drawn from small values only, and
# the values of any other numeric flag (for an int flag a float is no number).
_DURATION_FLAGS = {"--steps", "--mlm-pretrain-steps"}
_EDGES = ("0", "-1", "1", "3", "nan", "inf", "-inf", "5e-324", "x",
          *map(str, (2**31, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**63 + 1, 10**23)))
# `_damaged` kinds of each input: a checkpoint's include each
# `corrupt_checkpoint` kind, and "<file>/<kind>" damages one file of {prep}.
_FILE_DAMAGE = ("missing", "directory", "empty", "not-utf8", "truncated", "garbled")
_CKPT_DAMAGE = (*_FILE_DAMAGE, "cut_record", "nan_weight", "misshapen", *BAD_HEADER_KINDS)
_DAMAGE = {"{corpus}": _FILE_DAMAGE, "{config}": _FILE_DAMAGE, "{model}": _CKPT_DAMAGE,
           "{checkpoint}": (*_CKPT_DAMAGE, "missing_key", "inf_opt"),
           "{prep}": ("missing", "empty", *(f"{name}/{kind}" for kind in _FILE_DAMAGE
                                            for name in ("stats.json", "vocab.tsv")))}


# Each command's flags, from `build_parser`'s own actions.
_FLAGS = {command: [a for a in parser._actions if a.option_strings and a.dest != "help"]
          for command, parser in _subparsers().items()}


@st.composite
def _draws(draw):
    """(base, flag, value): a flag of the base's command and a value of its class
    ({corpus}/x is under a file), or a damage kind for an input of the base."""
    base = draw(st.sampled_from(sorted(_BASES)))
    argv = _BASES[base].split()
    action = draw(st.sampled_from(_FLAGS[argv[0]]))
    flag = action.option_strings[0]
    given = argv[argv.index(flag) + 1] if flag in argv else None
    values = ([None] if action.nargs == 0 else _DAMAGE[given] if given in _DAMAGE
              else [*action.choices, "x"] if action.choices
              else ["-1", "0", "1", "2"] if flag in _DURATION_FLAGS
              else _EDGES if action.type in (int, float) else ("", "{corpus}/x"))
    return base, flag, draw(st.sampled_from(values))


def _damaged(src: Path, kind: str, into: Path) -> Path:
    """A copy of src in into, damaged by kind: "missing", "directory", "empty", "not-utf8"
    (0xff first), "truncated" (the first half), "garbled" (JSON of the wrong shape, a vocab
    without its last line, a corpus of special tokens), a `corrupt_checkpoint` kind, or
    "<file>/<kind>" for one file of a directory."""
    dst = into / src.name
    member, _, kind = kind.rpartition("/")
    if member:
        shutil.copytree(src, dst, ignore=lambda d, names: [member])
        _damaged(src / member, kind, dst)
    elif kind == "directory" or kind == "empty" and src.is_dir():
        dst.mkdir()
    elif kind in ("empty", "not-utf8", "truncated", "garbled"):
        raw = src.read_bytes()
        garbled = {".json": b'{"config": [1]}', ".txt": b"[MASK] [PAD] [CLS]\n",
                   ".tsv": raw.rstrip(b"\n").rpartition(b"\n")[0] + b"\n"}
        dst.write_bytes({"empty": b"", "not-utf8": b"\xff" + raw, "truncated": raw[:len(raw) // 2],
                         "garbled": garbled.get(src.suffix, raw[::-1])}[kind])
    elif kind != "missing":
        _corrupt_checkpoint(src, dst, kind)
    return dst


@pytest.fixture(scope="session")
def cli_files(tmp_path_factory):
    """The inputs of `_BASES`; the checkpoint, of step 6, holds the Adam state."""
    root = tmp_path_factory.mktemp("cli")
    files = {"corpus": root / "corpus.txt", "prep": root / "prep", "config": root / "cfg.json",
             "model": root / "run" / "model.spnd",
             "checkpoint": root / "run" / "checkpoint_0000006.spnd"}
    files["corpus"].write_text(CORPUS, encoding="utf-8")
    files["config"].write_text(json.dumps({"lam": 0.5, "log_every": 1}))
    assert cli.main(["prepare", "--corpus", str(files["corpus"]), "--vocab-size", "64",
                     "--out", str(files["prep"])]) == 0
    train_tiny(root, files["corpus"], files["prep"], extra=["--checkpoint-every", "6"])
    return files


# The replaced per-flag tests' cases, a --T past int64 and a directory corpus, one test each.
_PINNED = [(base, flag, value) for base, cases in {
    "train": "--log-every 0 --batch-size 0 --T 0 --heads 3 --lambda -1 --mlm-mask-rate 0 "
             "--mlm-mask-rate 1.5 --warmup -1 --steps -1 --layers 0 --heads 0 --d-model 0 "
             "--n-max 0 --lr nan --lr inf --weight-decay -5 --weight-decay nan --val-every -3 "
             f"--checkpoint-every -3 --T {2**63}",
    "resume": "--prep vocab.tsv/garbled",
    "schedule": "--T 0 --lambda -1",
    "prepare": "--smoothing -1 --smoothing 0 --smoothing nan --smoothing inf --corpus missing "
               "--corpus directory",
    "sample": "--iterations 3 --iterations 0 --top-k 0 --temperature nan --temperature inf "
              "--num 0 --num -2",
    "eval": "--iterations 0 --top-k 0 --temperature nan --test missing",
}.items() for flag, value in zip(*[iter(cases.split())] * 2)]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(draw=_draws())
def test_every_flag_keeps_the_exit_code_contract(cli_files, draw):
    """One flag of a valid tiny argv set to an edge value, or one input swapped for a
    damaged copy, exits 0, 2 or 3 and raises nothing. An exit 2 names a flag or a path of
    the argv and writes nothing. A value its library owner refuses (`cli._checked` raised)
    exits 2, led by the flag, or naming the damaged file. On Linux without a hard limit the
    address space is capped at its size plus 512 MiB, so an array numpy allocates on a large
    machine is refused here too."""
    base, flag, value = draw
    refused, checked = [], cli._checked

    def spy(*args, **fields):
        try:
            return checked(*args, **fields)
        except Exception as exc:
            refused.append(exc)
            raise

    with tempfile.TemporaryDirectory() as tmp:
        (work := Path(tmp, "work")).mkdir()  # the damaged inputs go beside it
        paths = {k: str(v) for k, v in cli_files.items()} | {"out": str(work / "out")}
        template = _BASES[base].split()
        if flag not in template:
            template += [flag] if value is None else [flag, value]
        at, damaged = template.index(flag) + 1, None
        if value is not None:
            if template[at] in _DAMAGE:
                damaged = str(_damaged(Path(template[at].format(**paths)), value, Path(tmp)))
            template[at] = damaged or value
        argv = [a.format(**paths) for a in template]
        err, cwd, limits = io.StringIO(), os.getcwd(), resource.getrlimit(resource.RLIMIT_AS)
        os.chdir(work)
        try:
            with (mock.patch.object(cli, "_checked", spy), warnings.catch_warnings(),
                  contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
                warnings.simplefilter("error", RuntimeWarning)
                if limits[1] == resource.RLIM_INFINITY and os.path.exists("/proc/self/statm"):
                    pages = int(Path("/proc/self/statm").read_text().split()[0])
                    resource.setrlimit(resource.RLIMIT_AS, (
                        pages * os.sysconf("SC_PAGE_SIZE") + (1 << 29), limits[1]))
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    rc = exc.code
        finally:
            resource.setrlimit(resource.RLIMIT_AS, limits)
            os.chdir(cwd)
        err = err.getvalue()
        assert rc in (0, 2, 3), (rc, err)
        if rc == 2:
            assert any(a in err for a in argv[1:] if a.startswith("--") or os.path.isabs(a)), err
            assert not any(work.iterdir()), sorted(work.rglob("*"))
        if refused:  # naming the damaged file, or led by the flag
            assert rc == 2 and (damaged in err if damaged else err.startswith(f"error: {flag} "))


@pytest.mark.parametrize("draw", _PINNED, ids=[f"{b}{f}={v}" for b, f, v in _PINNED])
def test_pinned_case_keeps_the_exit_code_contract(cli_files, draw):
    test_every_flag_keeps_the_exit_code_contract.hypothesis.inner_test(cli_files, draw)
