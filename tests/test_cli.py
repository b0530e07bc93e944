import argparse
import dataclasses
import inspect
import json

import numpy as np
import pytest

import spindle as sp
from spindle import cli, oracle
from spindle.verify import CheckResult


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(
        "the cat sat on the mat\nthe dog sat on the rug\na bird flew over the tree\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture()
def prep_dir(tmp_path, corpus_file):
    out = tmp_path / "prep"
    rc = cli.main(["prepare", "--corpus", str(corpus_file), "--vocab-size", "64",
                   "--out", str(out)])
    assert rc == 0
    return out


def train_tiny(tmp_path, corpus_file, prep_dir, out_name="run", extra=()):
    out = tmp_path / out_name
    rc = cli.main([
        "train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
        "--out", str(out), "--steps", "12", "--batch-size", "4", "--layers", "1",
        "--d-model", "16", "--heads", "2", "--n-max", "16", "--T", "8",
        "--log-every", "4", "--seed", "1", *extra,
    ])
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
    rc = cli.main(["prepare", "--corpus", str(corpus_file), "--vocab-size", "3",
                   "--out", str(tmp_path / "p")])
    assert rc == 2
    assert "vocab too small" in capsys.readouterr().err


def test_prepare_missing_corpus(tmp_path):
    rc = cli.main(["prepare", "--corpus", str(tmp_path / "nope.txt"),
                   "--vocab-size", "10", "--out", str(tmp_path / "p")])
    assert rc == 2


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


def test_train_resume_vocab_hash_mismatch(tmp_path, corpus_file, prep_dir):
    run = train_tiny(tmp_path, corpus_file, prep_dir, "base", ["--checkpoint-every", "6"])
    other_corpus = tmp_path / "other.txt"
    other_corpus.write_text("completely different words here\n", encoding="utf-8")
    other_prep = tmp_path / "otherprep"
    assert cli.main(["prepare", "--corpus", str(other_corpus), "--vocab-size", "32",
                     "--out", str(other_prep)]) == 0
    rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(other_prep),
                   "--out", str(tmp_path / "x"), "--resume", str(run / "model.spnd"),
                   "--steps", "2"])
    assert rc == 2


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


def test_sample_never_draws_unseen_unk_under_zero_smoothing(tmp_path, corpus_file):
    """With --smoothing 0 and no out-of-vocab word, [UNK] has infinite
    surprisal. A barely trained head gives it about the probability of any
    other content token and top-k spans the whole vocabulary, so a sampler
    that kept it would draw it; sampling must leave it out."""
    prep = tmp_path / "prep0"
    assert cli.main(["prepare", "--corpus", str(corpus_file), "--vocab-size", "64",
                     "--smoothing", "0", "--out", str(prep)]) == 0
    run = train_tiny(tmp_path, corpus_file, prep)
    out = tmp_path / "s.txt"
    rc = cli.main(["sample", "--checkpoint", str(run / "model.spnd"), "--prep", str(prep),
                   "--num", "4", "--length", "6", "--iterations", "4", "--top-k", "64",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4 and not any("[UNK]" in l for l in lines)


def test_sample_rejects_corrupt_checkpoint(tmp_path, corpus_file, prep_dir,
                                          corrupt_checkpoint, capsys):
    run = train_tiny(tmp_path, corpus_file, prep_dir)
    for kind in ("truncated", "missing_key", "nan_weight", "version1"):
        bad = corrupt_checkpoint(run / "model.spnd", tmp_path / f"{kind}.spnd", kind)
        capsys.readouterr()
        rc = cli.main(["sample", "--checkpoint", str(bad), "--prep", str(prep_dir),
                       "--num", "1", "--length", "4", "--iterations", "4",
                       "--out", str(tmp_path / "s.txt")])
        assert rc == 3, kind
        assert str(bad) in capsys.readouterr().err, kind


def test_sample_iterations_must_divide_T(tmp_path, corpus_file, prep_dir, capsys):
    run = train_tiny(tmp_path, corpus_file, prep_dir)
    rc = cli.main(["sample", "--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                   "--num", "1", "--length", "5", "--iterations", "3",
                   "--out", str(tmp_path / "s.txt")])
    assert rc == 2
    assert "error: --iterations must divide T=8, got 3" in capsys.readouterr().err


def test_sample_num_below_1_is_usage_error(tmp_path, corpus_file, prep_dir, capsys):
    run = train_tiny(tmp_path, corpus_file, prep_dir)
    out = tmp_path / "s.txt"
    for num in ("0", "-2"):
        capsys.readouterr()
        rc = cli.main(["sample", "--checkpoint", str(run / "model.spnd"), "--prep",
                       str(prep_dir), "--num", num, "--length", "5", "--iterations", "4",
                       "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --num must be >= 1, got {num}\n"
        assert not out.exists() and not (tmp_path / "s.txt.meta.json").exists()


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
                   "--out", str(out), "--steps", "2", "--batch-size", "4", "--layers", "1",
                   "--d-model", "16", "--heads", "2", "--n-max", "16", "--T", "8", *flags])
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
    found before the ELBO pass or the sweep runs."""
    run = train_tiny(tmp_path, corpus_file, prep_dir)
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


@pytest.mark.parametrize("flag", ["--val-every", "--checkpoint-every"])
def test_negative_interval_is_usage_error(tmp_path, corpus_file, prep_dir, capsys, flag):
    """An interval below 0 exits 2 naming its flag, before anything is
    written."""
    out = tmp_path / "out"
    capsys.readouterr()
    rc = cli.main(["train", "--corpus", str(corpus_file), "--prep", str(prep_dir),
                   "--out", str(out), "--steps", "2", "--batch-size", "4", "--layers", "1",
                   "--d-model", "16", "--heads", "2", "--n-max", "16", "--T", "8",
                   flag, "-3"])
    assert rc == 2
    assert f"error: {flag} must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


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
                       "--out", str(blocker / "run"), "--steps", "2", "--batch-size", "4",
                       "--layers", "1", "--d-model", "16", "--heads", "2", "--n-max", "16",
                       "--T", "8"], blocker / "run"),
    }[case]
    capsys.readouterr()
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: ") and str(path) in err
    assert "Traceback" not in err


def test_eval_missing_test_file(tmp_path, corpus_file, prep_dir):
    run = train_tiny(tmp_path, corpus_file, prep_dir)
    rc = cli.main(["eval", "--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                   "--test", str(tmp_path / "nope.txt")])
    assert rc == 2


@pytest.mark.parametrize("command, flags", [
    ("train", ["--log-every", "0"]),
    ("train", ["--batch-size", "0"]),
    ("train", ["--T", "0"]),
    ("train", ["--d-model", "16", "--heads", "3"]),
    ("train", ["--lambda", "-1"]),
    ("schedule", ["--T", "0"]),
    ("schedule", ["--lambda", "-1"]),
    ("prepare", ["--smoothing", "-1"]),
], ids=["log-every", "batch-size", "T", "heads", "lambda", "schedule-T", "schedule-lambda",
        "smoothing"])
def test_rejected_settings_exit_2(tmp_path, corpus_file, prep_dir, capsys, command, flags):
    """A setting out of range is a usage error whether the CLI or a settings
    dataclass finds it, and nothing is trained or written."""
    out = tmp_path / "out"
    base = {
        "train": ["--corpus", str(corpus_file), "--prep", str(prep_dir), "--steps", "2",
                  "--batch-size", "4", "--layers", "1", "--d-model", "16", "--heads", "2",
                  "--n-max", "16", "--T", "8"],
        "schedule": ["--prep", str(prep_dir), "--text", "the cat sat"],
        "prepare": ["--corpus", str(corpus_file), "--vocab-size", "64"],
    }[command]
    capsys.readouterr()
    assert cli.main([command, *base, "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--warmup", "-1"),
    ("train", "--steps", "-1"),
    ("train", "--T", "0"),
    ("train", "--lambda", "-1"),
    ("train", "--layers", "0"),
    ("train", "--heads", "3"),
    ("train", "--heads", "0"),
    ("train", "--d-model", "0"),
    ("train", "--n-max", "0"),
    ("sample", "--iterations", "3"),
    ("sample", "--iterations", "0"),
    ("sample", "--top-k", "0"),
    ("eval", "--iterations", "0"),
    ("eval", "--top-k", "0"),
    ("schedule", "--T", "0"),
    ("schedule", "--lambda", "-1"),
])
def test_usage_error_names_the_flag(tmp_path, corpus_file, prep_dir, capsys, command, flag,
                                    value):
    """A value that a settings dataclass or check rejects is a usage error
    that names the flag the user typed, not the field behind it; nothing is
    written and no traceback is printed."""
    out = tmp_path / "out"
    base = {
        "train": ["--corpus", str(corpus_file), "--prep", str(prep_dir), "--steps", "2",
                  "--batch-size", "4", "--layers", "1", "--d-model", "16", "--heads", "2",
                  "--n-max", "16", "--T", "8"],
        "schedule": ["--prep", str(prep_dir), "--text", "the cat sat"],
    }.get(command)
    if base is None:
        run = train_tiny(tmp_path, corpus_file, prep_dir)
        base = ["--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                "--iterations", "4", "--length", "4"]
        if command == "eval":
            base += ["--test", str(corpus_file), "--num-gen", "2"]
    capsys.readouterr()
    assert cli.main([command, *base, "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and "Traceback" not in err
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


@pytest.mark.parametrize("smoothing", ["0", "0.7", "1"])
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
    ('{"config": {"tokenizer": "word", "smoothing": NaN}}', "smoothing NaN"),
    ('{"config": {"tokenizer": "bpe", "smoothing": 1.0}}', 'tokenizer "bpe"'),
], ids=["empty", "not-json", "config-list", "no-smoothing", "string-smoothing",
        "nan-smoothing", "unknown-tokenizer"])
def test_damaged_stats_json_exits_3(tmp_path, prep_dir, capsys, stats, needle):
    """A stats.json that does not give the tokenizer and the smoothing is a
    damaged prep directory: a runtime failure naming the file."""
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
], ids=["no-unk", "count-not-int", "no-tab"])
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


@pytest.mark.parametrize("command, flag, value", [
    ("sample", "--temperature", "nan"),
    ("sample", "--temperature", "inf"),
    ("eval", "--temperature", "nan"),
    ("train", "--lr", "nan"),
    ("train", "--lr", "inf"),
    ("train", "--weight-decay", "-5"),
    ("train", "--weight-decay", "nan"),
    ("prepare", "--smoothing", "nan"),
    ("prepare", "--smoothing", "inf"),
])
def test_non_finite_or_negative_setting_exits_2(tmp_path, corpus_file, prep_dir, capsys,
                                                command, flag, value):
    """A NaN, infinite or negative value where the setting must be finite
    and in range is a usage error naming the flag (sample and eval name the
    SampleConfig field, which is the flag's word), before anything is
    written."""
    out = tmp_path / "out"
    base = {"prepare": ["--corpus", str(corpus_file), "--vocab-size", "64"],
            "train": ["--corpus", str(corpus_file), "--prep", str(prep_dir), "--steps", "2",
                      "--batch-size", "4", "--layers", "1", "--d-model", "16", "--heads", "2",
                      "--n-max", "16", "--T", "8"]}.get(command)
    if base is None:
        run = train_tiny(tmp_path, corpus_file, prep_dir)
        base = ["--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                "--iterations", "4", "--length", "4"]
        if command == "eval":
            base += ["--test", str(corpus_file), "--num-gen", "2"]
    capsys.readouterr()
    assert cli.main([command, *base, "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and value in err
    assert f"{flag.lstrip('-')} must be finite and " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_train_defaults_are_the_library_defaults():
    """Each train setting's CLI default is, in value and type, the default
    of the library field or argument that owns it."""
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


def test_schedule_rejects_text_of_infinite_surprisal(tmp_path, corpus_file, capsys):
    """Under --smoothing 0 a word the corpus never produced folds to an
    [UNK] of infinite surprisal; that is bad --text, a usage error naming
    the word."""
    prep = tmp_path / "prep0"
    assert cli.main(["prepare", "--corpus", str(corpus_file), "--vocab-size", "64",
                     "--smoothing", "0", "--out", str(prep)]) == 0
    out = tmp_path / "sched.csv"
    capsys.readouterr()
    rc = cli.main(["schedule", "--prep", str(prep), "--text", "the unseenword",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'unseenword'" in err
    assert not out.exists()


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


def test_train_flags_are_the_settings_table():
    """Each train setting has one flag, named and typed by its default, and
    there is no --float64."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    train = sub.choices["train"]
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
    resolved = cli._merge_config(argparse.Namespace(preset="paper-lm1b"), cli._TRAIN_DEFAULTS)
    assert resolved["T"] == 2048 and resolved["steps"] == 1_900_000


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
