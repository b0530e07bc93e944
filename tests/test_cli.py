import json

import numpy as np
import pytest

from spindle import cli
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
    assert {"vocab.tsv", "surprisal.tsv", "stats.json"} <= set(first)
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
    assert metrics and {"step", "loss_total", "l_t_kl", "l0", "lT", "lr", "elapsed_s"} <= set(metrics[0])
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
    for kind in ("truncated", "missing_key", "nan_weight"):
        bad = corrupt_checkpoint(run / "model.spnd", tmp_path / f"{kind}.spnd", kind)
        capsys.readouterr()
        rc = cli.main(["sample", "--checkpoint", str(bad), "--prep", str(prep_dir),
                       "--num", "1", "--length", "4", "--iterations", "4",
                       "--out", str(tmp_path / "s.txt")])
        assert rc == 3, kind
        assert str(bad) in capsys.readouterr().err, kind


def test_sample_iterations_must_divide_T(tmp_path, corpus_file, prep_dir):
    run = train_tiny(tmp_path, corpus_file, prep_dir)
    rc = cli.main(["sample", "--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                   "--num", "1", "--length", "5", "--iterations", "3",
                   "--out", str(tmp_path / "s.txt")])
    assert rc == 2


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


def test_eval_missing_test_file(tmp_path, corpus_file, prep_dir):
    run = train_tiny(tmp_path, corpus_file, prep_dir)
    rc = cli.main(["eval", "--checkpoint", str(run / "model.spnd"), "--prep", str(prep_dir),
                   "--test", str(tmp_path / "nope.txt")])
    assert rc == 2


def test_schedule_csv(tmp_path, corpus_file, prep_dir):
    out = tmp_path / "sched.csv"
    rc = cli.main(["schedule", "--prep", str(prep_dir), "--text", "the cat sat",
                   "--lambda", "0.3", "--T", "8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "t,position,alpha_bar"
    assert len(lines) == 2 + 9 * 3
    first = lines[2].split(",")
    assert first[0] == "0" and float(first[2]) == 1.0
    # rerun is byte-identical
    out2 = tmp_path / "sched2.csv"
    cli.main(["schedule", "--prep", str(prep_dir), "--text", "the cat sat",
              "--lambda", "0.3", "--T", "8", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


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
