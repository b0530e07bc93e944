"""Operator CLI: prepare / train / sample / eval / schedule / verify.

Exit codes: 0 success, 2 usage or validation failure, 3 runtime failure.
Every command is deterministic given --seed; outputs carry a format_version
and the fully resolved config (plain-text sample files get a .meta.json
sidecar instead).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .corpus import SurprisalTable, Vocab, build_vocab, detokenize, surprisal_table, tokenize
from .denoiser import DenoiserConfig, init_params, load_checkpoint, save_checkpoint
from .diffusion import ScheduleParams, spindle_schedule
from .evaluation import MetricsReport, bleu4, elbo_eval, quality_diversity_sweep, self_bleu4
from .rng import stream
from .sampling import SampleConfig, generate_batch
from .training import AdamState, TrainConfig, opt_state_from_records, run_training

FORMAT_VERSION = 1

# Full-scale settings from the reference protocol, recorded for completeness;
# desk-scale defaults are the argparse defaults below.
PRESETS = {
    "paper-lm1b": {
        "lr": 3e-6,
        "warmup": 10_000,
        "batch_size": 32,
        "steps": 1_900_000,
        "T": 2048,
        "dropout": 0.1,
        "length": 64,
        "top_k": 30,
        "iterations": 128,
    }
}


class UsageError(Exception):
    pass


def _require_file(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} not found: {p}")
    return p


def _load_prep(prep_dir: str | Path, smoothing: float | None = None):
    prep = _require_file(prep_dir, "prep directory")
    vocab_path = _require_file(prep / "vocab.tsv", "vocab file")
    stats_path = prep / "stats.json"
    tokenizer = "word"
    prep_smoothing = 1.0
    if stats_path.exists():
        stats = json.loads(stats_path.read_text())
        tokenizer = stats["config"].get("tokenizer", "word")
        prep_smoothing = stats["config"].get("smoothing", 1.0)
    vocab = Vocab.load(vocab_path, tokenizer)
    table = SurprisalTable.load(
        _require_file(prep / "surprisal.tsv", "surprisal table"),
        vocab,
        smoothing if smoothing is not None else prep_smoothing,
    )
    return vocab, table


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> dict:
    """Resolution order: parser defaults < preset < --config file < explicit flags."""
    resolved = dict(parser_defaults)
    preset = getattr(args, "preset", None)
    if preset:
        if preset not in PRESETS:
            raise UsageError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        for k, v in PRESETS[preset].items():
            if k in resolved:
                resolved[k] = v
    config_path = getattr(args, "config", None)
    if config_path:
        payload = json.loads(_require_file(config_path, "config file").read_text())
        cfg = payload.get("config", payload)
        for k, v in cfg.items():
            if k in resolved:
                resolved[k] = v
    # argparse defaults for mergeable flags are all None, so a non-None value
    # means the flag was given explicitly and wins over preset/config file
    for k in parser_defaults:
        actual = getattr(args, k, None)
        if actual is not None:
            resolved[k] = actual
    return resolved


def _read_sequences(path: Path, vocab: Vocab, n_max: int) -> list[np.ndarray]:
    seqs = []
    for line in path.read_text(encoding="utf-8").split("\n"):
        ids = tokenize(line, vocab)
        if ids.size:
            seqs.append(ids[:n_max])
    if not seqs:
        raise UsageError(f"no usable sequences in {path}")
    return seqs


# --- commands ---------------------------------------------------------------------

def cmd_prepare(args: argparse.Namespace) -> int:
    if args.vocab_size < 4:
        raise UsageError(f"vocab too small: --vocab-size must be >= 4, got {args.vocab_size}")
    corpus = _require_file(args.corpus, "corpus")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab = build_vocab(corpus, args.vocab_size, args.tokenizer)
    table = surprisal_table(corpus, vocab, args.smoothing)
    vocab.save(out / "vocab.tsv")
    table.save(out / "surprisal.tsv", vocab)
    lines = [l for l in corpus.read_text(encoding="utf-8").split("\n") if l.strip()]
    stats = {
        "format_version": FORMAT_VERSION,
        "config": {
            "corpus": str(corpus),
            "vocab_size": args.vocab_size,
            "tokenizer": args.tokenizer,
            "smoothing": args.smoothing,
        },
        "num_lines": len(lines),
        "total_tokens": int(sum(vocab.counts)),
        "oov_folded": int(vocab.counts[vocab.unk_id]),
        "vocab_entries": len(vocab),
        "vocab_hash": vocab.content_hash(),
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(f"prepared vocab of {len(vocab)} entries -> {out}")
    return 0


_TRAIN_DEFAULTS = {
    "time_mode": "tad",
    "lam": 0.3,
    "T": 64,
    "steps": 2000,
    "mlm_pretrain_steps": 0,
    "mlm_mask_rate": 0.15,
    "batch_size": 32,
    "lr": 3e-4,
    "warmup": 100,
    "weight_decay": 0.0,
    "layers": 4,
    "d_model": 128,
    "heads": 4,
    "n_max": 64,
    "dropout": 0.1,
    "checkpoint_every": 0,
    "log_every": 50,
    "val_every": 0,
    "seed": 0,
}


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _TRAIN_DEFAULTS)
    vocab, table = _load_prep(args.prep)
    corpus = _require_file(args.corpus, "corpus")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sched_params = ScheduleParams(num_steps=int(cfg["T"]), lam=float(cfg["lam"]))
    dtype = np.float64 if args.float64 else np.float32
    start_step = 0
    opt_state = None
    if args.resume:
        ckpt = load_checkpoint(_require_file(args.resume, "checkpoint"), dtype=dtype)
        if ckpt.vocab_hash != vocab.content_hash():
            raise UsageError("vocab hash mismatch: checkpoint was trained on a different vocab")
        if ckpt.params.config.num_steps != sched_params.num_steps:
            raise UsageError("T mismatch between checkpoint and requested schedule")
        if not ckpt.extra_tensors:
            raise UsageError(f"{args.resume} holds no optimizer state; resume from a "
                             "checkpoint_*.spnd file written during training")
        params = ckpt.params
        opt_state = opt_state_from_records(params, ckpt.extra_tensors)
        start_step = ckpt.step or 0
        model_cfg = params.config
    else:
        model_cfg = DenoiserConfig(
            vocab_size=len(vocab),
            mode=cfg["time_mode"],
            num_layers=int(cfg["layers"]),
            d_model=int(cfg["d_model"]),
            num_heads=int(cfg["heads"]),
            n_max=int(cfg["n_max"]),
            num_steps=int(cfg["T"]),
            dropout=float(cfg["dropout"]),
        )
        params = init_params(model_cfg, stream(int(cfg["seed"]), "init")).astype(dtype)

    train_cfg = TrainConfig(
        learning_rate=float(cfg["lr"]),
        warmup_steps=int(cfg["warmup"]),
        batch_size=int(cfg["batch_size"]),
        total_steps=int(cfg["steps"]),
        weight_decay=float(cfg["weight_decay"]),
        mlm_pretrain_steps=int(cfg["mlm_pretrain_steps"]),
        mlm_mask_rate=float(cfg["mlm_mask_rate"]),
        seed=int(cfg["seed"]),
    )
    sequences = _read_sequences(corpus, vocab, model_cfg.n_max)

    val_fn = None
    if args.val_corpus:
        val_seqs = _read_sequences(_require_file(args.val_corpus, "validation corpus"), vocab, model_cfg.n_max)

        def val_fn(p, step):
            return elbo_eval(p, val_seqs, sched_params, table,
                             t_samples_per_example=2, seed=int(cfg["seed"]))

    resolved = {"format_version": FORMAT_VERSION, "config": cfg}
    (out / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")

    result = run_training(
        params, vocab, table, sequences, sched_params, train_cfg,
        out_dir=out,
        checkpoint_every=int(cfg["checkpoint_every"]),
        log_every=int(cfg["log_every"]),
        start_step=start_step,
        opt_state=opt_state,
        val_fn=val_fn,
        val_every=int(cfg["val_every"]),
    )
    final = out / "model.spnd"
    save_checkpoint(final, result.params, lam=sched_params.lam,
                    vocab_hash=vocab.content_hash(), step=result.final_step)
    last = result.metrics[-1] if result.metrics else {}
    print(f"trained to step {result.final_step}; last loss "
          f"{last.get('loss_total', float('nan')):.4f}; model -> {final}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    vocab, table = _load_prep(args.prep)
    ckpt = load_checkpoint(_require_file(args.checkpoint, "checkpoint"), dtype=np.float32)
    if ckpt.vocab_hash != vocab.content_hash():
        raise UsageError("vocab hash mismatch between checkpoint and prep directory")
    sched_params = ScheduleParams(num_steps=ckpt.params.config.num_steps, lam=ckpt.lam)
    try:
        sample_cfg = SampleConfig(
            length=args.length,
            num_reverse_iterations=args.iterations,
            top_k=args.top_k,
            temperature=args.temperature,
            seed=args.seed,
            remask=args.remask,
        )
        result = generate_batch(
            ckpt.params, sched_params, sample_cfg, table, args.num,
            stream(args.seed, "sample"), record_trajectory=args.trajectory is not None,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [detokenize(row, vocab) for row in result.sequences]
    out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    meta = {
        "format_version": FORMAT_VERSION,
        "config": {
            "checkpoint": str(args.checkpoint),
            "num": args.num,
            "length": args.length,
            "iterations": args.iterations,
            "top_k": args.top_k,
            "temperature": args.temperature,
            "seed": args.seed,
            "remask": args.remask,
            "lambda": ckpt.lam,
            "T": sched_params.num_steps,
            "time_mode": ckpt.params.config.mode,
        },
    }
    Path(str(out) + ".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if args.trajectory:
        with open(args.trajectory, "w", encoding="utf-8") as fh:
            for rec in result.trajectory:
                fh.write(json.dumps({
                    "iteration": rec["iteration"],
                    "t": rec["t"],
                    "text_with_masks": detokenize(rec["ids"], vocab),
                }) + "\n")
    print(f"wrote {len(lines)} samples -> {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    vocab, table = _load_prep(args.prep)
    ckpt = load_checkpoint(_require_file(args.checkpoint, "checkpoint"), dtype=np.float32)
    if ckpt.vocab_hash != vocab.content_hash():
        raise UsageError("vocab hash mismatch between checkpoint and prep directory")
    test_path = _require_file(args.test, "test corpus")
    sched_params = ScheduleParams(num_steps=ckpt.params.config.num_steps, lam=ckpt.lam)
    test_seqs = _read_sequences(test_path, vocab, ckpt.params.config.n_max)
    length = args.length or int(np.median([len(s) for s in test_seqs]))

    config_echo = {
        "checkpoint": str(args.checkpoint),
        "test": str(test_path),
        "num_gen": args.num_gen,
        "t_samples": args.t_samples,
        "length": length,
        "iterations": args.iterations,
        "top_k": args.top_k,
        "temperature": args.temperature,
        "seed": args.seed,
        "lambda": ckpt.lam,
        "T": sched_params.num_steps,
    }

    if args.sweep:
        grid = [(k, t) for t in (0.8, 1.0) for k in (1, 2, 5, 15, 30)]
        refs = [tuple(vocab.tokens[int(i)] for i in s) for s in test_seqs]
        rows = quality_diversity_sweep(
            ckpt.params, sched_params, table, vocab, refs, grid,
            num_per_point=args.num_gen, length=length,
            num_reverse_iterations=args.iterations, seed=args.seed,
        )
        sweep_path = Path(args.sweep)
        with sweep_path.open("w", encoding="utf-8") as fh:
            fh.write(f"# format_version={FORMAT_VERSION} config="
                     f"{json.dumps(config_echo, sort_keys=True)}\n")
            fh.write("k,temperature,bleu4,self_bleu4\n")
            for row in rows:
                fh.write(f"{row['top_k']},{row['temperature']},"
                         f"{row['bleu4']:.6f},{row['self_bleu4']:.6f}\n")
        print(f"wrote sweep ({len(rows)} grid points) -> {sweep_path}")
        return 0

    elbo = elbo_eval(ckpt.params, test_seqs, sched_params, table,
                     t_samples_per_example=args.t_samples, seed=args.seed)
    sample_cfg = SampleConfig(length=length, num_reverse_iterations=args.iterations,
                              top_k=args.top_k, temperature=args.temperature, seed=args.seed)
    gen = generate_batch(ckpt.params, sched_params, sample_cfg, table, args.num_gen,
                         stream(args.seed, "eval-gen"))
    gen_tokens = [tuple(vocab.tokens[int(i)] for i in row) for row in gen.sequences]
    ref_tokens = [tuple(vocab.tokens[int(i)] for i in s) for s in test_seqs]
    report = MetricsReport(
        elbo_nats_per_token=elbo,
        ppl_proxy=float(np.exp(elbo)),
        bleu4=bleu4(gen_tokens, ref_tokens),
        self_bleu4=self_bleu4(gen_tokens),
        num_samples=args.num_gen,
        config=config_echo,
    )
    Path(args.out).write_text(report.to_json() + "\n")
    print(f"elbo/token {elbo:.4f} ppl-proxy {report.ppl_proxy:.2f} "
          f"bleu4 {report.bleu4:.4f} self-bleu4 {report.self_bleu4:.4f} -> {args.out}")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    vocab, table = _load_prep(args.prep)
    ids = tokenize(args.text, vocab)
    if ids.size == 0:
        raise UsageError("--text produced no tokens")
    sched = spindle_schedule(table.h_for(ids), ScheduleParams(num_steps=args.T, lam=args.lam))
    out = Path(args.out)
    with out.open("w", encoding="utf-8") as fh:
        config_echo = {"text": args.text, "lambda": args.lam, "T": args.T}
        fh.write(f"# format_version={FORMAT_VERSION} config="
                 f"{json.dumps(config_echo, sort_keys=True)}\n")
        fh.write("t,position,alpha_bar\n")
        for t in range(sched.num_steps + 1):
            for i in range(sched.length):
                fh.write(f"{t},{i},{float(sched.alpha_bar[t, i])!r}\n")
    print(f"wrote schedule curves for {sched.length} positions "
          f"({sched.clamp_events} clamp events) -> {out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run_all(seed=args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status} {r.name}: {r.detail} [{r.seconds:.1f}s]")
        failed += 0 if r.ok else 1
    if failed:
        print(f"{failed}/{len(results)} checks failed")
        return 3
    print(f"all {len(results)} checks passed")
    return 0


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindle",
        description="Absorbing-state text diffusion with a per-token spindle schedule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build vocab + surprisal table from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--tokenizer", choices=("word", "char"), default="word")
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train a denoiser")
    p.add_argument("--corpus", required=True)
    p.add_argument("--prep", required=True, help="directory written by prepare")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config; flags override file values")
    p.add_argument("--preset", help=f"named preset: {sorted(PRESETS)}")
    p.add_argument("--time-mode", choices=("lte", "pte", "tad"), dest="time_mode")
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--T", type=int, dest="T")
    p.add_argument("--steps", type=int)
    p.add_argument("--mlm-pretrain-steps", type=int, dest="mlm_pretrain_steps")
    p.add_argument("--mlm-mask-rate", type=float, dest="mlm_mask_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup", type=int)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--layers", type=int)
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--heads", type=int)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--dropout", type=float)
    p.add_argument("--checkpoint-every", type=int, dest="checkpoint_every")
    p.add_argument("--log-every", type=int, dest="log_every")
    p.add_argument("--val-corpus", dest="val_corpus")
    p.add_argument("--val-every", type=int, dest="val_every")
    p.add_argument("--seed", type=int)
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--float64", action="store_true", help="train in float64 (slow)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sample", help="generate text from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prep", required=True)
    p.add_argument("--num", type=int, default=8)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--top-k", type=int, default=30, dest="top_k")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trajectory", help="also dump per-iteration states as JSONL")
    p.add_argument("--remask", action="store_true",
                   help="predict at masked positions, then redraw the mask over all "
                        "positions each iteration, so a revealed token can be masked "
                        "again (default: revealed tokens stay frozen)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("eval", help="metrics report or quality/diversity sweep")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prep", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--num-gen", type=int, default=100, dest="num_gen")
    p.add_argument("--t-samples", type=int, default=4, dest="t_samples")
    p.add_argument("--length", type=int)
    p.add_argument("--iterations", type=int, default=16)
    p.add_argument("--top-k", type=int, default=30, dest="top_k")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="report.json")
    p.add_argument("--sweep", help="write the (k, temperature) sweep CSV here instead")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("schedule", help="dump per-token retention curves as CSV")
    p.add_argument("--prep", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--lambda", type=float, default=0.3, dest="lam")
    p.add_argument("--T", type=int, default=64, dest="T")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("verify", help="run the full oracle verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
