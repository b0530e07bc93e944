"""Operator CLI: prepare / train / sample / eval / schedule / verify.

Every command, given any flags and inputs, exits with one of three codes,
never with a traceback:
- 0: the work is done.
- 2: a usage error, found before any output is written: a flag argparse
  cannot parse, a setting its library owner refuses, a missing input, an
  input that is not UTF-8 or holds no usable line, a config file or preset
  that is not a settings object of the right types, or a checkpoint of
  another vocab or model. The message names the flag or the file.
- 3: a runtime failure: a damaged prep directory, checkpoint or metrics
  file, an output path that cannot be written, a fault in the work, a
  failed `verify` check, or a size that numpy refuses to allocate, which
  exits with numpy's message and names no flag. A `train` run stopped by
  SIGINT or SIGTERM exits 3 too.
The first such signal stops a run at the end of the step it is in: that
step's checkpoint, with the Adam state, is written, no model.spnd is, and the
command that resumes the run is printed. A second signal exits at once, and
a signal ignored at start stays ignored.
Every command is deterministic given --seed; outputs carry a format_version
and the fully resolved config (plain-text sample files get a .meta.json
sidecar instead).

A prep directory (`spindle prepare`) holds vocab.tsv, the tokens with their
counts, and stats.json, the settings. The surprisal table is not stored:
each command computes it from the counts and stats.json's smoothing.

The library owns each setting's default and range: a flag's default is
that of the field or `run_training` keyword it sets (for train settings,
through _TRAIN_DEFAULTS, also its type), and a value the library refuses is
a usage error naming the flag. Train settings resolve as defaults < --preset
< --config file < flags. A preset or config-file value must have its
default's type, except that an integer passes for a float: a bool, a null,
a list, or a string where a number belongs is a usage error naming the key.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shlex
import signal
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .corpus import (TOKENIZERS, UNK_ID, SurprisalTable, Vocab, _line_blocks, build_vocab,
                     detokenize, tokenize)
from .denoiser import MODES, DenoiserConfig, init_params, load_checkpoint, save_checkpoint
from .diffusion import ScheduleParams, spindle_alpha_bar_at, spindle_alpha_raw
from .evaluation import bleu4, elbo_eval, quality_diversity_sweep, self_bleu4
from .rng import stream
from .sampling import SampleConfig, check_sample_config, generate_batch
from .training import TrainConfig, check_intervals, opt_state_from_records, run_training

FORMAT_VERSION = 1

# The train settings that shape the model, each with its DenoiserConfig field.
_MODEL_FIELDS = {"time_mode": "mode", "T": "num_steps", "layers": "num_layers",
                 "d_model": "d_model", "heads": "num_heads", "n_max": "n_max",
                 "dropout": "dropout"}

# The train settings that TrainConfig holds, each with its field.
_TRAIN_FIELDS = {"lr": "learning_rate", "warmup": "warmup_steps", "steps": "total_steps",
                 **{k: k for k in ("batch_size", "weight_decay", "mlm_pretrain_steps",
                                   "mlm_mask_rate", "seed")}}

# The train settings that are `run_training` keywords, of the same name.
_INTERVALS = ("checkpoint_every", "log_every", "val_every")

# Every `spindle train` setting with the default of the library field or
# `run_training` keyword that owns it; the default's type is the setting's.
_TRAIN_DEFAULTS = {
    **{k: getattr(DenoiserConfig, f) for k, f in _MODEL_FIELDS.items()},
    "lam": ScheduleParams.lam,
    **{k: getattr(TrainConfig, f) for k, f in _TRAIN_FIELDS.items()},
    **{k: run_training.__kwdefaults__[k] for k in _INTERVALS},
}


def _flag(key: str) -> str:
    """The train flag that sets `key`."""
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


# The flag that sets each field of TrainConfig, DenoiserConfig, ScheduleParams
# and SampleConfig, for usage errors; a field without one keeps its name.
_FIELD_FLAGS = {
    **{f: _flag(k) for k, f in {**_MODEL_FIELDS, **_TRAIN_FIELDS, "lam": "lam"}.items()},
    **{k: _flag(k) for k in _INTERVALS},
    "length": "--length", "num_reverse_iterations": "--iterations", "top_k": "--top-k",
    "temperature": "--temperature", "max_vocab": "--vocab-size", "smoothing_count": "--smoothing",
}

# Full-scale training settings from the reference protocol. The paper's
# sampling settings are named in `spindle sample --help`.
PRESETS = {
    "paper-lm1b": {
        "lr": 3e-6,
        "warmup": 10_000,
        "batch_size": 32,
        "steps": 1_900_000,
        "T": 2048,
        "dropout": 0.1,
    }
}


class UsageError(Exception):
    pass


def _checked(fn, *args, **fields):
    """fn(*args, **fields) for a settings dataclass or check; a value it
    rejects is a usage error, naming the flag of the field its message
    starts with."""
    try:
        return fn(*args, **fields)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        raise UsageError(f"{_FIELD_FLAGS.get(field, field)} {rest}") from exc


def _require_file(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} not found: {p}")
    return p


def _read_text(path: Path) -> str:
    """A UTF-8 input file's text; another encoding is a usage error."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_lines(path: Path):
    """A UTF-8 input file's lines, read a block at a time; another encoding
    is a usage error."""
    try:
        for lines in _line_blocks(path):
            yield from lines
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_prep(prep_dir: str | Path):
    """The vocab of a prep directory and the surprisal table of its counts
    and stats.json's smoothing. A missing file is a usage error; a damaged
    stats.json, or a smoothing `SurprisalTable.from_counts` refuses, raises
    ValueError naming it."""
    prep = _require_file(prep_dir, "prep directory")
    vocab_path = _require_file(prep / "vocab.tsv", "vocab file")
    stats_path = _require_file(prep / "stats.json", "prep stats file")
    try:
        config = json.loads(stats_path.read_text(encoding="utf-8"))["config"]
        tokenizer, smoothing = config["tokenizer"], config["smoothing"]
        if tokenizer not in TOKENIZERS or type(smoothing) not in (int, float):  # bool is no number
            raise ValueError(f"tokenizer {json.dumps(tokenizer)} or smoothing "
                             f"{json.dumps(smoothing)} is not valid")
    except KeyError as exc:
        raise ValueError(f"{stats_path}: no {exc} key") from exc
    except (TypeError, ValueError) as exc:  # not JSON, not an object, or a bad value
        raise ValueError(f"{stats_path}: {exc}") from exc
    vocab = Vocab.load(vocab_path, tokenizer)
    try:
        return vocab, SurprisalTable.from_counts(vocab.counts, smoothing)
    except ValueError as exc:  # the smoothing is out of range
        raise ValueError(f"{stats_path}: {exc}") from exc


def _load_model(args: argparse.Namespace):
    """Prep tables, float32 checkpoint and its schedule for sample and eval."""
    vocab, table = _load_prep(args.prep)
    ckpt = load_checkpoint(_require_file(args.checkpoint, "checkpoint"), dtype=np.float32)
    if ckpt.vocab_hash != vocab.content_hash():
        raise UsageError(f"vocab hash mismatch between checkpoint {args.checkpoint} and prep "
                         f"directory {args.prep}")
    sched_params = ScheduleParams(num_steps=ckpt.params.config.num_steps, lam=ckpt.lam)
    return vocab, table, ckpt, sched_params


def _sample_config(args: argparse.Namespace, ckpt, sched_params, length: int) -> SampleConfig:
    """The sampling flags, checked against the model; a bad value is a usage error."""
    sample_cfg = _checked(SampleConfig, length=length, num_reverse_iterations=args.iterations,
                          top_k=args.top_k, temperature=args.temperature, seed=args.seed,
                          remask=getattr(args, "remask", False))
    _checked(check_sample_config, ckpt.params, sched_params, sample_cfg)
    return sample_cfg


def _make_parents(*paths: str | Path | None) -> None:
    """Create the parent directory of each output path given, before any work."""
    for path in paths:
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)


def _merge_config(args: argparse.Namespace) -> dict:
    """The train settings --preset, --config and the flags give, later ones
    winning; a preset or config-file value is checked against, and converted
    to, the type of its _TRAIN_DEFAULTS entry."""
    given = {}

    def merge(settings: dict, source: str) -> None:
        unknown = sorted(set(settings) - set(_TRAIN_DEFAULTS))
        if unknown:
            raise UsageError(f"{source} has unknown keys {unknown}; "
                             f"known: {sorted(_TRAIN_DEFAULTS)}")
        for key, value in settings.items():
            kind = type(_TRAIN_DEFAULTS[key])
            if kind is float and type(value) is int:
                value = float(value)
            if type(value) is not kind:
                raise UsageError(f"{source}: {key} must be {kind.__name__}, "
                                 f"got {json.dumps(value)}")
            given[key] = value

    preset = getattr(args, "preset", None)
    if preset:
        if preset not in PRESETS:
            raise UsageError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        merge(PRESETS[preset], f"preset {preset!r}")
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            payload = json.loads(_read_text(_require_file(config_path, "config file")))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {config_path} is not JSON: {exc}") from exc
        settings = payload.get("config", payload) if isinstance(payload, dict) else payload
        if not isinstance(settings, dict):
            raise UsageError(f"config file {config_path} holds no settings object")
        merge(settings, f"config file {config_path}")
    # argparse defaults for setting flags are all None, so a non-None value
    # means the flag was given explicitly and wins over preset/config file
    for k in _TRAIN_DEFAULTS:
        actual = getattr(args, k, None)
        if actual is not None:
            given[k] = actual
    return given


@contextlib.contextmanager
def _stop_requests():
    """A list the first SIGINT or SIGTERM in the block appends its number
    to; a second one exits with 3 at once. A signal ignored at start stays
    ignored, and each handler comes back after the block."""
    received = []

    def handle(signum, frame):
        if received:
            raise SystemExit(3)
        received.append(signum)

    before = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)
              if signal.getsignal(sig) is not signal.SIG_IGN}
    for sig in before:
        signal.signal(sig, handle)
    try:
        yield received
    finally:
        for sig, handler in before.items():
            signal.signal(sig, handler)


def _read_sequences(path: Path, vocab: Vocab, n_max: int) -> list[np.ndarray]:
    """Token ids of each nonempty line, cut to n_max; the count of cut lines
    goes to stderr. A file with no such line is a usage error."""
    seqs, cut = [], 0
    for line in _read_lines(path):
        ids = tokenize(line, vocab)
        if ids.size:
            cut += ids.size > n_max
            seqs.append(ids[:n_max])
    if not seqs:
        raise UsageError(f"no usable sequences in {path}")
    if cut:
        print(f"note: cut {cut} of {len(seqs)} lines in {path} to n_max={n_max} tokens",
              file=sys.stderr)
    return seqs


# --- commands ---------------------------------------------------------------------

def cmd_prepare(args: argparse.Namespace) -> int:
    corpus = _require_file(args.corpus, "corpus")
    num_lines = sum(1 for line in _read_lines(corpus) if line.strip())
    vocab = _checked(build_vocab, corpus, args.vocab_size, args.tokenizer)
    _checked(SurprisalTable.from_counts, vocab.counts, args.smoothing)  # checks --smoothing
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.tsv")
    stats = {
        "format_version": FORMAT_VERSION,
        "config": {
            "corpus": str(corpus),
            "vocab_size": args.vocab_size,
            "tokenizer": args.tokenizer,
            "smoothing": args.smoothing,
        },
        "num_lines": num_lines,
        "total_tokens": int(sum(vocab.counts)),
        "oov_folded": int(vocab.counts[UNK_ID]),
        "vocab_entries": len(vocab),
        "vocab_hash": vocab.content_hash(),
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(f"prepared vocab of {len(vocab)} entries -> {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    given = _merge_config(args)
    cfg = {**_TRAIN_DEFAULTS, **given}
    _checked(check_intervals, **{k: cfg[k] for k in _INTERVALS})
    if args.val_corpus and cfg["val_every"] <= 0:
        raise UsageError("--val-corpus needs --val-every > 0")
    if cfg["val_every"] > 0 and not args.val_corpus:
        raise UsageError("--val-every needs --val-corpus")
    train_cfg = _checked(TrainConfig, **{f: cfg[k] for k, f in _TRAIN_FIELDS.items()})
    vocab, table = _load_prep(args.prep)
    corpus = _require_file(args.corpus, "corpus")

    start_step = 0
    opt_state = None
    if args.resume:
        ckpt = load_checkpoint(_require_file(args.resume, "checkpoint"), dtype=np.float32)
        if ckpt.vocab_hash != vocab.content_hash():
            raise UsageError(f"vocab hash mismatch: checkpoint {args.resume} was trained on "
                             f"another vocab than prep directory {args.prep}")
        if not ckpt.extra_tensors:
            raise UsageError(f"{args.resume} holds no optimizer state; resume from a "
                             "checkpoint_*.spnd file written during training")
        params = ckpt.params
        opt_state = opt_state_from_records(params, ckpt.extra_tensors)
        start_step = ckpt.step or 0
        model_cfg = params.config
        # The run continues the checkpoint's schedule and model; a flag,
        # preset or config file that asks for another one is refused.
        held = {"lam": ckpt.lam, **{k: getattr(model_cfg, f) for k, f in _MODEL_FIELDS.items()}}
        for key, value in held.items():
            if given.get(key, value) != value:
                raise UsageError(f"{_flag(key)} {given[key]} contradicts the checkpoint's {value}")
        cfg.update(held)
    else:
        model_cfg = _checked(DenoiserConfig, vocab_size=len(vocab),
                             **{f: cfg[k] for k, f in _MODEL_FIELDS.items()})
        params = init_params(model_cfg, stream(cfg["seed"], "init")).astype(np.float32)
    sched_params = _checked(ScheduleParams, num_steps=cfg["T"], lam=cfg["lam"])
    val_path = _require_file(args.val_corpus, "validation corpus") if args.val_corpus else None

    # --out is made before the corpora are tokenized, so an unusable one
    # fails at once; a corpus refused as a usage error removes what was made.
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    try:
        sequences = _read_sequences(corpus, vocab, model_cfg.n_max)
        val_seqs = _read_sequences(val_path, vocab, model_cfg.n_max) if val_path else None
    except UsageError:
        for d in made:
            d.rmdir()
        raise

    val_fn = None
    if val_path:
        def val_fn(p, step):
            return elbo_eval(p, val_seqs, sched_params, table,
                             t_samples_per_example=2, seed=cfg["seed"])

    resolved = {"format_version": FORMAT_VERSION, "config": cfg}
    (out / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")

    with _stop_requests() as received:
        result = run_training(
            params, vocab, table, sequences, sched_params, train_cfg,
            out_dir=out,
            checkpoint_every=cfg["checkpoint_every"],
            log_every=cfg["log_every"],
            start_step=start_step,
            opt_state=opt_state,
            val_fn=val_fn,
            val_every=cfg["val_every"],
            stop_fn=lambda metrics, step: bool(received),
        )
    total = train_cfg.mlm_pretrain_steps + train_cfg.total_steps
    if result.final_step < total:
        ckpt = out / f"checkpoint_{result.final_step:07d}.spnd"
        resume = ["spindle", "train", "--corpus", str(corpus), "--prep", str(args.prep),
                  "--out", str(out), "--config", str(out / "config.json"), "--resume", str(ckpt)]
        if val_path:
            resume += ["--val-corpus", str(val_path)]
        print(f"stopped by {signal.Signals(received[0]).name} at step {result.final_step} of "
              f"{total}; checkpoint -> {ckpt}; no model.spnd written\n"
              f"resume with: {shlex.join(resume)}", file=sys.stderr)
        return 3
    final = out / "model.spnd"
    save_checkpoint(final, result.params, lam=sched_params.lam,
                    vocab_hash=vocab.content_hash(), step=result.final_step)
    last = result.metrics[-1] if result.metrics else {}
    print(f"trained to step {result.final_step}; last loss "
          f"{last.get('loss_total', float('nan')):.4f}; model -> {final}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.num < 1:
        raise UsageError(f"--num must be >= 1, got {args.num}")
    vocab, table, ckpt, sched_params = _load_model(args)
    sample_cfg = _sample_config(args, ckpt, sched_params, args.length)
    out = Path(args.out)
    _make_parents(out, args.trajectory)
    result = generate_batch(
        ckpt.params, sched_params, sample_cfg, table, args.num,
        stream(args.seed, "sample"), record_trajectory=args.trajectory is not None,
    )

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
    if args.num_gen < 2:
        raise UsageError(f"--num-gen must be >= 2 for self-BLEU, got {args.num_gen}")
    if args.t_samples < 1:
        raise UsageError(f"--t-samples must be >= 1, got {args.t_samples}")
    vocab, table, ckpt, sched_params = _load_model(args)
    test_path = _require_file(args.test, "test corpus")
    test_seqs = _read_sequences(test_path, vocab, ckpt.params.config.n_max)
    length = args.length
    if length is None:
        length = int(np.median([len(s) for s in test_seqs]))
    sample_cfg = _sample_config(args, ckpt, sched_params, length)
    _make_parents(args.sweep or args.out)

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
        rows = quality_diversity_sweep(
            ckpt.params, sched_params, table, test_seqs, grid,
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
    gen = generate_batch(ckpt.params, sched_params, sample_cfg, table, args.num_gen,
                         stream(args.seed, "eval-gen"))
    report = {
        "format_version": FORMAT_VERSION,
        "elbo_nats_per_token": elbo,
        "ppl_proxy": float(np.exp(elbo)),
        "bleu4": bleu4(gen.sequences, test_seqs),
        "self_bleu4": self_bleu4(gen.sequences),
        "num_samples": args.num_gen,
        "config": config_echo,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"elbo/token {elbo:.4f} ppl-proxy {report['ppl_proxy']:.2f} "
          f"bleu4 {report['bleu4']:.4f} self-bleu4 {report['self_bleu4']:.4f} -> {args.out}")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    sched_params = _checked(ScheduleParams, num_steps=args.T, lam=args.lam)
    vocab, table = _load_prep(args.prep)
    ids = tokenize(args.text, vocab)
    if ids.size == 0:
        raise UsageError("--text produced no tokens")
    h = table.h_for(ids)
    _make_parents(args.out)
    steps = np.arange(args.T + 1)
    alpha_bar = spindle_alpha_bar_at(h, steps, sched_params)
    raw = spindle_alpha_raw(h, steps[1:-1], sched_params)
    clamp_events = int(((raw < 0.0) | (raw > 1.0)).sum())
    out = Path(args.out)
    with out.open("w", encoding="utf-8") as fh:
        config_echo = {"text": args.text, "lambda": args.lam, "T": args.T}
        fh.write(f"# format_version={FORMAT_VERSION} config="
                 f"{json.dumps(config_echo, sort_keys=True)}\n")
        fh.write("t,position,alpha_bar\n")
        for t, row in enumerate(alpha_bar):
            for i, value in enumerate(row):
                fh.write(f"{t},{i},{float(value)!r}\n")
    print(f"wrote schedule curves for {len(h)} positions "
          f"({clamp_events} clamp events) -> {out}")
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

    p = sub.add_parser("prepare", help="write vocab.tsv and stats.json from a corpus; the "
                                        "surprisal table is computed from them, not stored")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab-size", type=int, required=True,
                   help="entries in all, the four reserved ids included")
    p.add_argument("--tokenizer", choices=TOKENIZERS, default="word")
    p.add_argument("--smoothing", type=float, default=1.0,
                   help="added to each content token's count; finite and > 0, so every "
                        "token has a finite surprisal (default 1.0)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser(
        "train", help="train a denoiser",
        description="Train a denoiser. The first SIGINT or SIGTERM stops the run at the end "
                    "of its step: that step's checkpoint, with the Adam state, is written, "
                    "no model.spnd is, the resume command is printed, and the exit code is "
                    "3. A second signal exits with 3 at once.")
    p.add_argument("--corpus", required=True)
    p.add_argument("--prep", required=True, help="directory written by prepare")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config; flags override file values")
    p.add_argument("--preset", help=f"named preset: {sorted(PRESETS)}")
    for key, default in _TRAIN_DEFAULTS.items():
        p.add_argument(_flag(key), dest=key, type=type(default), help=f"default {default}",
                       choices=MODES if key == "time_mode" else None)
    p.add_argument("--val-corpus", dest="val_corpus")
    p.add_argument("--resume", help="checkpoint to resume from; its lambda, time mode, T "
                                    "and model shape are kept")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser(
        "sample", help="generate text from a checkpoint",
        description="Generate text from a checkpoint. The paper's LM1B setting is "
                    "--length 64 --top-k 30 --iterations 128, on a T=2048 model "
                    "(spindle train --preset paper-lm1b).")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prep", required=True)
    p.add_argument("--num", type=int, default=8)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--top-k", type=int, default=SampleConfig.top_k, dest="top_k")
    p.add_argument("--temperature", type=float, default=SampleConfig.temperature)
    p.add_argument("--seed", type=int, default=SampleConfig.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--trajectory", help="also dump per-iteration states as JSONL")
    p.add_argument("--remask", action="store_true",
                   help="predict at masked positions, then redraw the mask over all "
                        "positions each iteration, so a revealed token can be masked "
                        "again (default: revealed tokens stay frozen)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser(
        "eval", help="metrics report or quality/diversity sweep",
        description="Write a metrics report, or a quality/diversity sweep. The report's "
                    "elbo_nats_per_token (and ppl_proxy, its exp) is the paper's objective, "
                    "scored with the spindle schedule of each true test line. For a model "
                    "trained at --lambda 0 it bounds the negative log-likelihood (NLL) of "
                    "the lines `spindle sample` draws with --iterations T, --top-k of the "
                    "whole vocabulary, --temperature 1 and no --remask. At lambda > 0 it "
                    "does not: the "
                    "sampler takes its schedule from its own predicted line, and the value "
                    "can understate its NLL (on tiny tad models at lambda 0.3, on 8 of 25 "
                    "sequences, by up to 0.64 nats).")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prep", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--num-gen", type=int, default=100, dest="num_gen")
    p.add_argument("--t-samples", type=int, default=4, dest="t_samples")
    p.add_argument("--length", type=int)
    p.add_argument("--iterations", type=int, default=16)
    p.add_argument("--top-k", type=int, default=SampleConfig.top_k, dest="top_k")
    p.add_argument("--temperature", type=float, default=SampleConfig.temperature)
    p.add_argument("--seed", type=int, default=SampleConfig.seed)
    p.add_argument("--out", default="report.json")
    p.add_argument("--sweep", help="write the (k, temperature) sweep CSV here instead")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("schedule", help="dump per-token retention curves as CSV")
    p.add_argument("--prep", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--lambda", type=float, default=ScheduleParams.lam, dest="lam")
    p.add_argument("--T", type=int, default=DenoiserConfig.num_steps, dest="T")
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"runtime failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
