"""Benchmark of the spindle library: one workload per run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 42 --trace 0

Each run generates its inputs from --seed, sets the library up from a
corpus file, then times a fixed number of training steps, sampling calls and
ELBO evaluations, checking every operation's output. The number depends on
the workload and --seconds alone, and is sized so that a run takes about
--seconds on a 2-core x86_64 box. With --trace 0 the last
stdout line carries the end-to-end metrics. With --trace 1 every operation runs
untraced and traced, and the last line carries the per-layer metrics. The
line before it holds provenance, corpus statistics, output fingerprints and
failure details; the full record goes to .bench_build/perfbench/.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    # BLAS threads must be pinned before numpy is first imported.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    if not (SRC / "spindle" / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found under {SRC}")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import spindle as sp  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, eval_model, generate  # noqa: E402

WORK_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE_SECONDS = 42  # the --seconds a workload's train_steps and eval_rounds are sized for
SETUP_REPEATS = 7
SETUP_PAIRS = 3  # untraced/traced set-up pairs in a traced run, the first a warm-up
MIN_TIMED_OPS = 2  # after one warm-up operation per phase; even
WARMUP = "warmup"  # phase of traced warm-up operations, left out of the per-layer metrics
PHASES = ("setup", "train", "sample", "elbo", "ckpt")

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_tok_per_s": "tok/s",
    "sample_seq_per_s": "seq/s",
    "elbo_tok_per_s": "tok/s",
    "peak_rss_mb": "MB",
}

# (phase, layer, metric name, function whose self time it reports)
NAMED_FN_SELF = (
    ("train", "denoiser", "forward", "forward"),
    ("train", "denoiser", "backward", "backward"),
    ("train", "training", "loss", "diffusion_loss_batch"),
    ("train", "training", "adam_step", "adam_step"),
    ("sample", "denoiser", "forward", "forward"),
    ("elbo", "denoiser", "forward", "forward"),
    ("ckpt", "denoiser", "save_checkpoint", "save_checkpoint"),
    ("ckpt", "denoiser", "load_checkpoint", "load_checkpoint"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {}
    for phase in PHASES:
        for layer in LAYERS:
            units[f"{phase}.{layer}.calls"] = "count"
            units[f"{phase}.{layer}.self_s"] = "s"
    for phase, layer, metric, _ in NAMED_FN_SELF:
        units[f"{phase}.{layer}.{metric}.self_s"] = "s"
    for phase in ("train", "sample"):
        units[f"{phase}.denoiser.useful_row_frac"] = "fraction"
        units[f"{phase}.diffusion.grid_bytes"] = "bytes"
    units["sample.unchanged_row_frac"] = "fraction"
    units["ckpt.bytes"] = "bytes"
    for phase in PHASES:
        units[f"{phase}.wall_s"] = "s"
        units[f"{phase}.trace_overhead_frac"] = "fraction"
    return units


def timed_ops(w: Workload, seconds: float) -> dict[str, int]:
    """Timed training steps and sample/elbo rounds of a run, each phase after
    one warm-up operation. They depend on the workload and `seconds` only, so
    every commit does the same work and keeps the same caches."""
    scale = seconds / REFERENCE_SECONDS
    return {"train_steps": max(MIN_TIMED_OPS, round(w.train_steps * scale)),
            "eval_rounds": max(MIN_TIMED_OPS, 2 * round(w.eval_rounds * scale / 2))}


# --- failure accounting ----------------------------------------------------------------

@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, phase: str, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{phase}: {what}")


@dataclass
class State:
    """Everything setup produces, plus the fixed sampling/eval model."""

    vocab: object
    table: object
    train: list
    heldout: list
    params: object
    sched: object
    eval_params: object = None


# --- phases --------------------------------------------------------------------------------

def _read_sequences(path: Path, vocab) -> list:
    return [sp.tokenize(line, vocab) for line in path.read_text(encoding="utf-8").split("\n") if line]


def setup(w: Workload, corpus_path: Path, heldout_path: Path, seed: int) -> State:
    """Vocabulary and surprisal table from the corpus file, tokenized splits,
    and a freshly initialised float32 model."""
    vocab = sp.build_vocab(corpus_path, w.vocab_size)
    table = sp.surprisal_table(corpus_path, vocab)
    train = _read_sequences(corpus_path, vocab)
    heldout = _read_sequences(heldout_path, vocab)
    cfg = sp.DenoiserConfig(
        vocab_size=len(vocab), mode=w.time_mode, num_layers=w.num_layers,
        d_model=w.d_model, num_heads=w.num_heads, n_max=w.n_max, num_steps=w.num_steps,
    )
    params = sp.init_params(cfg, seed).astype(np.dtype(w.dtype))
    return State(vocab, table, train, heldout, params, sp.ScheduleParams(w.num_steps, w.lam))


def train_phase(st: State, w: Workload, seed: int, steps: int, ops: Ops,
                tracer: Tracer | None = None) -> dict:
    """One run_training call: a warm-up step, then `steps` timed steps."""
    stamps = [time.perf_counter()]
    losses: list[float] = []

    def stop(metrics, step):
        stamps.append(time.perf_counter())
        ops.attempted += 1
        record = metrics[-1]
        losses.append(record["loss_total"])
        if not math.isfinite(record["loss_total"]):
            ops.fail("train", f"non-finite loss at step {step}")
        if record.get("skipped_update"):
            ops.fail("train", f"skipped Adam update at step {step}")
        if tracer is not None:
            tracer.start_op("train")
        return len(losses) > steps

    cfg = sp.TrainConfig(batch_size=w.batch_size, total_steps=10**9, seed=seed)
    if tracer is not None:
        tracer.start_op(WARMUP)
    result = None
    try:
        result = sp.run_training(st.params.copy(), st.vocab, st.table, st.train, st.sched, cfg,
                                 log_every=1, stop_fn=stop)
    except Exception as exc:  # a failed step is counted, not fatal to the run
        ops.attempted += 1
        ops.fail("train", repr(exc))
    # The warm-up step comes first and includes run_training's own set-up.
    return {"result": result, "times": list(np.diff(stamps)), "losses": losses}


def _op_loop(kinds: dict, rounds: int, ops: Ops,
             tracer: Tracer | None = None) -> dict[str, dict[str, list]]:
    """Run one operation of each kind per round, `run_op(i)` for round i: a
    warm-up round, then `rounds` timed rounds. Interleaving the kinds lets
    each see the machine over the same stretch of time.

    With a tracer every operation runs twice in a row, untraced and traced,
    so that both runs of a pair see the same machine state; the order
    alternates by round, so over an even number of timed rounds neither side
    gets the warmer caches more often.
    """
    out = {phase: {"times": [], "traced": [], "outputs": []} for phase in kinds}
    for i in range(1 + rounds):
        for phase, run_op in kinds.items():
            passes = (None,) if tracer is None else (None, tracer)[:: 1 if i % 2 else -1]
            for tr in passes:
                ops.attempted += 1
                if tr is not None:
                    tr.start_op(phase if i else WARMUP)
                    tr.install()
                t0 = time.perf_counter()
                try:
                    result = run_op(i)
                except Exception as exc:  # a failed operation is counted, not fatal to the run
                    ops.fail(phase, repr(exc))
                    result = None
                finally:
                    dt = time.perf_counter() - t0
                    if tr is not None:
                        tr.uninstall()
                out[phase]["traced" if tr is not None else "times"].append(dt)
                if tr is None:
                    out[phase]["outputs"].append(result)
    return out


def sample_op(st: State, w: Workload, seed: int, ops: Ops):
    """generate_batch call i; checks the ids and returns a digest of them."""
    cfg = sp.SampleConfig(length=w.length, num_reverse_iterations=w.iterations,
                          top_k=w.top_k, seed=seed)
    k = len(st.vocab)
    special = [sp.MASK_ID, sp.PAD_ID, sp.CLS_ID]

    def run_op(i):
        res = sp.generate_batch(st.eval_params, st.sched, cfg, st.table, w.chains,
                                np.random.default_rng([seed, 2, i]))
        seqs = np.asarray(res.sequences)
        if seqs.shape != (w.chains, w.length):
            ops.fail("sample", f"call {i}: shape {seqs.shape}")
        elif np.isin(seqs, special).any() or (seqs >= k).any() or (seqs < 0).any():
            ops.fail("sample", f"call {i}: MASK/PAD/CLS or out-of-range id in output")
        return hashlib.sha256(np.ascontiguousarray(seqs, dtype="<i8").tobytes()).hexdigest()[:16]

    return run_op


def elbo_op(st: State, w: Workload, seed: int, ops: Ops):
    """elbo_eval call i over the held-out split; the value must be finite."""
    def run_op(i):
        value = float(sp.elbo_eval(st.eval_params, st.heldout, st.sched, st.table,
                                   t_samples_per_example=w.t_samples, seed=seed * 1000 + i))
        if not math.isfinite(value):
            ops.fail("elbo", f"call {i}: non-finite ELBO {value}")
        return value

    return run_op


def ckpt_phase(st: State, trained, w: Workload, seed: int, ops: Ops, tracer: Tracer) -> dict:
    """Save and reload the trained model with its Adam state; the float32
    round trip must be exact."""
    path = WORK_DIR / f"ckpt-{w.name}-{seed}.spnd"
    params, opt = trained.params, trained.opt_state
    vocab_hash = st.vocab.content_hash()
    extra = {f"opt.m.{k}": v for k, v in opt.m.items()}
    extra.update({f"opt.v.{k}": v for k, v in opt.v.items()})

    def run_op(i):
        sp.save_checkpoint(path, params, lam=w.lam, vocab_hash=vocab_hash,
                           step=trained.final_step, extra_tensors=extra)
        size = path.stat().st_size
        ckpt = sp.load_checkpoint(path, dtype=params.dtype)
        saved = {**params.tensors, **extra}
        loaded = {**ckpt.params.tensors, **ckpt.extra_tensors}
        if saved.keys() != loaded.keys() or any(
            not np.array_equal(saved[k], loaded[k]) for k in saved
        ):
            ops.fail("ckpt", f"round trip {i} changed the tensors")
        return size

    try:
        out = _op_loop({"ckpt": run_op}, MIN_TIMED_OPS, ops, tracer)["ckpt"]
    finally:
        path.unlink(missing_ok=True)
    return {**out, "bytes": out["outputs"][0] or 0}


# --- results ---------------------------------------------------------------------------------

def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(w: Workload, counts: dict[str, int]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": _git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "dtype": w.dtype,
        "workload": w.shape(),
        "timed_ops": counts,
    }


def corpus_stats(st: State, generated: dict) -> dict:
    tokens = np.concatenate(st.train)
    return {
        **generated,
        "vocab_entries": len(st.vocab),
        "unk_share": float((tokens == sp.UNK_ID).mean()),
        "heldout_tokens": int(sum(len(x) for x in st.heldout)),
    }


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _overhead(plain: list[float], traced: list[float]) -> float:
    """Relative cost of tracing over paired operations, warm-up left out."""
    plain, traced = sum(plain[1:]), sum(traced[1:])
    return (traced - plain) / plain if plain else 0.0


def _rate(work: float, times: list[float]) -> float:
    return work / statistics.median(times) if times else 0.0


def end_to_end(record: dict) -> dict:
    """Medians over the timed operations, warm-ups left out."""
    work = record["work"]
    values = {
        "setup_s": statistics.median(record["setup_s"]),
        "train_tok_per_s": _rate(work["train_tokens_per_step"], record["train_step_s"]),
        "sample_seq_per_s": _rate(work["chains"], record["sample_call_s"][1:]),
        "elbo_tok_per_s": _rate(work["elbo_tokens"], record["elbo_call_s"][1:]),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer: Tracer, walls: dict, overhead: dict, ckpt_bytes: int) -> dict:
    by_layer, by_fn = tracer.self_times()
    c = tracer.counters
    values = {}
    for phase in PHASES:
        for layer in LAYERS:
            calls, own = by_layer.get((phase, layer), (0, 0.0))
            values[f"{phase}.{layer}.calls"] = calls
            values[f"{phase}.{layer}.self_s"] = own
    for phase, layer, metric, fn in NAMED_FN_SELF:
        values[f"{phase}.{layer}.{metric}.self_s"] = by_fn.get((phase, layer, fn), (0, 0.0))[1]
    for phase in ("train", "sample"):
        head = c[f"{phase}.denoiser.head_rows"]
        values[f"{phase}.denoiser.useful_row_frac"] = (
            c[f"{phase}.denoiser.masked_rows"] / head if head else 0.0)
        values[f"{phase}.diffusion.grid_bytes"] = c[f"{phase}.diffusion.grid_bytes"]
    fwd_rows = c["sample.forward_rows"]
    values["sample.unchanged_row_frac"] = c["sample.unchanged_rows"] / fwd_rows if fwd_rows else 0.0
    values["ckpt.bytes"] = ckpt_bytes
    for phase in PHASES:
        values[f"{phase}.wall_s"] = walls[phase]
        values[f"{phase}.trace_overhead_frac"] = overhead[phase]
    units = per_layer_units()
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


# --- entry points ---------------------------------------------------------------------------

def _timed_setup(w: Workload, gen, seed: int) -> tuple[State, float]:
    t0 = time.perf_counter()
    state = setup(w, gen.corpus_path, gen.heldout_path, seed)
    return state, time.perf_counter() - t0


def _eval_kinds(st: State, w: Workload, seed: int, ops: Ops) -> dict:
    return {"sample": sample_op(st, w, seed, ops), "elbo": elbo_op(st, w, seed, ops)}


def _outcome(st: State, gen, ops: Ops, train: dict, sample: dict, elbo: dict) -> dict:
    """Corpus statistics, fingerprints and failure accounting of one process."""
    return {
        "corpus": corpus_stats(st, gen.stats),
        "fingerprints": {
            "train_losses": _digest(train["losses"]),
            "samples": _digest(sample["outputs"]),
            "elbo": _digest(elbo["outputs"]),
        },
        "train_losses": train["losses"],
        "elbo_values": elbo["outputs"],
        "ops": {"attempted": ops.attempted, "failed": ops.failed, "failures": ops.failures},
    }


def measure(w: Workload, seed: int, counts: dict[str, int]) -> dict:
    """One untraced measurement in this process; returns its raw record."""
    gen = generate(w, seed, WORK_DIR)
    ops = Ops()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        st, dt = _timed_setup(w, gen, seed)
        setup_times.append(dt)
    st.eval_params = eval_model(st.params, seed)
    train = train_phase(st, w, seed, counts["train_steps"], ops)
    evals = _op_loop(_eval_kinds(st, w, seed, ops), counts["eval_rounds"], ops)
    return {
        "setup_s": setup_times,
        "train_step_s": train["times"][1:],
        "sample_call_s": evals["sample"]["times"],
        "elbo_call_s": evals["elbo"]["times"],
        "work": {
            "train_tokens_per_step": w.batch_size * float(np.mean([len(x) for x in st.train])),
            "chains": w.chains,
            "elbo_tokens": w.t_samples * sum(len(x) for x in st.heldout),
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **_outcome(st, gen, ops, train, evals["sample"], evals["elbo"]),
    }


def trace_run(w: Workload, seed: int, counts: dict[str, int]) -> tuple[dict, dict]:
    """Per-layer metrics. Operations run untraced and traced (paired where
    they can be); the overhead compares the two. Each phase's warm-up
    operation is left out of the overhead and of the per-layer metrics.
    Returns (metrics, detail record)."""
    gen = generate(w, seed, WORK_DIR)
    ops = Ops()
    tracer = Tracer()
    plain, traced = {"setup": []}, {"setup": []}
    for i in range(SETUP_PAIRS):
        st, dt = _timed_setup(w, gen, seed)
        plain["setup"].append(dt)
        with tracer:
            tracer.start_op("setup" if i else WARMUP)
            st, dt = _timed_setup(w, gen, seed)
        traced["setup"].append(dt)
    st.eval_params = eval_model(st.params, seed)

    untraced = train_phase(st, w, seed, counts["train_steps"], ops)
    with tracer:
        train = train_phase(st, w, seed, counts["train_steps"], ops, tracer)
    plain["train"], traced["train"] = untraced["times"], train["times"]

    evals = _op_loop(_eval_kinds(st, w, seed, ops), counts["eval_rounds"], ops, tracer)
    plain["ckpt"] = traced["ckpt"] = [0.0]
    ckpt_bytes = 0
    if train["result"] is not None:
        evals["ckpt"] = ckpt_phase(st, train["result"], w, seed, ops, tracer)
        ckpt_bytes = evals["ckpt"]["bytes"]
    for phase, out in evals.items():
        plain[phase], traced[phase] = out["times"], out["traced"]
    walls = {p: sum(traced[p][1:]) for p in PHASES}
    overhead = {p: _overhead(plain[p], traced[p]) for p in PHASES}
    metrics = per_layer(tracer, walls, overhead, ckpt_bytes)
    (WORK_DIR / f"spans-{w.name}-{seed}.json").write_text(json.dumps(tracer.dump()))
    detail = {"untraced_s": plain, "traced_s": traced,
              **_outcome(st, gen, ops, train, evals["sample"], evals["elbo"])}
    return metrics, detail


def run(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record). A traced run
    does half the operations of an untraced one, each of them twice."""
    counts = timed_ops(w, seconds / 2 if trace else seconds)
    if trace:
        metrics, record = trace_run(w, seed, counts)
    else:
        record = measure(w, seed, counts)
        metrics = end_to_end(record)
    attempted, failed = record["ops"]["attempted"], record["ops"]["failed"]
    detail = {"provenance": provenance(w, counts), "seed": seed, "seconds": seconds,
              "trace": int(trace), **record, "failed_share": failed / attempted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result, detail = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    (WORK_DIR / name).write_text(json.dumps({**detail, "result": result}, indent=1))
    summary = {k: v for k, v in detail.items() if k != "train_losses"}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
