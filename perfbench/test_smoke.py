"""Tiny-shape smoke test of the benchmark harness.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the library source on sys.path)
import spindle as sp  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Workload, generate  # noqa: E402

TINY = Workload(
    "tiny", vocab_size=64, num_steps=8, chains=2, length=8, iterations=4,
    train_lines=60, heldout_lines=8, t_samples=1, batch_size=4, num_layers=1,
    d_model=16, num_heads=2, n_max=16, min_len=3, max_len=12,
)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_without_failures(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    result, detail = run.run(TINY, seed=3, seconds=0.5, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert detail["failed_share"] == 0.0
    steps = detail["provenance"]["timed_ops"]["train_steps"]
    assert len(detail["train_losses"]) == 1 + steps, "warm-up plus a fixed number of steps"
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        for phase, layer in (("setup", "corpus"), ("train", "denoiser"), ("train", "training"),
                             ("sample", "sampling"), ("elbo", "evaluation"), ("ckpt", "denoiser")):
            assert m[f"{phase}.{layer}.calls"] > 0
        assert 0 < m["sample.denoiser.useful_row_frac"] <= 1
        assert m["ckpt.bytes"] > 0
        assert not hasattr(sp.forward, "__wrapped__"), "tracer left a wrapper installed"


def test_layer_metrics_survive_missing_functions():
    walls = dict.fromkeys(run.PHASES, 0.0)
    metrics = run.per_layer(Tracer(), walls, walls, 0)
    assert set(metrics) == set(declared("per_layer"))


def test_same_seed_same_inputs(tmp_path):
    a = generate(TINY, 5, tmp_path / "a")
    b = generate(TINY, 5, tmp_path / "b")
    c = generate(TINY, 6, tmp_path / "c")
    assert a.corpus_path.read_bytes() == b.corpus_path.read_bytes()
    assert a.corpus_path.read_bytes() != c.corpus_path.read_bytes()
    assert a.stats["word_types"] == 2 * TINY.vocab_size


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
