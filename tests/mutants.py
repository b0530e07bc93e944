"""Mutation checks: a table of named defects, each with the tests that must
catch it.

    python tests/mutants.py [--only NAME]

exports HEAD with `git archive` into a temporary directory and runs there,
with pytest, every test the table names on the unmutated tree, which must
pass. Then, for each mutant, it puts the replacement in place of the
snippet, runs only that mutant's tests, restores the file and prints
"killed" (a test failed), "SURVIVED" (they all passed) or "error" (pytest
could not run them), with the time taken. It exits 0 where every mutant
was killed. Commit a change before running it on that change.

Pytest does not collect this file; `test_mutants.py` checks that each
snippet occurs exactly once in its file and that each named test exists, so
a change that moves the code a mutant edits has to update its row.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # from the repository root
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest ids, at least one of which must fail


T, TR, S, D, C, CO, G = (f"tests/test_{name}.py::" for name in (
    "threads", "training", "sampling", "denoiser", "cli", "corpus", "golden"))
GOLDEN_ARMS = G + "test_the_session_is_the_same_on_two_threads_under_stress"

MUTANTS = (
    # the training step
    Mutant("adam-beta1-last-bit", "src/spindle/training.py",
           "ADAM_BETA1 = 0.9\n", "ADAM_BETA1 = 0.9000000000000001\n",
           (G + "test_the_session_gives_the_committed_digest[adam float64]",)),
    Mutant("linear-grad-without-bias", "src/spindle/denoiser.py",
           "    grads[b] += _sum_rows(d)\n", "",
           (D + "test_gradients_match_finite_differences",)),
    Mutant("weight-grad-write-without-plus-zero", "src/spindle/denoiser.py",
           "        _matgrad(a, d, out=g)\n        g += 0.0\n",
           "        _matgrad(a, d, out=g)\n",
           (D + "test_weight_gradient_written_into_a_zero_buffer_is_the_accumulated_one",)),
    Mutant("old-adam-state-kept-beside-the-fresh-one", "src/spindle/training.py",
           "                    opt_state = None  # a fresh optimizer per phase, built once the "
           "old one is gone\n", "",
           (TR + "test_a_training_step_holds_one_adam_state_and_one_gradient_buffer",)),
    Mutant("gradients-kept-through-the-next-loss", "src/spindle/training.py",
           "                del grads  # gone before the next step's loss fills a new buffer\n",
           "",
           (TR + "test_a_training_step_holds_one_adam_state_and_one_gradient_buffer",)),
    Mutant("pass-permutation-with-replacement", "src/spindle/training.py",
           '                stream(self.seed, "epoch", epoch).shuffle(self._perm)\n',
           '                self._perm = stream(self.seed, "epoch", epoch).integers(\n'
           "                    0, self.n, self.n, dtype=self._perm.dtype)\n",
           (TR + "test_shuffled_passes_see_every_line_once_per_pass",)),
    Mutant("iid-t-draws", "src/spindle/training.py",
           "    return rng.permutation(np.minimum(t, num_steps))\n",
           "    return rng.integers(1, num_steps + 1, size=batch_size)\n",
           (TR + "test_stratified_t_full_batch_is_permutation",)),
    # the sampler
    Mutant("predict-halves-joined-in-reverse", "src/spindle/sampling.py",
           "    return tuple(np.concatenate(arrays) for arrays in zip(*out))\n",
           "    return tuple(np.concatenate(arrays) for arrays in zip(*out[::-1]))\n",
           (S + "test_desk_shaped_tad_sampling_matches_the_slow_reference",)),
    # the second core
    Mutant("tasks-no-wait-before-a-hand-over", "src/spindle/_threads.py",
           "            if len(handed) >= slots:\n", "            if False:\n",
           (TR + "test_a_failing_group_ends_the_call_with_no_task_left_running",)),
    Mutant("tasks-end-with-the-youngest-error", "src/spindle/_threads.py",
           "            for future in handed:\n",
           "            for future in reversed(handed):\n",
           (T + "test_the_oldest_failing_task_ends_the_block_though_a_younger_one_raised_first",)),
    Mutant("tasks-body-error-first", "src/spindle/_threads.py",
           "        finally:\n            wait(handed)\n            for future in handed:\n"
           "                future.result()\n",
           "        finally:\n            wait(handed)\n        for future in handed:\n"
           "            future.result()\n",
           (TR + "test_a_backward_and_a_later_forward_that_both_raise_end_with_the_backward",)),
    Mutant("task-without-the-error-callback", "src/spindle/_threads.py",
           "    with np.errstate(call=errcall, **errstate):\n",
           "    with np.errstate(**errstate):\n",
           (T + "test_a_task_keeps_the_handing_threads_error_callback",)),
    Mutant("blas-not-restored", "src/spindle/_threads.py",
           "    finally:\n        set_(before)\n", "    finally:\n        pass\n",
           (TR + "test_blas_runs_one_thread_during_a_call_and_its_count_comes_back",)),
    Mutant("split-head-skips-a-column", "src/spindle/denoiser.py",
           "        half(np.s_[cut:])\n", "        half(np.s_[cut + 1:])\n",
           (GOLDEN_ARMS,)),
    Mutant("backward-keeps-the-head-input", "src/spindle/denoiser.py",
           'hand_over(_weight_grad, cache.pop("hf"), dlogits,',
           'hand_over(_weight_grad, cache["hf"], dlogits,',
           (D + "test_backward_consumes_its_cache",)),
    Mutant("adam-skips-its-second-list", "src/spindle/training.py",
           "            run(second)\n", "            pass\n",
           (GOLDEN_ARMS,)),
    # the second core left idle: every byte holds, the pool-use counts do not
    Mutant("head-never-split", "src/spindle/denoiser.py",
           "    if cut and _threads._threaded(", "    if False and _threads._threaded(",
           (GOLDEN_ARMS,)),
    Mutant("weight-gradient-never-handed-over", "src/spindle/denoiser.py",
           "    threaded = _threads._threaded(cache[\"hf\"].size * cfg.vocab_size)",
           "    threaded = False and _threads._threaded(cache[\"hf\"].size * cfg.vocab_size)",
           (GOLDEN_ARMS,)),
    Mutant("adam-never-handed-over", "src/spindle/training.py",
           "    threaded = bool(second) and _threads._threaded(math.inf)\n",
           "    threaded = False\n",
           (GOLDEN_ARMS,)),
    # the CLI and the corpus
    Mutant("checked-reraises-its-value-error", "src/spindle/cli.py",
           '        raise UsageError(f"{_FIELD_FLAGS.get(field, field)} {rest}") from exc\n',
           "        raise\n",
           (C + "test_prepare_vocab_too_small",)),
    Mutant("main-without-oserror", "src/spindle/cli.py",
           "    except (ValueError, OSError, MemoryError, FloatingPointError) as exc:\n",
           "    except (ValueError, MemoryError, FloatingPointError) as exc:\n",
           (C + "test_os_error_is_runtime_failure",)),
    Mutant("reader-without-cr-translation", "src/spindle/corpus.py",
           '            yield text.replace("\\r\\n", "\\n").replace("\\r", "\\n")'
           '.removesuffix("\\n").split("\\n")\n',
           '            yield text.removesuffix("\\n").split("\\n")\n',
           (CO + "test_streamed_tokens_are_the_per_line_tokens",)),
    Mutant("vocab-ranking-unsorted", "src/spindle/corpus.py",
           "    ranked = sorted(counter)\n", "    ranked = list(counter)\n",
           (CO + "test_build_vocab_ranks_by_count_then_word",)),
    Mutant("freed-heap-not-kept", "src/spindle/__init__.py",
           "    _keep_freed_heap(ctypes.CDLL(None))\n", "    pass\n",
           (TR + "test_train_steps_reuse_freed_heap",)),
)


def _pytest(tree: Path, tests) -> int:
    """pytest's exit status on `tests` in `tree`: 0 passed, 1 a test failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(tree: Path, mutants) -> int:
    """Prints each mutant's verdict and time in `tree`, a copy of the
    repository; returns how many were not killed."""
    start = time.monotonic()
    code = _pytest(tree, sorted({test for m in mutants for test in m.tests}))
    print(f"{'unmutated':<40} {'pass' if code == 0 else 'FAIL':<10} "
          f"{time.monotonic() - start:6.1f} s", flush=True)
    if code != 0:
        return len(mutants)
    alive = 0
    for m in mutants:
        path = tree / m.path
        source = path.read_text(encoding="utf-8")
        start = time.monotonic()
        if source.count(m.snippet) != 1:
            verdict = "error (the snippet does not occur once)"
        else:
            path.write_text(source.replace(m.snippet, m.replacement), encoding="utf-8")
            try:
                code = _pytest(tree, m.tests)
            finally:
                path.write_text(source, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
        alive += verdict != "killed"
        print(f"{m.name:<40} {verdict:<10} {time.monotonic() - start:6.1f} s", flush=True)
    return alive


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--only", choices=[m.name for m in MUTANTS], help="run this mutant alone")
    args = ap.parse_args(argv)
    mutants = [m for m in MUTANTS if args.only in (None, m.name)]
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        alive = run(Path(tmp), mutants)
    print(f"{len(mutants) - alive} of {len(mutants)} killed in {time.monotonic() - start:.1f} s")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
