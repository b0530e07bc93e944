"""The second core: one pool of two threads, one gate and one hand-over rule,
shared by the loss core (`training._masked_ce`) and the sampler
(`sampling.generate_batch`).

A caller cuts its work into tasks by its inputs' shapes alone, asks
`_threaded` whether a task's work, in GEMM multiply-adds per layer
(`_gemm_work`), is worth two threads, and runs its tasks inside `_tasks`,
which hands each to the pool in order once fewer than the caller's slots of
its tasks are unfinished. While they run, BLAS is pinned to one thread, so
the two tasks' GEMMs do not contend for the same cores. A task computes
what it would on the calling thread, from inputs no other task writes, so
results are bitwise those of one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

from .denoiser import _FFN_MULT, DenoiserConfig

# Threads of the pool: the two tasks a call with two slots keeps in flight
# while the calling thread waits.
_THREADS = 2
# Multiply-adds of a task's GEMMs per layer (`_gemm_work`) below which a call
# keeps to one thread, and the sampler does not split its chains: smaller
# tasks spend most of their time in the interpreter, which holds the GIL.
# Measured for forward-only loss calls on a 2-core x86_64 box, 64 float32
# items per call in groups of 8, lines of L tokens on average, medians of 8
# runs: at 0.5x / 1x / 2x the gate two threads read x0.82 / x1.00 / x1.29
# at d = 128, 4 layers, K = 2004 (L 3 / 7 / 15), x0.70 / x0.99 / x1.29 at
# d = 64, 2 layers (L 8 / 18 / 36) and x0.85 / x1.04 / x1.29 at d = 32,
# 2 layers, K = 4000 (L 13 / 26 / 54), so they break even near 1x.
# Test-sized models fall below it; every benchmark workload's loss calls are
# 2.6x or more above it, and a desk sampler half (4 chains of 49 rows) 3x, so
# only these measurements place it.
# Gradient calls with dropout, timed the same way in 31 alternating pairs,
# break even in about the same place: under 0.5x the gate their pipeline
# read x0.64-1.02 (test-sized d = 16, 1 layer, K = 13: x0.64-0.76), from
# 0.6x to 1x x0.86-1.12 by shape (d = 32, 1 layer: x0.86-0.98), and from
# 1.2x up x1.13-1.34 (d = 32, 1 layer: x1.15 at 1.8x).
_MIN_THREADED_WORK = 1 << 24


def _gemm_work(config: DenoiserConfig, rows: float) -> float:
    """Multiply-adds per layer of a forward over `rows` trunk rows, about
    rows * d * ((4 + 2 * _FFN_MULT) * d + K / layers): the attention
    projections, the FFN, and the head spread over the layers."""
    d = config.d_model
    return rows * d * ((4 + 2 * _FFN_MULT) * d + config.vocab_size / config.num_layers)


def _find_blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheels
    bundle, through its `*openblas_{get,set}_num_threads64_` exports; None
    where numpy has no such library."""
    here = Path(np.__file__).parent
    for path in sorted([*(here.parent / "numpy.libs").glob("*openblas*"),
                        *(here / ".dylibs").glob("*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):  # numpy 2.x, 1.x wheels
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_BLAS_THREADS = _find_blas_threads()


@contextlib.contextmanager
def _one_blas_thread():
    """BLAS pinned to one thread for the block and restored after it; a
    no-op where `_BLAS_THREADS` found no library."""
    if _BLAS_THREADS is None:
        yield
        return
    get, set_ = _BLAS_THREADS
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _threaded(work: float) -> bool:
    """Whether a call whose tasks take `work` multiply-adds per layer each
    on average hands them to the pool: where two CPUs are usable, BLAS can
    be pinned to one thread while two run, and the work reaches
    _MIN_THREADED_WORK. Without the pin each thread's BLAS calls would
    contend for the same cores."""
    if _BLAS_THREADS is None or work < _MIN_THREADED_WORK:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus > 1


_pool: tuple[int, ThreadPoolExecutor] | None = None  # (pid that made it, pool)


def _thread_pool() -> ThreadPoolExecutor:
    """One pool of _THREADS threads for the process, kept between calls,
    since a new thread costs OpenBLAS fresh buffers on its first GEMM. A
    forked child makes its own."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = os.getpid(), ThreadPoolExecutor(_THREADS, thread_name_prefix="spindle")
    return _pool[1]


def _under_errstate(errstate: dict, fn, *args):
    """fn(*args) under numpy's floating-point error handling `errstate`,
    which a pool thread does not inherit from the thread handing fn over."""
    with np.errstate(**errstate):
        return fn(*args)


@contextlib.contextmanager
def _tasks(threaded: bool, slots: int):
    """A `hand_over(fn, *args)` for the block. On a single-threaded call it
    runs fn(*args) on the spot. On a threaded one, with BLAS pinned to one
    thread, it submits fn(*args) to the pool once fewer than `slots` of the
    block's tasks are unfinished, waiting for the oldest first; a task's
    result is what it writes. The block ends once none of its tasks is
    running; the first task, in hand-over order, that raised then ends it
    with its error, and an error of the block itself comes first. A task
    runs under the numpy error handling (`np.geterr`) of the thread that
    handed it over.
    """
    if not threaded:
        yield lambda fn, *args: fn(*args)
        return
    in_flight = []  # the futures of the block's unfinished tasks, oldest first

    def hand_over(fn, *args):
        if len(in_flight) == slots:
            in_flight.pop(0).result()
        in_flight.append(_thread_pool().submit(_under_errstate, np.geterr(), fn, *args))

    with _one_blas_thread():
        try:
            yield hand_over
            for future in in_flight:
                future.result()
        finally:
            wait(in_flight)
