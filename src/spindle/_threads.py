"""The second core: one pool of two threads, one gate and one hand-over rule,
shared by the loss core (`training._masked_ce`), the sampler
(`sampling.generate_batch`), the denoiser's output head (`denoiser.forward`
and `denoiser.backward`) and `training.adam_step`.

A caller cuts its work into tasks by its inputs' shapes alone, asks
`_threaded` whether a task's work, in GEMM multiply-adds, is worth two
threads, and runs its tasks inside `_tasks`, which hands each to the pool in
order once fewer than the caller's slots of its tasks are unfinished; work
the block's body does itself runs beside them on the calling thread. One
threaded block runs at a time: a block opened while another is open in the
process, as a pool task's own block is, runs its tasks on its own thread, so
no task waits for a pool thread that waits for it. While a block holds the
pool, BLAS is pinned to one thread, so the two threads' GEMMs do not contend
for the same cores. A task computes what it would on the calling thread,
from inputs no other task writes, and a block ends with the error running
every task on the spot would end it with, so results and errors are those
of one thread. The results are bitwise those of one thread only at one
BLAS thread, as under the tests and the benchmark: with more, a float64
GEMM outside a block, which may use them all, can round otherwise than
inside one. The package's other claims of bitwise equality rest on this.

This module imports nothing from the package, so every module may use it.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

# Threads of the pool: the two tasks a call with two slots keeps in flight
# while the calling thread waits.
_THREADS = 2
# Multiply-adds of a task's GEMMs per layer (`denoiser._gemm_work`), or of a
# task of one GEMM, below which a call keeps to one thread, and the sampler
# does not split its chains: smaller
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


_pool: tuple[int, ThreadPoolExecutor] | None = None  # (pid that made it, pool)
_held_by: int | None = None  # the pid whose open threaded block holds the pool
_held_lock = threading.Lock()


def _threaded(work: float) -> bool:
    """Whether a call whose tasks take `work` multiply-adds per layer each
    on average (a task of one GEMM: its multiply-adds) hands them to the
    pool: where two CPUs are usable, BLAS can be pinned to one thread while
    two run, the work reaches _MIN_THREADED_WORK, and no threaded block
    holds the pool. Without the pin each thread's BLAS calls would contend
    for the same cores; inside an open block the tasks would run one after
    the other on the calling thread, so work cut for two threads is better
    left whole."""
    if _BLAS_THREADS is None or work < _MIN_THREADED_WORK or _held_by == os.getpid():
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus > 1


def _thread_pool() -> ThreadPoolExecutor:
    """One pool of _THREADS threads for the process, kept between calls,
    since a new thread costs OpenBLAS fresh buffers on its first GEMM. A
    forked child makes its own."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = os.getpid(), ThreadPoolExecutor(_THREADS, thread_name_prefix="spindle")
    return _pool[1]


def _under_errstate(errstate: dict, errcall, fn, *args):
    """fn(*args) under numpy's floating-point error handling `errstate` and
    its callback `errcall`, which a pool thread does not inherit from the
    thread handing fn over."""
    with np.errstate(call=errcall, **errstate):
        return fn(*args)


def _submit(fn, *args):
    """The future of fn(*args) on the pool, under the calling thread's
    numpy error handling."""
    return _thread_pool().submit(_under_errstate, np.geterr(), np.geterrcall(), fn, *args)


@contextlib.contextmanager
def _holding_pool(threaded: bool):
    """Whether the block holds the pool: it asks to (`threaded`) and no
    other threaded block is open in the process. While it holds the pool,
    BLAS is pinned to one thread."""
    global _held_by
    with _held_lock:
        held = threaded and _held_by != os.getpid()
        if held:
            _held_by = os.getpid()
    if not held:
        yield False
        return
    try:
        with _one_blas_thread():
            yield True
    finally:
        _held_by = None


@contextlib.contextmanager
def _tasks(threaded: bool, slots: int):
    """A `hand_over(fn, *args)` for the block. On a single-threaded call,
    and inside another threaded block, it runs fn(*args) on the spot. On a
    threaded one that holds the pool (`_holding_pool`) it submits fn(*args)
    to the pool once fewer than `slots` of the block's tasks are unfinished,
    waiting for the oldest first; a task's result is what it writes. A
    task runs under the numpy error handling (`np.geterr`, `np.geterrcall`)
    of the thread that handed it over.

    Either way the block ends once none of its tasks is running, with the
    error running every task on the spot would end it with: that of the
    first task, in hand-over order, that raised, even where a younger task
    or the block's body raised first in time; else the body's. A hand-over
    that waits for a task that raised raises its error, so the block hands
    over nothing more.
    """
    with _holding_pool(threaded) as held:
        if not held:
            yield lambda fn, *args: fn(*args)
            return
        handed = []  # the futures of every task the block handed over, in order

        def hand_over(fn, *args):
            if len(handed) >= slots:
                handed[-slots].result()
            handed.append(_submit(fn, *args))

        try:
            yield hand_over
        finally:
            wait(handed)
            for future in handed:
                future.result()
