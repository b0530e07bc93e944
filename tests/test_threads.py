"""The package's second core (`_threads`): its one hand-over block, its
gate, and the calls that use it outside a loss call's or sampler call's own
block (the output head's column halves, the head's weight gradient beside
the trunk, and Adam's two lists). test_golden.py's two-thread arm pins
those calls' bytes on one thread and on two."""

import os
import threading

import numpy as np
import pytest

import spindle as sp
from spindle import _threads, denoiser as dn, training


@pytest.fixture()
def pool_uses(monkeypatch):
    """A list that gains one entry per hand-over to the pool."""
    pool, used = _threads._thread_pool, []
    monkeypatch.setattr(_threads, "_thread_pool", lambda: used.append(1) or pool())
    return used


def test_a_task_keeps_the_handing_threads_error_callback():
    """A task handed over inside np.errstate(over="call", call=fn) calls fn
    at an overflow on the pool thread, as the block's body does on the
    thread that handed it over."""
    calls, here = [], threading.get_ident()

    def overflow():
        np.multiply(np.array([1e300]), 1e300)
        return threading.get_ident()

    with np.errstate(over="call", call=lambda kind, flag: calls.append(kind)):
        ran = []
        with _threads._tasks(True, 1) as hand_over:
            hand_over(lambda: ran.append(overflow()))
            here_ran = overflow()
    assert calls == ["overflow"] * 2
    assert here_ran == here and len(ran) == 1 and ran[0] != here


def test_a_block_opened_inside_a_threaded_block_runs_inline():
    """While one threaded block holds the pool, every block opened in the
    process, by either pool task or by the thread that opened it, runs its
    tasks on its own thread, with BLAS still on one thread: no task waits
    for a pool thread, even with both of them busy at a barrier."""
    barrier = threading.Barrier(2, timeout=10)
    seen = []  # (thread that opened the nested block, thread each nested task ran on)

    def nested():
        opener = threading.get_ident()
        with _threads._tasks(True, 2) as hand_over:
            for _ in range(3):
                hand_over(lambda: seen.append((opener, threading.get_ident())))
        with _threads._tasks(True, 1) as hand_over:
            hand_over(lambda: seen.append((opener, threading.get_ident())))
            seen.append((opener, threading.get_ident()))

    def task():
        barrier.wait()  # both pool threads are busy from here on
        nested()

    def outer():
        with _threads._tasks(True, 2) as hand_over:
            hand_over(task)
            hand_over(task)
            nested()

    runner = threading.Thread(target=outer, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive()
    assert len(seen) == 3 * 5 and all(opener == ran for opener, ran in seen)
    assert len({opener for opener, _ in seen}) == 3


@pytest.mark.skipif(_threads._BLAS_THREADS is None, reason="numpy bundles no OpenBLAS")
def test_the_gate_turns_work_down_while_a_block_holds_the_pool(monkeypatch):
    """With two CPUs usable, work at the gate is threaded, except while a
    threaded block is open: there its tasks would run one after the other,
    so a head inside an evaluation's group stays one GEMM."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    work, answers = _threads._MIN_THREADED_WORK, []
    assert _threads._threaded(work)
    with _threads._tasks(True, 1) as hand_over:
        hand_over(lambda: answers.append(_threads._threaded(work)))
        answers.append(_threads._threaded(work))
    assert answers == [False, False] and _threads._threaded(work)


def test_a_block_is_threaded_again_once_the_open_one_ends(pool_uses):
    """The pool is free again once a block ends, also one that raised."""
    def failing():
        raise RuntimeError("task")

    with pytest.raises(RuntimeError, match="^task$"):
        with _threads._tasks(True, 1) as hand_over:
            hand_over(failing)
    pool_uses.clear()
    with _threads._tasks(True, 1) as hand_over:
        hand_over(lambda: None)
    assert pool_uses == [1]


@pytest.mark.parametrize("failing, message", [("a", "a"), ("b", "b"), ("ab", "a")])
def test_a_block_ends_with_the_error_running_in_turn_would(failing, message):
    """A one-slot block that hands task a over and runs b in its body ends
    with a's error, also where b raised too, and first in time; and only
    once a has returned."""
    done = []

    def part(name):
        if name == "a":
            threading.Event().wait(0.05)
        done.append(name)
        if name in failing:
            raise RuntimeError(name)

    with pytest.raises(RuntimeError, match=f"^{message}$"):
        with _threads._tasks(True, 1) as hand_over:
            hand_over(part, "a")
            part("b")
    assert sorted(done) == ["a", "b"]


def test_the_oldest_failing_task_ends_the_block_though_a_younger_one_raised_first():
    """In a two-slot block of three tasks, the third raises at once and the
    second only once the third has raised; the block ends with the second's
    error, as running them in turn would, once every task has returned."""
    younger_raised, done = threading.Event(), []

    def task(name):
        try:
            if name == "older":
                assert younger_raised.wait(10)
            if name != "first":
                raise RuntimeError(name)
        finally:
            done.append(name)
            if name == "younger":
                younger_raised.set()

    with pytest.raises(RuntimeError, match="^older$"):
        with _threads._tasks(True, 2) as hand_over:
            for name in ("first", "older", "younger"):
                hand_over(task, name)
    assert done == ["first", "younger", "older"]


# Rows of the head GEMMs swept at each d and K: float32 K 2004 at 4-7 rows and
# float64 d 16, K 2004 at 32-61 rows are among the shapes whose column halves
# were seen to round otherwise than the whole GEMM (`denoiser._HEAD_SPLIT_WORK`)
ROWS = (1, 2, 4, 7, 32, 61, 64, 170, 340)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_head_splits_only_where_its_halves_are_the_whole_gemm(dtype, force_threads,
                                                                 pool_uses):
    """Across d 16-256, K 40-30,522 and 1-340 rows, every head GEMM that
    `_head_cut` admits, run as two column halves on two threads, gives
    bitwise the logits of one GEMM; one row, and the shapes whose halves
    were seen to differ, stay whole."""
    force_threads(True)
    rng = np.random.default_rng(7)
    split = 0
    for d in (16, 32, 64, 128, 256):
        for k in (40, 2004, 4000, 30522):
            p = {"out.w": rng.normal(0.0, 0.1, (d, k)).astype(dtype),
                 "out.b": rng.normal(0.0, 0.1, k).astype(dtype)}
            for rows in (r for r in ROWS if r * d * k <= 1e8):
                x = rng.normal(0.0, 1.0, (rows, d)).astype(dtype)
                cut = dn._head_cut(rows, d, k)
                pool_uses.clear()
                logits = dn._head_logits(x, p)
                with _threads._one_blas_thread():  # as the halves run on the pool
                    whole = dn._linear(x, p, "out.w", "out.b")
                assert logits.tobytes() == whole.tobytes(), (d, k, rows)
                assert len(pool_uses) == (cut > 0)
                split += cut > 0
    assert split >= 60
    for d in (16, 32, 64, 128, 256):
        assert all(dn._head_cut(1, d, k) == 0 for k in (40, 2004, 30522))
    assert all(dn._head_cut(rows, d, 2004) == 0 for rows in range(4, 8) for d in (16, 64, 128))
    assert all(dn._head_cut(rows, 16, 2004) == 0 for rows in range(32, 62))
    assert dn._head_cut(2, 128, 30522) == 16 * (30522 // 32)


def test_adam_cuts_its_lists_by_element_count(monkeypatch):
    """The two lists keep name order and are as close in size as a cut
    allows; a model under _ADAM_SPLIT elements a list keeps one list."""
    sizes = {"a": 5, "b": 1, "c": 3, "d": 4}
    tensors = {k: np.zeros(n) for k, n in sizes.items()}
    assert training._adam_halves(tensors) is None
    monkeypatch.setattr(training, "_ADAM_SPLIT", 6)
    assert training._adam_halves(tensors) == (["a", "b"], ["c", "d"])
    monkeypatch.setattr(training, "_ADAM_SPLIT", 7)
    assert training._adam_halves(tensors) is None
    vocab30k = dn.param_shapes(dn.DenoiserConfig(vocab_size=30522))
    desk = dn.param_shapes(dn.DenoiserConfig(vocab_size=2004))
    monkeypatch.setattr(training, "_ADAM_SPLIT", 1 << 21)
    assert training._adam_halves({k: np.empty(s, np.float32) for k, s in desk.items()}) is None
    first, second = training._adam_halves({k: np.empty(s, np.float32)
                                           for k, s in vocab30k.items()})
    assert first[0] == "tok_emb" and "out.w" in second


@pytest.mark.parametrize("kind", ["gradient", "update"])
@pytest.mark.parametrize("faulty", [("tok_emb", "out.w"), ("out.w",)], ids=["both", "second"])
def test_an_adam_error_names_the_same_tensor_on_one_thread_or_two(monkeypatch, force_threads,
                                                                 kind, faulty):
    """With a non-finite gradient, or one whose update overflows, in a
    tensor of each list or of the second alone, the error names the first
    such tensor in name order, threads on or off."""
    monkeypatch.setattr(training, "_ADAM_SPLIT", 1)
    params = dn.init_params(dn.DenoiserConfig(vocab_size=4000, mode="tad", num_layers=1,
                                              d_model=32, num_heads=2), 5).astype(np.float32)
    first, second = training._adam_halves(params.tensors)
    assert faulty[0] in (first if len(faulty) == 2 else second) and faulty[-1] in second
    grads = params.zeros_like()
    for name in faulty:
        grads[name].flat[-1] = np.inf if kind == "gradient" else 1e30

    def message(threads):
        force_threads(threads)
        with pytest.raises(FloatingPointError) as err:
            sp.adam_step(params.copy(), grads, sp.AdamState.zeros(params), sp.TrainConfig(), 1)
        return str(err.value)

    expected = (f"the gradient of {faulty[0]} is not finite" if kind == "gradient"
                else f"the Adam update of {faulty[0]} is not finite (overflow)")
    assert message(False) == message(True) == expected
