"""The package's second core (`_threads`): its one hand-over block, its
gate, and the calls that use it outside a loss call's or sampler call's own
block (the output head's column halves, the head's weight gradient beside
the trunk, and Adam's two lists). Each is cut by its inputs' shapes alone,
and the gate decides only where its parts run (see `_threads`), so the
head tests below run it with the gate forced off and on.
test_golden.py's two-thread arm pins those calls' bytes on one thread and
on two."""

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


@pytest.fixture()
def head_calls(monkeypatch):
    """A list that gains "block" for each `_threads._tasks` block opened and
    "gemm" for each GEMM the head runs: a `_linear` call or a column half's
    `np.matmul`."""
    calls, tasks, linear, matmul = [], _threads._tasks, dn._linear, np.matmul
    monkeypatch.setattr(_threads, "_tasks", lambda *a: calls.append("block") or tasks(*a))
    monkeypatch.setattr(dn, "_linear", lambda *a: calls.append("gemm") or linear(*a))
    monkeypatch.setattr(np, "matmul", lambda *a, **kw: calls.append("gemm") or matmul(*a, **kw))
    return calls


def _head(rows, k, d=128, seed=3):
    """A float32 head's parameters and `rows` inputs."""
    rng = np.random.default_rng(seed)
    p = {"out.w": rng.normal(0.0, 0.1, (d, k)).astype(np.float32),
         "out.b": rng.normal(0.0, 0.1, k).astype(np.float32)}
    return rng.normal(0.0, 1.0, (rows, d)).astype(np.float32), p


@pytest.mark.parametrize("rows", [9, 48])
def test_a_head_at_the_gate_runs_two_gemms_with_threads_off_or_on(rows, force_threads,
                                                                 pool_uses, head_calls):
    """At d 128 and K 30,522 a head of 9 rows or more has a smaller column
    half at the gate: it opens its block and runs two GEMMs whatever the
    gate answers, which decides only whether the first half runs on the
    pool. Both give the same bytes, those of one GEMM to float tolerance."""
    x, p = _head(rows, 30522)
    logits, uses = [], []
    for threads in (False, True):
        force_threads(threads)
        head_calls.clear()
        pool_uses.clear()
        logits.append(dn._head_logits(x, p))
        assert head_calls == ["block", "gemm", "gemm"], threads
        uses.append(len(pool_uses))
    assert uses == [0, 1]
    assert logits[0].tobytes() == logits[1].tobytes()
    np.testing.assert_allclose(logits[0], dn._linear(x, p, "out.w", "out.b"), rtol=1e-5,
                               atol=1e-5)


@pytest.mark.parametrize("rows, k", [(8, 30522), (100, 2004)], ids=["8-rows", "K-2004"])
def test_a_head_below_the_gate_runs_one_gemm_and_opens_no_block(rows, k, force_threads,
                                                               pool_uses, head_calls):
    """A head whose smaller column half is below the gate, at 8 rows of K
    30,522 or 100 rows of K 2004 (d 128), is one GEMM, with the gate on."""
    x, p = _head(rows, k)
    force_threads(True)
    assert dn._head_cut(rows, 128, k) == 0
    dn._head_logits(x, p)
    assert head_calls == ["gemm"] and not pool_uses


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
