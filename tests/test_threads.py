"""The package's second core (`_threads`) and the calls that use it outside a
loss call's or sampler call's own block: the output head's column halves,
the head's weight gradient beside the trunk, and Adam's two lists."""

import os
import threading

import numpy as np
import pytest

import spindle as sp
from spindle import _threads, denoiser as dn, training
from spindle.corpus import MASK_ID
from spindle.diffusion import spindle_alpha_bar_at
from spindle.rng import stream


@pytest.fixture()
def pool_uses(monkeypatch):
    """A list that gains one entry per hand-over to the pool."""
    pool, used = _threads._thread_pool, []
    monkeypatch.setattr(_threads, "_thread_pool", lambda: used.append(1) or pool())
    return used


def test_a_task_keeps_the_handing_threads_error_callback():
    """A task handed over inside np.errstate(over="call", call=fn), through
    `_tasks` or `_beside`, calls fn at an overflow on the pool thread, as it
    would on the thread that handed it over."""
    calls, here = [], threading.get_ident()

    def overflow():
        np.multiply(np.array([1e300]), 1e300)
        return threading.get_ident()

    with np.errstate(over="call", call=lambda kind, flag: calls.append(kind)):
        ran = []
        with _threads._tasks(True, 1) as hand_over:
            hand_over(lambda: ran.append(overflow()))
        ran.append(_threads._beside(True, lambda: ran.append(overflow()), overflow))
    assert calls == ["overflow"] * 3
    assert len(ran) == 3 and ran[2] == here and here not in ran[:2]


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
        _threads._beside(True, lambda: seen.append((opener, threading.get_ident())),
                         lambda: seen.append((opener, threading.get_ident())))

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
    _threads._beside(True, lambda: None, lambda: None)
    assert pool_uses == [1]


@pytest.mark.parametrize("failing, message", [("a", "a"), ("b", "b"), ("ab", "a")])
def test_beside_ends_with_the_error_running_in_turn_would(failing, message):
    """An error of fn_a comes first, also where fn_b raised too, and the call
    ends only once fn_a has returned."""
    done = []

    def part(name):
        def run():
            if name == "a":
                threading.Event().wait(0.05)
            done.append(name)
            if name in failing:
                raise RuntimeError(name)
        return run

    with pytest.raises(RuntimeError, match=f"^{message}$"):
        _threads._beside(True, part("a"), part("b"))
    assert sorted(done) == ["a", "b"]


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


def _wide(mode, dtype, k=4000, dropout=0.1):
    """A one-layer d 32 model whose head, at K = 4000, splits from 16 rows."""
    params = dn.init_params(dn.DenoiserConfig(vocab_size=k, mode=mode, num_layers=1, d_model=32,
                                              num_heads=2, n_max=48, num_steps=8,
                                              dropout=dropout), 5)
    rng = np.random.default_rng(6)
    for v in params.tensors.values():
        v += rng.normal(0.0, 0.05, v.shape)
    return params.astype(dtype)


def _batch(num, k, seed=3):
    rng = np.random.default_rng(seed)
    seqs = [rng.integers(4, k, size=n) for n in rng.integers(30, 48, size=num)]
    t_draws = rng.integers(1, 9, size=num)
    sched = sp.ScheduleParams(num_steps=8, lam=0.3)
    rows = [spindle_alpha_bar_at(rng.uniform(0.5, 2.0, len(x)), [t - 1, t], sched)
            for x, t in zip(seqs, t_draws)]
    return seqs, rows, t_draws


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_a_one_group_gradient_call_is_the_same_on_two_threads(mode, dtype, force_threads,
                                                              thread_stress, pool_uses):
    """A gradient call of one group (8 items) at a vocabulary whose head
    splits gives bitwise the loss and every gradient with threads forced
    on, its head's halves and its weight gradient on the pool, and off."""
    params = _wide(mode, dtype)
    seqs, rows, t_draws = _batch(8, 4000)

    def run(threads):
        force_threads(threads)
        pool_uses.clear()
        breakdown, grads = sp.diffusion_loss_batch(params, seqs, rows, t_draws, 11)
        return repr(breakdown).encode() + b"".join(grads[k].tobytes() for k in sorted(grads))

    off = run(False)
    assert pool_uses == []
    assert run(True) == off
    assert len(pool_uses) == 2  # the forward's first column half and the weight gradient


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_an_adam_update_is_the_same_on_two_threads(monkeypatch, force_threads, thread_stress,
                                                   pool_uses, weight_decay):
    """Three Adam updates with the tensors cut into two lists, each list's
    finiteness scan and update on its own thread, leave bitwise the
    parameters and moments of one loop on the calling thread."""
    monkeypatch.setattr(training, "_ADAM_SPLIT", 1)
    params = _wide("lte", np.float32)
    rng = np.random.default_rng(2)
    grads = [{k: rng.normal(0, 1, v.shape).astype(np.float32) for k, v in params.tensors.items()}
             for _ in range(3)]

    def run(threads):
        force_threads(threads)
        p, state = params.copy(), sp.AdamState.zeros(params)
        for step, g in enumerate(grads, start=1):
            sp.adam_step(p, g, state, sp.TrainConfig(weight_decay=weight_decay), step)
        return b"".join(t[k].tobytes() for t in (p.tensors, state.m, state.v) for k in sorted(t))

    off = run(False)
    assert pool_uses == []
    assert run(True) == off
    assert len(pool_uses) == 3 * 2


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
    params = _wide("tad", np.float32)
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


@pytest.mark.parametrize("mode", ["tad", "lte"])
def test_a_one_chain_sample_is_the_same_on_two_threads(mode, force_threads, thread_stress,
                                                       pool_uses):
    """A one-chain sample at a vocabulary whose head splits draws bitwise
    the same ids and reveal iterations with threads forced on, each forward
    of 16 or more masked rows handing its head's first half to the pool,
    and off."""
    params = _wide(mode, np.float32, dropout=0.0)
    h = np.r_[0.0, 0.0, 0.0, np.linspace(0.5, 4.0, 3997)]
    forward, masked = dn.forward, []

    def counting(params, xt, t, **kw):
        masked.append(int((xt == MASK_ID).sum()))
        return forward(params, xt, t, **kw)

    def run(threads):
        force_threads(threads)
        pool_uses.clear()
        masked.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dn, "forward", counting)
            res = sp.generate_batch(params, sp.ScheduleParams(8, 0.3),
                                    sp.SampleConfig(48, 8, top_k=20), sp.SurprisalTable(h), 1,
                                    stream(4, "one-chain"))
        return res.sequences.tobytes() + res.reveal_iteration.tobytes()

    off = run(False)
    assert pool_uses == []
    assert run(True) == off
    assert len(pool_uses) == sum(rows >= 16 for rows in masked) >= 2
