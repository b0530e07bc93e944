import io
import json
import re

import numpy as np
import pytest
from conftest import BAD_HEADER_KINDS
from hypothesis import given, settings, strategies as st

import spindle as sp
from spindle import denoiser as dn, sampling
from spindle.corpus import CLS_ID, MASK_ID, PAD_ID
from spindle.diffusion import spindle_alpha_bar_at
from spindle.rng import stream


def tiny_config(mode="tad", **kw):
    defaults = dict(vocab_size=11, mode=mode, num_layers=2, d_model=16,
                    num_heads=2, n_max=8, num_steps=6, dropout=0.0)
    defaults.update(kw)
    return dn.DenoiserConfig(**defaults)


def softmax(x):
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(d_model=15)  # not divisible by heads
    with pytest.raises(ValueError):
        tiny_config(mode="foo")
    with pytest.raises(ValueError, match="num_layers"):
        tiny_config(num_layers=0)  # the head reads the last layer's [MASK] rows
    for field, hi in (("num_layers", dn.MAX_LAYERS), ("num_steps", dn.MAX_STEPS)):
        assert getattr(tiny_config(**{field: hi}), field) == hi
        with pytest.raises(ValueError, match=rf"^{field} must be in \[1, {hi}\], got {hi + 1}$"):
            tiny_config(**{field: hi + 1})


def test_time_arg_contract():
    """Every mode takes a step in 0..T and raises on one out of range; tad
    then drops it, so its logits are bitwise the same at every step."""
    params = dn.init_params(tiny_config("tad"), 0)
    params.tensors["out.w"] += np.random.default_rng(1).normal(0, 0.4, params["out.w"].shape)
    xt = np.array([[4, MASK_ID, 6], [MASK_ID, MASK_ID, 5]])
    base = dn.forward(params, xt, 0)[0]
    assert base.shape == (3, 11)  # one row per [MASK]
    for t in (3, 6, np.array([1, 6])):
        np.testing.assert_array_equal(dn.forward(params, xt, t)[0], base)
    for mode in ("tad", "lte", "pte"):
        params_t = dn.init_params(tiny_config(mode), 0)
        for t in (-1, 7, 99, np.array([1, 7])):
            with pytest.raises(ValueError, match="out of range"):
                dn.forward(params_t, xt, t)
        assert dn.forward(params_t, xt, 3)[0].shape == (3, 11)


def test_untrained_model_is_uniform_over_content():
    params = dn.init_params(tiny_config("tad"), 0)
    logits = dn.forward(params, np.full(4, MASK_ID), 6)[0]
    assert np.all(np.isneginf(logits[:, [MASK_ID, PAD_ID, CLS_ID]]))
    probs = softmax(logits)
    assert np.allclose(probs[:, 3:], 1.0 / 8, atol=1e-12)


def test_determinism():
    params = dn.init_params(tiny_config("pte"), 3)
    xt = np.array([4, MASK_ID, 6, 7])
    a = dn.forward(params, xt, 2)[0]
    b = dn.forward(params, xt, 2)[0]
    assert np.array_equal(a, b)


def test_init_seeding_and_sigma():
    cfg = tiny_config("lte", d_model=64, num_heads=4)
    p1 = dn.init_params(cfg, 1)
    p2 = dn.init_params(cfg, 1)
    p3 = dn.init_params(cfg, 2)
    assert all(np.array_equal(p1[k], p2[k]) for k in p1.names())
    assert any(not np.array_equal(p1[k], p3[k]) for k in p1.names())
    assert np.all(p1["out.w"] == 0.0) and np.all(p1["out.b"] == 0.0)
    draws = np.concatenate([p1[k].ravel() for k in p1.names()
                            if k.endswith((".wq", ".wk", ".wv", ".wo", ".w1", ".w2"))])
    assert draws.var() == pytest.approx(4e-4, rel=0.10)
    assert np.abs(draws).max() <= 3 * 0.02 + 1e-12


@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_init_in_float32_is_the_float64_init_cast(mode):
    """Each tensor is cast as it is drawn; the draws, and so the bytes, are
    those of a float64 init cast afterwards."""
    cfg = tiny_config(mode, vocab_size=40)
    direct = dn.init_params(cfg, 9, np.float32)
    cast = dn.init_params(cfg, 9).astype(np.float32)
    assert list(direct.names()) == list(cast.names())
    for name in cast.names():
        assert direct[name].dtype == np.float32
        assert direct[name].shape == cast[name].shape
        assert direct[name].tobytes() == cast[name].tobytes()


def test_softmax_rows_normalize():
    params = dn.init_params(tiny_config("tad", num_layers=1), 5)
    rng = np.random.default_rng(0)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    logits = dn.forward(params, np.array([4, MASK_ID, 9]), 3)[0]
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(probs[:, :3] == 0.0)


def test_tad_ignores_time_lte_uses_it():
    rng = np.random.default_rng(0)
    params = dn.init_params(tiny_config("lte"), 7)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    params.tensors["time_mlp.w2"] += rng.normal(0, 0.4, params.tensors["time_mlp.w2"].shape)
    xt = np.array([4, MASK_ID, 6])
    assert not np.allclose(dn.forward(params, xt, 1)[0],
                           dn.forward(params, xt, 5)[0])


def test_pte_time_token_changes_output():
    rng = np.random.default_rng(0)
    params = dn.init_params(tiny_config("pte"), 7)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    xt = np.array([4, MASK_ID, 6])
    assert not np.allclose(dn.forward(params, xt, 1)[0],
                           dn.forward(params, xt, 5)[0])
    assert dn.forward(params, xt, 5)[0].shape == (1, 11)  # the [MASK] row only


def test_bidirectional_permutation_equivariance():
    """Swapping a masked and an unmasked position together with their
    positional rows leaves the [MASK] rows unchanged (no causal mask)."""
    cfg = tiny_config("tad", num_layers=2)
    params = dn.init_params(cfg, 9)
    rng = np.random.default_rng(1)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    xt = np.array([4, MASK_ID, 6, MASK_ID])
    base = dn.forward(params, xt, 4)[0]  # rows of positions 1 and 3

    swapped = params.copy()
    # content position i sits at internal row i + 1 (after [CLS])
    pe = swapped.tensors["pos_emb"].copy()
    pe[[2, 3]] = pe[[3, 2]]
    swapped.tensors["pos_emb"] = pe
    xt_sw = xt.copy()
    xt_sw[[1, 2]] = xt_sw[[2, 1]]
    out = dn.forward(swapped, xt_sw, 4)[0]  # rows of positions 2 and 3
    finite = np.isfinite(base)
    assert np.array_equal(finite, np.isfinite(out))
    assert np.allclose(out[finite], base[finite], atol=1e-10)


def test_backward_zero_upstream_gives_zero_grads():
    params = dn.init_params(tiny_config("lte"), 2)
    xt = np.array([[4, 5, MASK_ID]])
    logits, cache = dn.forward(params, xt, np.array([3]), train=True)
    grads = dn.backward(cache, np.zeros_like(logits), params.zeros_like())
    assert all(np.all(g == 0) for g in grads.values())


@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_backward_adds_into_the_given_buffer(mode):
    """backward adds into the dict it is given and returns that same dict:
    a buffer pre-filled with G ends holding G plus a fresh call's gradients,
    bit for bit, so a batch run in groups sums to what adding the groups'
    separate gradients gives. The batch repeats tokens and steps, so the
    embedding scatters add several rows at one index. backward consumes its
    cache, so the second call runs forward again, on the same dropout
    draws."""
    params = dn.init_params(tiny_config(mode, dropout=0.1), 3)
    rng = np.random.default_rng(5)
    params.tensors["out.w"] += rng.normal(0, 0.4, params["out.w"].shape)
    xt = np.array([[4, MASK_ID, 4, MASK_ID], [MASK_ID, 4, MASK_ID, PAD_ID]])
    t = np.array([3, 3])
    logits, cache = dn.forward(params, xt, t, train=True, rng=0)
    up = rng.normal(0, 1, logits.shape)
    fresh = dn.backward(cache, up, params.zeros_like())
    prefilled = {k: rng.normal(0, 1, v.shape) for k, v in params.tensors.items()}
    buffer = {k: v.copy() for k, v in prefilled.items()}
    _, cache = dn.forward(params, xt, t, train=True, rng=0)
    assert dn.backward(cache, up, buffer) is buffer
    assert set(buffer) == set(fresh)
    for name, g in fresh.items():
        np.testing.assert_array_equal(buffer[name], prefilled[name] + g, err_msg=name)


@pytest.mark.parametrize("special", [0.0, -0.0, 0.7], ids=["zero", "negative-zero", "nonzero"])
def test_backward_never_writes_its_upstream(special):
    """backward leaves its upstream array as it was, whether it reads it as
    is (zeros at the forced -inf columns, as the loss core's gradients
    are, -0 included) or through a copy with those columns zeroed; either
    way the gradients are bitwise those of the +0 upstream, taken on a
    second forward of the same input."""
    params = dn.init_params(tiny_config("lte"), 3)
    rng = np.random.default_rng(6)
    params.tensors["out.w"] += rng.normal(0, 0.4, params["out.w"].shape)
    xt = np.array([[4, MASK_ID, 5, MASK_ID], [MASK_ID, 6, MASK_ID, PAD_ID]])
    logits, cache = dn.forward(params, xt, np.array([2, 5]), train=True)
    zeroed = rng.normal(0, 1, logits.shape)
    zeroed[:, dn.SPECIAL_IDS] = 0.0
    up = zeroed.copy()
    up[:, dn.SPECIAL_IDS] = special
    before = up.copy()
    grads = dn.backward(cache, up, params.zeros_like())
    assert up.tobytes() == before.tobytes()
    _, cache = dn.forward(params, xt, np.array([2, 5]), train=True)
    expected = dn.backward(cache, zeroed, params.zeros_like())
    for name, g in expected.items():
        assert grads[name].tobytes() == g.tobytes(), name


def test_backward_shape_mismatch_errors():
    params = dn.init_params(tiny_config("tad"), 2)
    _, cache = dn.forward(params, np.array([[4, 5]]), 1, train=True)
    with pytest.raises(ValueError, match="upstream grad shape"):
        dn.backward(cache, np.zeros((1, 3, 11)), params.zeros_like())


def test_backward_consumes_its_cache():
    """A backward that fails its shape check leaves the cache whole; one
    that runs spends it, and a second backward on it raises ValueError
    saying so, with nothing added to its buffer."""
    params = dn.init_params(tiny_config("lte"), 2)
    logits, cache = dn.forward(params, np.array([[4, MASK_ID, 5]]), np.array([3]), train=True)
    up = np.where(np.isfinite(logits), 1.0, 0.0)
    with pytest.raises(ValueError, match="upstream grad shape"):
        dn.backward(cache, np.zeros((1, 3, 11)), params.zeros_like())
    first = dn.backward(cache, up, params.zeros_like())
    assert any(g.any() for g in first.values())
    grads = params.zeros_like()
    with pytest.raises(ValueError, match="spent by an earlier backward; run forward again"):
        dn.backward(cache, up, grads)
    assert not any(g.any() for g in grads.values())


@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_a_scoring_forward_keeps_no_activations_and_backward_refuses_it(mode):
    """A forward without train gives the logits of a training forward at
    dropout 0, bit for bit, and a cache holding no array; backward on that
    cache raises ValueError saying a training forward is needed, and adds
    nothing to its buffer."""
    params = dn.init_params(tiny_config(mode), 2)
    params.tensors["out.w"] += np.random.default_rng(3).normal(0, 0.4, params["out.w"].shape)
    xt = np.array([[4, MASK_ID, 5, MASK_ID], [MASK_ID, 6, 7, PAD_ID]])
    t = np.array([2, 5])
    logits, cache = dn.forward(params, xt, t)
    assert logits.tobytes() == dn.forward(params, xt, t, train=True)[0].tobytes()
    assert _floating(cache, "cache") == []
    grads = params.zeros_like()
    with pytest.raises(ValueError, match=r"backward needs the cache of a training forward "
                                         r"\(train=True\); this one is a scoring forward's"):
        dn.backward(cache, np.where(np.isfinite(logits), 1.0, 0.0), grads)
    assert not any(g.any() for g in grads.values())


@pytest.mark.parametrize("signed_zeros", [False, True], ids=["blas", "negative-zero-product"])
@pytest.mark.parametrize("rows", [*range(1, 10), 170])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weight_gradient_written_into_a_zero_buffer_is_the_accumulated_one(
        monkeypatch, dtype, rows, signed_zeros):
    """Into a C-contiguous buffer of +0.0 bits `_linear_grad` writes a^T d
    directly, and the bytes are those of adding a^T d to the zeros. The
    upstream is zero at the head's special-id columns; with signed_zeros the
    product's zeros come out -0.0, as a BLAS that keeps the sign of its
    first term would give them, and the direct write must still end at the
    sum's +0.0. A buffer that holds a -0.0, or is not C-contiguous, gets the
    product added instead, and so keeps -0.0 + -0.0 = -0.0."""
    real, direct = dn._matgrad, []

    def matgrad(a, d, out=None):
        direct.append(out is not None)
        res = real(a, d, out=out)
        if signed_zeros:
            res[res == 0] = -0.0
        return res

    monkeypatch.setattr(dn, "_matgrad", matgrad)
    rng = np.random.default_rng(rows)
    a = rng.normal(0, 1, (rows, 16)).astype(dtype)
    d = rng.normal(0, 1, (rows, 11)).astype(dtype)
    d[:, list(dn.SPECIAL_IDS)] = 0.0
    p = {"w": rng.normal(0, 1, (16, 11)).astype(dtype), "b": np.zeros(11, dtype)}
    product = matgrad(a, d)
    assert (product == 0).any() and (product != 0).any()
    assert np.signbit(product[product == 0]).all() == signed_zeros

    for start, path in ((np.zeros((16, 11), dtype), True),
                        (np.full((16, 11), -0.0, dtype), False),
                        (np.zeros((16, 11), dtype, order="F"), False)):
        expected = start.copy()
        expected += product
        grads = {"w": start.copy(order="K"), "b": np.zeros(11, dtype)}
        direct.clear()
        dn._linear_grad(a, d, p, "w", "b", grads)
        assert direct == [path]
        assert grads["w"].tobytes() == expected.tobytes()
        assert grads["w"].dtype == dtype


def _arrays(layer: dict) -> list[np.ndarray]:
    """The arrays of one layer's cache entry, its tuples unpacked."""
    out = []
    for v in layer.values():
        out.extend(v if isinstance(v, tuple) else [v])
    return [a for a in out if a is not None]


@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_backward_frees_each_layer_once_used(monkeypatch, mode):
    """backward frees the head's input, and each layer's activations as
    soon as it has used them: when it reaches a layer's FFN, no array of a
    layer above it is still alive, every array of the layers below is, and
    once it returns none is, although the caller still holds the cache."""
    import weakref

    params = dn.init_params(tiny_config(mode, num_layers=3, dropout=0.1), 4)
    xt = np.array([[4, MASK_ID, 5, MASK_ID], [MASK_ID, 6, 7, PAD_ID]])
    logits, cache = dn.forward(params, xt, np.array([2, 5]), train=True, rng=0)
    layers = [[weakref.ref(a) for a in _arrays(c)] for c in cache["layers"]]
    z = [weakref.ref(c["ffn"][1]) for c in cache["layers"]]  # each FFN's GELU input
    hf = weakref.ref(cache["hf"])
    real, seen = dn._gelu_grad, []

    def watching(x, th):
        here = [i for i, ref in enumerate(z) if ref() is x]
        if here:
            seen.append((here[0], [all(r() is None for r in refs) for refs in layers],
                         [all(r() is not None for r in refs) for refs in layers], hf() is None))
        return real(x, th)

    monkeypatch.setattr(dn, "_gelu_grad", watching)
    up = np.where(np.isfinite(logits), 1.0, 0.0)
    dn.backward(cache, up, params.zeros_like())
    assert [i for i, *_ in seen] == [2, 1, 0]
    for i, freed, alive, hf_freed in seen:
        assert freed[i + 1 :] == [True] * (2 - i) and alive[: i + 1] == [True] * (i + 1)
        assert hf_freed
    assert all(r() is None for refs in layers for r in refs) and cache["layers"] == []


def test_backward_unused_time_rows_zero_grad():
    params = dn.init_params(tiny_config("pte"), 2)
    rng = np.random.default_rng(0)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    xt = np.array([[4, MASK_ID, 6]])
    logits, cache = dn.forward(params, xt, np.array([2]), train=True)
    up = np.ones_like(logits)
    up[~np.isfinite(logits)] = 0.0
    grads = dn.backward(cache, up, params.zeros_like())
    used = np.zeros(7, dtype=bool)
    used[2] = True
    assert np.all(grads["time_tok_emb"][~used] == 0.0)
    assert np.any(grads["time_tok_emb"][used] != 0.0)


@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_gradients_match_finite_differences(mode):
    """Full-coverage FD check of the manual backward pass, with dropout and
    padding active, through the (m, K) rows at the [MASK] positions. The
    upstream is nonzero at the -inf special columns too, which backward must
    ignore."""
    cfg = tiny_config(mode, dropout=0.1)
    params = dn.init_params(cfg, 11)
    rng = np.random.default_rng(4)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    xt = np.array([[4, MASK_ID, MASK_ID, PAD_ID], [MASK_ID, 9, MASK_ID, 6]])
    t = np.array([2, 6])
    w = rng.normal(0, 1, (4, 11))

    def loss(p):
        logits, _ = dn.forward(p, xt, t, train=True, rng=stream(5, "drop"))
        return float(np.sum(np.where(np.isfinite(logits), logits, 0.0) * w))

    _, cache = dn.forward(params, xt, t, train=True, rng=stream(5, "drop"))
    grads = dn.backward(cache, w, params.zeros_like())
    worst = 0.0
    rng2 = np.random.default_rng(6)
    names = params.names()
    for _ in range(80):
        name = names[int(rng2.integers(len(names)))]
        tensor = params.tensors[name]
        idx = tuple(int(rng2.integers(s)) for s in tensor.shape)
        eps = 1e-5
        orig = tensor[idx]
        tensor[idx] = orig + eps
        up = loss(params)
        tensor[idx] = orig - eps
        down = loss(params)
        tensor[idx] = orig
        fd = (up - down) / (2 * eps)
        an = grads[name][idx]
        worst = np.maximum(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-4))  # keeps a NaN
    assert worst <= 1e-4


def _floating(obj, path: str) -> list[tuple[str, np.dtype]]:
    """(path, dtype) of every floating array in nested dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return [(path, obj.dtype)] if np.issubdtype(obj.dtype, np.floating) else []
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return []
    return [hit for k, v in items for hit in _floating(v, f"{path}.{k}")]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_model_computes_in_its_parameter_dtype(mode, dtype, monkeypatch):
    """Every floating array the model computes has the parameters' dtype: the
    forward cache (layers included), the logits, the backward gradients, the
    loss core's upstream gradient and the bound's gradients, and the logits
    the sampler draws from. A float64 scalar in the trunk fails this."""
    params = dn.init_params(tiny_config(mode, dropout=0.1), 11).astype(dtype)
    rng = np.random.default_rng(4)
    params.tensors["out.w"] += rng.normal(0, 0.4, params["out.w"].shape).astype(dtype)
    xt = np.array([[4, MASK_ID, MASK_ID, PAD_ID], [MASK_ID, 9, MASK_ID, 6]])
    t = np.array([2, 6])
    logits, cache = dn.forward(params, xt, t, train=True, rng=0)
    grads = dn.backward(cache, np.ones_like(logits), params.zeros_like())
    seen = _floating(cache, "cache") + _floating(logits, "logits") + _floating(grads, "grad")

    def spy(fn, arg, name):
        def wrapped(*args, **kwargs):
            seen.extend(_floating(args[arg], name))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(dn, "backward", spy(dn.backward, 1, "upstream"))
    monkeypatch.setattr(sampling, "_top_k_rows", spy(sampling._top_k_rows, 0, "sampler logits"))
    sched = sp.ScheduleParams(num_steps=6, lam=0.3)
    seqs = [np.array([4, 5, 6]), np.array([7, 8, 9, 10])]
    t_draws = np.array([3, 6])
    rows = [spindle_alpha_bar_at(np.linspace(0.5, 2.0, len(x)), [s - 1, s], sched)
            for x, s in zip(seqs, t_draws)]
    _, bound_grads = sp.diffusion_loss_batch(params, seqs, rows, t_draws, 0)
    seen += _floating(bound_grads, "bound grad")
    h = np.r_[0.0, 0.0, 0.0, np.linspace(0.5, 2.0, 8)]
    sp.generate_batch(params, sched, sp.SampleConfig(length=4, num_reverse_iterations=6,
                                                     top_k=3), sp.SurprisalTable(h), 4, 0)
    names = {name.split(".")[0] for name, _ in seen}
    assert {"cache", "logits", "grad", "upstream", "bound grad", "sampler logits"} <= names
    assert [name for name, dt in seen if dt != dtype] == []


@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_forward_rows_are_the_mask_positions(mode):
    """A padded batch's rows are each sequence's own forward rows in
    row-major order; a batch with no [MASK] gives (0, K) logits and zero
    gradients."""
    params = dn.init_params(tiny_config(mode), 12)
    rng = np.random.default_rng(7)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    seqs = [np.array([4, MASK_ID, 6]), np.array([MASK_ID, MASK_ID, 9, 10, MASK_ID])]
    t = np.array([2, 5])
    xt = np.array([[4, MASK_ID, 6, PAD_ID, PAD_ID], seqs[1]])
    logits, _ = dn.forward(params, xt, t)
    rows = [dn.forward(params, x, t[i])[0] for i, x in enumerate(seqs)]
    assert logits.shape == (4, 11)
    np.testing.assert_allclose(logits, np.concatenate(rows), rtol=1e-12, atol=1e-12)

    logits, cache = dn.forward(params, np.array([[4, 5, PAD_ID], [6, 7, 8]]), t, train=True)
    assert logits.shape == (0, 11)
    assert all(np.all(g == 0) for g in dn.backward(cache, logits, params.zeros_like()).values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_draws_full_shape_masks(dtype):
    """Every dropout mask is drawn at the full (B, m, d) shape, the last
    layer's too, though past attention that layer keeps only the [MASK]
    rows: a forward pass advances the generator by exactly 2 L + 1 draws of
    that shape."""
    cfg = tiny_config("pte", dropout=0.1)
    params = dn.init_params(cfg, 3).astype(dtype)
    xt = np.array([[4, MASK_ID, 6, PAD_ID], [MASK_ID, 9, MASK_ID, 6]])
    rng = np.random.default_rng(9)
    dn.forward(params, xt, np.array([2, 6]), train=True, rng=rng)
    ref = np.random.default_rng(9)
    for _ in range(2 * cfg.num_layers + 1):
        ref.random((2, cfg.prefix_len + 4, cfg.d_model), dtype=dtype)
    assert rng.random() == ref.random()


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = dn.init_params(tiny_config("lte"), 13)
    p1, p2 = tmp_path / "a.spnd", tmp_path / "b.spnd"
    dn.save_checkpoint(p1, params, lam=0.25, vocab_hash="deadbeef", step=42,
                       extra_tensors={"opt.m.out.w": np.ones((16, 11))})
    ckpt = dn.load_checkpoint(p1)
    assert ckpt.lam == 0.25 and ckpt.vocab_hash == "deadbeef" and ckpt.step == 42
    assert ckpt.params.config == params.config
    assert "opt.m.out.w" in ckpt.extra_tensors
    dn.save_checkpoint(p2, ckpt.params, lam=ckpt.lam, vocab_hash=ckpt.vocab_hash,
                       step=ckpt.step, extra_tensors=ckpt.extra_tensors)
    assert p1.read_bytes() == p2.read_bytes()
    for name in params.names():
        assert np.array_equal(ckpt.params[name], params[name].astype(np.float32))


def test_checkpoint_is_an_npz_archive(tmp_path):
    path = tmp_path / "a.spnd"
    params = dn.init_params(tiny_config("pte"), 13)
    dn.save_checkpoint(path, params, lam=0.25, vocab_hash="deadbeef", step=None)
    with np.load(path, allow_pickle=False) as archive:
        assert set(archive.files) == {"[header]", *params.names()}
        assert all(archive[name].dtype == np.dtype("<f4") for name in params.names())
    assert [p.name for p in tmp_path.iterdir()] == ["a.spnd"]


def test_checkpoint_magic_guard(tmp_path):
    bad = tmp_path / "bad.spnd"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        dn.load_checkpoint(bad)
    bad.write_bytes(b"SPND1" + b"\x00" * 32)
    with pytest.raises(ValueError, match=re.escape(str(bad)) + ".*version 1"):
        dn.load_checkpoint(bad)


@pytest.mark.parametrize(
    "kind", ["truncated", "cut_record", "missing_key", "nan_weight", "misshapen", "inf_opt",
             *BAD_HEADER_KINDS]
)
def test_checkpoint_load_rejects_corrupt_files(tmp_path, corrupt_checkpoint, kind):
    good = tmp_path / "good.spnd"
    dn.save_checkpoint(good, dn.init_params(tiny_config("lte"), 13), lam=0.25,
                       vocab_hash="deadbeef", step=3,
                       extra_tensors={"opt.m.out.w": np.ones((16, 11))})
    bad = corrupt_checkpoint(good, tmp_path / "bad.spnd", kind)
    with pytest.raises(ValueError, match=re.escape(str(bad))) as err:
        dn.load_checkpoint(bad)
    assert kind.partition("=")[0] not in ("version", "records") or "wrong type" in str(err.value)


@pytest.fixture(scope="module")
def adam_checkpoint(tmp_path_factory):
    """A small lte checkpoint with full Adam records, and every tensor it holds."""
    params = dn.init_params(tiny_config("lte", num_layers=1), 13).astype(np.float32)
    rng = np.random.default_rng(5)
    extra = {f"opt.{k}.{name}": rng.random(v.shape, dtype=np.float32)
             for k in "mv" for name, v in params.tensors.items()}
    path = tmp_path_factory.mktemp("adam") / "adam.spnd"
    dn.save_checkpoint(path, params, lam=0.25, vocab_hash="deadbeef", step=9,
                       extra_tensors=extra)
    return path, params.config, {**params.tensors, **extra}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_raises_or_loads_intact(adam_checkpoint, data):
    """Any truncation or single-byte XOR either raises ValueError naming the
    path or loads exactly what was saved; no other exception escapes."""
    good, config, saved = adam_checkpoint
    raw = bytearray(good.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="offset")] ^= data.draw(
            st.integers(1, 255), label="xor")
    bad = good.with_name("damaged.spnd")
    bad.write_bytes(raw)
    try:
        ckpt = dn.load_checkpoint(bad, dtype=np.float32)
    except ValueError as exc:
        assert str(bad) in str(exc)
        return
    assert (ckpt.lam, ckpt.vocab_hash, ckpt.step, ckpt.params.config) == (0.25, "deadbeef", 9,
                                                                          config)
    loaded = {**ckpt.params.tensors, **ckpt.extra_tensors}
    assert loaded.keys() == saved.keys()
    assert all(np.array_equal(loaded[k], saved[k]) for k in saved)


def test_checkpoint_with_an_ffn_mult_header_still_loads(adam_checkpoint, tmp_path):
    """Version-2 files written while the FFN width was a config field hold
    "ffn_mult": 4 in their header; they still load, every tensor as saved.
    Files written now are version 3, and version 4 is refused."""
    good, config, saved = adam_checkpoint
    with np.load(good) as archive:
        members = {name: archive[name] for name in archive.files}
    header = json.loads(members["[header]"].tobytes())
    assert "ffn_mult" not in header and saved["layer0.ffn.w1"].shape == (16, 4 * 16)
    assert header["version"] == 3

    def rewrite(**changes):
        members["[header]"] = np.frombuffer(json.dumps({**header, **changes}).encode("utf-8"),
                                            dtype=np.uint8)
        with open(tmp_path / "old.spnd", "wb") as fh:
            np.savez(fh, **members)
        return tmp_path / "old.spnd"

    with pytest.raises(ValueError, match="unsupported checkpoint version 4"):
        dn.load_checkpoint(rewrite(version=4))
    ckpt = dn.load_checkpoint(rewrite(version=2, ffn_mult=4), dtype=np.float32)
    assert (ckpt.step, ckpt.params.config) == (9, config)
    loaded = {**ckpt.params.tensors, **ckpt.extra_tensors}
    assert loaded.keys() == saved.keys()
    assert all(np.array_equal(loaded[k], saved[k]) for k in saved)


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    """A write that fails partway leaves the file at path as it was and no
    temp file behind."""
    path = tmp_path / "model.spnd"
    dn.save_checkpoint(path, dn.init_params(tiny_config("lte"), 13), lam=0.25,
                       vocab_hash="deadbeef", step=1)
    before = path.read_bytes()
    real_savez = np.savez

    def failing_savez(fh, **members):
        buf = io.BytesIO()
        real_savez(buf, **members)
        fh.write(buf.getvalue()[: buf.tell() // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="no space left"):
        dn.save_checkpoint(path, dn.init_params(tiny_config("lte"), 14), lam=0.5,
                           vocab_hash="deadbeef", step=2)
    assert path.read_bytes() == before
    assert dn.load_checkpoint(path).step == 1
    assert [p.name for p in tmp_path.iterdir()] == ["model.spnd"]


@pytest.mark.parametrize("name, value", [("out.w", np.nan), ("opt.v.out.b", np.inf)])
def test_save_refuses_non_finite_tensor(tmp_path, name, value):
    """A non-finite tensor, model or optimizer, is refused before anything
    is written: the error names it, and no file or temp file is left."""
    params = dn.init_params(tiny_config("lte"), 13)
    extra = {"opt.v.out.b": np.zeros_like(params.tensors["out.b"])}
    {**params.tensors, **extra}[name].flat[1] = value
    with pytest.raises(ValueError, match=f"tensor {name} is not finite"):
        dn.save_checkpoint(tmp_path / "model.spnd", params, lam=0.25, vocab_hash="deadbeef",
                           step=1, extra_tensors=extra)
    assert list(tmp_path.iterdir()) == []


def test_sequence_too_long_rejected():
    params = dn.init_params(tiny_config("tad", n_max=4), 0)
    with pytest.raises(ValueError):
        dn.forward(params, np.full(5, 4), 1)
