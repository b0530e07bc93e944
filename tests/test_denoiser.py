import re

import numpy as np
import pytest

import spindle as sp
from spindle import denoiser as dn
from spindle.corpus import CLS_ID, MASK_ID, PAD_ID
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


def test_time_arg_contract():
    params = dn.init_params(tiny_config("tad"), 0)
    xt = np.array([4, 5, 6])
    assert dn.predict_x0_logits(params, xt).shape == (3, 11)
    with pytest.raises(ValueError):
        dn.predict_x0_logits(params, xt, 3)
    params_lte = dn.init_params(tiny_config("lte"), 0)
    with pytest.raises(ValueError):
        dn.predict_x0_logits(params_lte, xt)
    assert dn.predict_x0_logits(params_lte, xt, 3).shape == (3, 11)


def test_untrained_model_is_uniform_over_content():
    params = dn.init_params(tiny_config("tad"), 0)
    logits = dn.predict_x0_logits(params, np.full(4, MASK_ID))
    assert np.all(np.isneginf(logits[:, [MASK_ID, PAD_ID, CLS_ID]]))
    probs = softmax(logits)
    assert np.allclose(probs[:, 3:], 1.0 / 8, atol=1e-12)


def test_determinism():
    params = dn.init_params(tiny_config("pte"), 3)
    xt = np.array([4, MASK_ID, 6, 7])
    a = dn.predict_x0_logits(params, xt, 2)
    b = dn.predict_x0_logits(params, xt, 2)
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


def test_softmax_rows_normalize():
    params = dn.init_params(tiny_config("tad", num_layers=1), 5)
    rng = np.random.default_rng(0)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    logits = dn.predict_x0_logits(params, np.array([4, MASK_ID, 9]))
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(probs[:, :3] == 0.0)


def test_tad_ignores_time_lte_uses_it():
    rng = np.random.default_rng(0)
    params = dn.init_params(tiny_config("lte"), 7)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    params.tensors["time_mlp.w2"] += rng.normal(0, 0.4, params.tensors["time_mlp.w2"].shape)
    xt = np.array([4, MASK_ID, 6])
    assert not np.allclose(dn.predict_x0_logits(params, xt, 1),
                           dn.predict_x0_logits(params, xt, 5))


def test_pte_time_token_changes_output():
    rng = np.random.default_rng(0)
    params = dn.init_params(tiny_config("pte"), 7)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    xt = np.array([4, MASK_ID, 6])
    assert not np.allclose(dn.predict_x0_logits(params, xt, 1),
                           dn.predict_x0_logits(params, xt, 5))
    assert dn.predict_x0_logits(params, xt, 5).shape == (3, 11)  # prefix rows dropped


def test_bidirectional_permutation_equivariance():
    """Permuting two masked positions together with their positional rows
    permutes the output rows (no causal mask)."""
    cfg = tiny_config("tad", num_layers=2)
    params = dn.init_params(cfg, 9)
    rng = np.random.default_rng(1)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    xt = np.array([4, MASK_ID, 6, MASK_ID])
    base = dn.predict_x0_logits(params, xt)

    swapped = params.copy()
    # content position i sits at internal row i + 1 (after [CLS])
    pe = swapped.tensors["pos_emb"].copy()
    pe[[2, 4]] = pe[[4, 2]]
    swapped.tensors["pos_emb"] = pe
    xt_sw = xt.copy()
    xt_sw[[1, 3]] = xt_sw[[3, 1]]
    out = dn.predict_x0_logits(swapped, xt_sw)
    finite = np.isfinite(base)
    assert np.allclose(out[[3, 1]][finite[[1, 3]]], base[[1, 3]][finite[[1, 3]]], atol=1e-10)
    assert np.allclose(out[[0, 2]][finite[[0, 2]]], base[[0, 2]][finite[[0, 2]]], atol=1e-10)


def test_backward_zero_upstream_gives_zero_grads():
    params = dn.init_params(tiny_config("lte"), 2)
    xt = np.array([[4, 5, MASK_ID]])
    logits, cache = dn.forward(params, xt, np.array([3]))
    grads = dn.backward(cache, np.zeros_like(logits))
    assert all(np.all(g == 0) for g in grads.values())


def test_backward_shape_mismatch_errors():
    params = dn.init_params(tiny_config("tad"), 2)
    _, cache = dn.forward(params, np.array([[4, 5]]))
    with pytest.raises(ValueError):
        dn.backward(cache, np.zeros((1, 3, 11)))


def test_backward_unused_time_rows_zero_grad():
    params = dn.init_params(tiny_config("pte"), 2)
    rng = np.random.default_rng(0)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    xt = np.array([[4, MASK_ID, 6]])
    logits, cache = dn.forward(params, xt, np.array([2]))
    up = np.ones_like(logits)
    up[~np.isfinite(logits)] = 0.0
    grads = dn.backward(cache, up)
    used = np.zeros(7, dtype=bool)
    used[2] = True
    assert np.all(grads["time_tok_emb"][~used] == 0.0)
    assert np.any(grads["time_tok_emb"][used] != 0.0)


@pytest.mark.parametrize("mode", ["tad", "lte", "pte"])
def test_gradients_match_finite_differences(mode):
    """Full-coverage FD check of the manual backward pass, with dropout and
    padding active."""
    cfg = tiny_config(mode, dropout=0.1)
    params = dn.init_params(cfg, 11)
    rng = np.random.default_rng(4)
    params.tensors["out.w"] += rng.normal(0, 0.4, params.tensors["out.w"].shape)
    xt = np.array([[4, MASK_ID, 5, PAD_ID], [MASK_ID, 9, 10, 6]])
    t = np.array([2, 6]) if mode != "tad" else None
    w = rng.normal(0, 1, (2, 4, 11))
    w[:, :, :3] = 0.0
    w[0, 3] = 0.0  # pad position carries no loss

    def loss(p):
        logits, _ = dn.forward(p, xt, t, train=True, rng=stream(5, "drop"))
        return float(np.sum(np.where(np.isfinite(logits), logits * w, 0.0)))

    _, cache = dn.forward(params, xt, t, train=True, rng=stream(5, "drop"))
    grads = dn.backward(cache, w)
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
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-4))
    assert worst <= 1e-4


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


def test_checkpoint_magic_guard(tmp_path):
    bad = tmp_path / "bad.spnd"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        dn.load_checkpoint(bad)


@pytest.mark.parametrize(
    "kind", ["truncated", "cut_record", "missing_key", "nan_weight", "inf_opt"]
)
def test_checkpoint_load_rejects_corrupt_files(tmp_path, corrupt_checkpoint, kind):
    good = tmp_path / "good.spnd"
    dn.save_checkpoint(good, dn.init_params(tiny_config("lte"), 13), lam=0.25,
                       vocab_hash="deadbeef", step=3,
                       extra_tensors={"opt.m.out.w": np.ones((16, 11))})
    bad = corrupt_checkpoint(good, tmp_path / "bad.spnd", kind)
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        dn.load_checkpoint(bad)


def test_sequence_too_long_rejected():
    params = dn.init_params(tiny_config("tad", n_max=4), 0)
    with pytest.raises(ValueError):
        dn.predict_x0_logits(params, np.full(5, 4))
