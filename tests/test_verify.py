import numpy as np
import pytest

from spindle import denoiser, training, verify


def test_run_all_passes_every_check():
    results = verify.run_all()
    assert [r.name for r in results] == [
        "spindle-identity", "degenerate-schedule", "posterior-vs-brute", "marginal-mc",
        "gradient-fd", "kl-simplification", "elbo-bound", "head-split",
    ]
    assert all(r.ok for r in results), [(r.name, r.detail) for r in results if not r.ok]


@pytest.mark.parametrize("module, wrong_reveal, check", [
    (verify, lambda alpha_s, alpha_t: alpha_s, verify.check_posterior_vs_brute),
    (training, lambda alpha_s, alpha_t: np.ones_like(alpha_s), verify.check_kl_simplification),
], ids=["posterior-vs-brute", "kl-simplification"])
def test_check_fails_when_reveal_is_wrong(monkeypatch, module, wrong_reveal, check):
    """The checks run the reveal probability the fast paths use: with
    `reveal_from_rows` replaced by a wrong formula where the check calls it,
    directly or through `diffusion_loss_batch`, the check fails."""
    monkeypatch.setattr(module, "reveal_from_rows", wrong_reveal)
    assert not check(num_instances=100).ok


def test_head_split_check_fails_when_a_half_moves(monkeypatch):
    """The head-split check runs the split the denoiser runs: with a split
    whose second half's bias is added twice, it fails at every shape."""
    split = denoiser._split_head

    def moved(hf, p, cut):
        logits = split(hf, p, cut)
        logits[:, cut:] += p["out.b"][cut:]
        return logits

    monkeypatch.setattr(verify, "_split_head", moved)
    result = verify.check_head_split()
    assert not result.ok and result.detail == "16 of 16 shapes moved"
