import numpy as np
import pytest

from spindle import training, verify


def test_run_all_passes_every_check():
    results = verify.run_all()
    assert [r.name for r in results] == [
        "spindle-identity", "degenerate-schedule", "posterior-vs-brute", "marginal-mc",
        "gradient-fd", "kl-simplification", "elbo-bound",
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

