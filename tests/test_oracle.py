import math

import numpy as np
import pytest

from spindle import oracle as orc
from spindle.corpus import MASK_ID
from spindle.rng import stream


def test_tiny_instance_validation():
    with pytest.raises(ValueError):
        orc.TinyInstance(2, np.array([0.5, 0.5]))  # 1-D betas
    with pytest.raises(ValueError):
        orc.TinyInstance(2, np.array([[1.5]]))


def test_q_matrix_rows_stochastic():
    tiny = orc.TinyInstance(3, np.array([[0.3, 0.7], [0.2, 0.4]]))
    for t in (1, 2):
        for pos in (0, 1):
            q = tiny.q_matrix(t, pos)
            assert np.allclose(q.sum(axis=1), 1.0)
            assert q[MASK_ID, MASK_ID] == 1.0


def test_brute_posterior_deterministic_chain_is_point_mass():
    tiny = orc.TinyInstance(3, np.zeros((3, 2)))  # beta = 0 everywhere
    x0 = np.array([4, 5])
    g = orc.brute_skip_posterior(tiny, x0, x0, 2, 1)
    assert g[0, 4] == 1.0 and g[1, 5] == 1.0


def test_brute_posterior_certain_mask_step():
    tiny = orc.TinyInstance(2, np.array([[1.0, 1.0]]))  # beta_1 = 1
    x0 = np.array([3, 4])
    xt = np.full(2, MASK_ID)
    g = orc.brute_skip_posterior(tiny, xt, x0, 1, 0)
    # t=1, s=0: posterior must reveal x0 surely
    assert g[0, 3] == 1.0 and g[1, 4] == 1.0


def test_brute_posterior_impossible_evidence():
    tiny = orc.TinyInstance(2, np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        orc.brute_skip_posterior(tiny, np.array([4, 3]), np.array([3, 3]), 1, 0)


def test_mc_marginal_t0_exact():
    tiny = orc.TinyInstance(2, np.array([[0.4, 0.6]]))
    x0 = np.array([3, 4])
    g = orc.mc_marginal(tiny, x0, 0, 500, 0)
    assert g[0, 3] == 1.0 and g[1, 4] == 1.0


def test_mc_marginal_reproducible():
    tiny = orc.TinyInstance(2, np.array([[0.4, 0.6], [0.3, 0.2]]))
    x0 = np.array([3, 4])
    a = orc.mc_marginal(tiny, x0, 2, 5000, 7)
    b = orc.mc_marginal(tiny, x0, 2, 5000, 7)
    assert np.array_equal(a, b)


def test_mc_marginal_tracks_closed_form():
    """After two steps each token is kept with alpha_bar[2] = (1 - beta_1)(1 - beta_2)
    and is [MASK] otherwise."""
    tiny = orc.TinyInstance(2, np.array([[0.4, 0.6], [0.3, 0.2]]))
    x0 = np.array([3, 4])
    mc = orc.mc_marginal(tiny, x0, 2, 100_000, 3)
    keep = np.prod(1.0 - tiny.betas, axis=0)
    assert np.abs(mc[[0, 1], x0] - keep).max() <= 0.01
    assert np.abs(mc[:, MASK_ID] - (1.0 - keep)).max() <= 0.01
    assert np.allclose(mc.sum(axis=1), 1.0)


def test_exact_nll_uniform_single_step():
    """Uniform model, n=1, T=1, C content tokens: a single certain reveal
    costs exactly ln C."""
    c = 4
    tiny = orc.TinyInstance(c, np.array([[1.0]]))

    def uniform(xt, t):
        out = np.zeros((1, tiny.num_classes))
        out[0, 3:] = 1.0 / c
        return out

    assert orc.exact_nll(tiny, uniform, np.array([3])) == pytest.approx(math.log(c), abs=1e-12)


def test_exact_nll_perfect_model_is_zero():
    tiny = orc.TinyInstance(3, np.array([[1.0, 1.0]]))
    x0 = np.array([4, 5])

    def perfect(xt, t):
        out = np.zeros((2, tiny.num_classes))
        out[np.arange(2), x0] = 1.0
        return out

    assert orc.exact_nll(tiny, perfect, x0) == pytest.approx(0.0, abs=1e-12)


def test_exact_nll_refuses_large_instances():
    tiny = orc.TinyInstance(4, np.full((12, 6), 0.5))
    with pytest.raises(ValueError):
        orc.exact_nll(tiny, lambda xt, t: np.zeros((6, 7)), np.full(6, 3))


def test_exact_nll_matches_dp_cross_check():
    """Path enumeration equals an independent distribution-propagation
    computation of p(x0)."""
    rng = stream(0, "dp")
    for trial in range(5):
        tiny = orc.random_tiny_instance(rng, absorb_fully=True)
        table = rng.dirichlet(np.ones(tiny.num_content), size=2 ** 8)

        def predict(xt, t):
            key = hash((tuple(int(v) for v in xt), 0)) % table.shape[0]
            out = np.zeros((tiny.n, tiny.num_classes))
            out[:, 3:] = table[key]
            return out

        x0 = rng.choice(tiny.content_ids, size=tiny.n)
        nll = orc.exact_nll(tiny, predict, x0)

        import itertools

        states = list(itertools.product([MASK_ID] + tiny.content_ids, repeat=tiny.n))
        index = {s: i for i, s in enumerate(states)}
        dist = np.zeros(len(states))
        dist[index[tuple([MASK_ID] * tiny.n)]] = 1.0
        for t in range(tiny.T, 0, -1):
            new = np.zeros_like(dist)
            for s_idx, state in enumerate(states):
                if dist[s_idx] == 0:
                    continue
                ker = orc._reverse_kernel(tiny, t, state, predict(np.array(state), t))
                for y_idx, y in enumerate(states):
                    p = 1.0
                    for i in range(tiny.n):
                        p *= ker[i, y[i]]
                        if p == 0:
                            break
                    if p:
                        new[y_idx] += dist[s_idx] * p
            dist = new
        assert nll == pytest.approx(-math.log(dist[index[tuple(x0)]]), abs=1e-10)


def test_generic_kl_basics():
    assert orc.generic_kl([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert orc.generic_kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))
    assert math.isinf(orc.generic_kl([0.5, 0.5], [1.0, 0.0]))
    with pytest.raises(ValueError):
        orc.generic_kl([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError):
        orc.generic_kl([0.5, 0.5], [0.6, 0.5])


def test_generic_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        q = rng.dirichlet(np.ones(k))
        p = rng.dirichlet(np.ones(k))
        assert orc.generic_kl(q, p) >= 0.0
