import math

import numpy as np
import pytest

from bvihead.dist import DiagonalGaussian, PriorSpec, kl_to_prior, sample
from bvihead.errors import ConfigError, ShapeError
from bvihead.tensor import Tensor

from helpers import assert_gradients_match


def _gaussian(mu, rho):
    return DiagonalGaussian(Tensor(mu), Tensor(rho))


def mc_kl_estimate(mu, rho, prior, n_samples, seed):
    """Monte Carlo oracle: E_q[ln q(w) - ln p(w)] by direct sampling."""
    rng = np.random.default_rng(seed)
    std_q = np.log1p(np.exp(np.minimum(rho, 30.0)))
    std_q = np.where(rho > 30.0, rho, std_q)
    eps = rng.standard_normal((n_samples,) + mu.shape)
    w = mu + std_q * eps
    log_q = -0.5 * ((w - mu) / std_q) ** 2 - np.log(std_q) - 0.5 * math.log(2 * math.pi)
    log_p = (
        -0.5 * ((w - prior.mean) / prior.std) ** 2
        - math.log(prior.std)
        - 0.5 * math.log(2 * math.pi)
    )
    per_sample = (log_q - log_p).reshape(n_samples, -1).sum(axis=1)
    return per_sample.mean()


def test_softplus_analytic_points():
    out = Tensor([0.0, -20.0, 100.0]).softplus()
    assert out.data[0] == pytest.approx(math.log(2.0), rel=1e-12)
    assert out.data[1] == pytest.approx(2.0611536181902037e-9, rel=1e-9)
    assert out.data[1] > 0
    assert out.data[2] == pytest.approx(100.0, abs=1e-12)


def test_softplus_positive_for_very_negative_rho():
    out = Tensor(np.linspace(-40, -5, 20)).softplus()
    assert (out.data > 0).all()


def test_sample_zero_noise_returns_mean():
    g = _gaussian([1.0, -2.0, 3.0], [0.5, 0.5, 0.5])
    w = sample(g, Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(w.data, [1.0, -2.0, 3.0])


def test_sample_unit_noise_composition():
    g = _gaussian([0.0], [0.0])
    w = sample(g, Tensor([1.0]))
    assert w.data[0] == pytest.approx(math.log(2.0), rel=1e-12)


def test_sample_shape_mismatch():
    g = _gaussian([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ShapeError):
        sample(g, Tensor([1.0]))


def test_sample_fixed_eps_is_deterministic():
    rng = np.random.default_rng(0)
    g = _gaussian(rng.normal(size=5), rng.normal(size=5))
    eps = Tensor(rng.standard_normal(5))
    np.testing.assert_array_equal(sample(g, eps).data, sample(g, eps).data)


def test_sample_moments_match_posterior():
    mu = np.array([0.3, -1.2])
    rho = np.array([0.1, -0.8])
    g = _gaussian(mu, rho)
    rng = np.random.default_rng(42)
    n = 10**6
    eps = rng.standard_normal((n, 2))
    std = np.log1p(np.exp(rho))
    draws = np.stack([sample(g, Tensor(e)).data for e in eps[: 10**4]])
    # graph-based draws are slow; check the bulk with the same formula
    bulk = mu + std * eps
    np.testing.assert_allclose(draws, bulk[: 10**4])
    se_mean = std / math.sqrt(n)
    assert np.all(np.abs(bulk.mean(axis=0) - mu) < 4 * se_mean)
    se_std = std / math.sqrt(2 * (n - 1))
    assert np.all(np.abs(bulk.std(axis=0, ddof=1) - std) < 4 * se_std)


def test_kl_identical_distributions_is_zero():
    # N(0, 1) posterior: rho such that softplus(rho) = 1
    rho_for_unit = math.log(math.e - 1.0)
    g = _gaussian([0.0], [rho_for_unit])
    kl = kl_to_prior(g, PriorSpec(0.0, 1.0))
    assert float(kl.data) == pytest.approx(0.0, abs=1e-12)


def test_kl_unit_mean_shift():
    rho_for_unit = math.log(math.e - 1.0)
    g = _gaussian([1.0], [rho_for_unit])
    kl = kl_to_prior(g, PriorSpec(0.0, 1.0))
    assert float(kl.data) == pytest.approx(0.5, rel=1e-12)


def test_kl_matches_monte_carlo_oracle():
    rng = np.random.default_rng(7)
    for trial in range(3):
        mu = rng.uniform(-2, 2, size=3)
        rho = rng.uniform(-2, 1, size=3)
        prior = PriorSpec(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        analytic = float(kl_to_prior(_gaussian(mu, rho), prior).data)
        if analytic < 0.5:
            mu = mu + 3.0 * prior.std
            analytic = float(kl_to_prior(_gaussian(mu, rho), prior).data)
        mc = mc_kl_estimate(mu, rho, prior, n_samples=10**6, seed=100 + trial)
        assert abs(analytic - mc) / analytic < 0.01


def test_kl_nonnegative_over_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        mu = rng.uniform(-3, 3, size=2)
        rho = rng.uniform(-4, 2, size=2)
        prior = PriorSpec(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        kl = float(kl_to_prior(_gaussian(mu, rho), prior).data)
        assert kl >= 0.0


def test_kl_zero_against_own_moments():
    rng = np.random.default_rng(13)
    rho = rng.uniform(-1, 1)
    mu = rng.uniform(-2, 2)
    std = float(np.log1p(np.exp(rho)))
    kl = kl_to_prior(_gaussian([mu], [rho]), PriorSpec(mu, std))
    assert abs(float(kl.data)) < 1e-12


def test_kl_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    mu = rng.normal(size=(2, 3))
    rho = rng.uniform(-2, 1, size=(2, 3))
    prior = PriorSpec(0.3, 1.5)

    def loss(ts):
        return kl_to_prior(DiagonalGaussian(ts[0], ts[1]), prior)

    assert_gradients_match(loss, [mu, rho], rel=1e-6)


def test_sample_gradient_reaches_mu_and_rho():
    rng = np.random.default_rng(19)
    mu = rng.normal(size=4)
    rho = rng.uniform(-1, 1, size=4)
    eps = rng.standard_normal(4)

    def loss(ts):
        w = sample(DiagonalGaussian(ts[0], ts[1]), Tensor(eps))
        return (w * w).sum()

    assert_gradients_match(loss, [mu, rho], rel=1e-6)


def test_prior_spec_rejects_bad_std():
    with pytest.raises(ConfigError):
        PriorSpec(0.0, 0.0)


def test_diagonal_gaussian_shape_mismatch():
    with pytest.raises(ShapeError):
        DiagonalGaussian(Tensor([0.0, 1.0]), Tensor([0.0]))


def test_fused_kl_gradient_matches_finite_differences_with_shared_std():
    rng = np.random.default_rng(23)
    mu = rng.normal(size=(3, 2))
    rho = rng.uniform(-3, 2, size=(3, 2))
    eps = rng.standard_normal((3, 2))
    prior = PriorSpec(-0.4, 0.8)

    def own_std(ts):
        return kl_to_prior(DiagonalGaussian(ts[0], ts[1]), prior)

    def shared_std(ts):
        # one softplus feeds both the draw and the KL, as in the layers
        g = DiagonalGaussian(ts[0], ts[1])
        std = g.rho.softplus()
        w = sample(g, eps, std)
        return (w * w).sum() + kl_to_prior(g, prior, std) * 0.7

    assert_gradients_match(own_std, [mu, rho], rel=1e-7)
    assert_gradients_match(shared_std, [mu, rho], rel=1e-7)


def test_fused_kl_is_one_node_with_closed_form_gradients():
    mu = np.array([0.5, -1.0, 2.0])
    rho = np.array([-1.0, 0.0, 1.5])
    prior = PriorSpec(0.2, 1.7)
    g = _gaussian(mu, rho)
    std = g.rho.softplus()
    kl = kl_to_prior(g, prior, std)
    assert kl._parents == (g.mu, std)
    kl.backward()
    s = np.log1p(np.exp(rho))
    np.testing.assert_allclose(g.mu.grad, (mu - prior.mean) / prior.std**2, rtol=1e-14)
    np.testing.assert_allclose(std.grad, s / prior.std**2 - 1.0 / s, rtol=1e-14)
    assert float(kl.data) == pytest.approx(float(kl_to_prior(g, prior).data), rel=1e-15)


def test_kl_rejects_std_of_wrong_shape():
    g = _gaussian([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ShapeError):
        kl_to_prior(g, PriorSpec(), Tensor([1.0]))
