"""Optimizer tests: recovery, stationarity, determinism, evaluate_at."""

import numpy as np
import pytest

from statnn.canonical import canonicalize
from statnn.exceptions import DataError, FitError
from statnn.fit import FitConfig, evaluate_at, fit, initialize
from statnn.likelihood import LikelihoodSpec, gradient, log_likelihood
from statnn.model import Architecture, Dataset, ParamVector, forward_batch


def _gaussian_data(arch, theta, n, seed, noise_sd=0.05):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, arch.p))
    mu = forward_batch(arch, theta, Dataset(x=x, y=np.zeros(n)))
    y = mu + noise_sd * rng.normal(size=n)
    return Dataset(x=x, y=y)


def _true_theta(arch, seed=7):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.5, 1.5, arch.r)
    # keep output weights well away from zero so nodes are identified
    for k in range(1, arch.q + 1):
        idx = arch.gamma_index(k)
        values[idx] = (2.0 + k) * (1 if k % 2 else -1)
    return canonicalize(ParamVector(arch, values))


def test_fit_recovers_generating_function():
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 400, seed=40)
    spec = LikelihoodSpec("gaussian", lam=0.0)
    result = fit(arch, data, spec, FitConfig(n_restarts=6, seed=1))
    assert result.converged
    fitted = forward_batch(arch, result.theta_hat, data)
    target = forward_batch(arch, truth, data)
    rmse = float(np.sqrt(np.mean((fitted - target) ** 2)))
    assert rmse < 0.05  # function recovered to well under the noise level
    assert result.sigma_sq_hat == pytest.approx(0.05 ** 2, rel=0.5)


def test_fit_satisfies_stationarity():
    """Reported grad_max is a true profile-gradient max-norm at the optimum."""
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 150, seed=41)
    spec = LikelihoodSpec("gaussian", lam=0.01)
    result = fit(arch, data, spec, FitConfig(n_restarts=4, seed=2))
    g = gradient(arch, result.theta_hat, data, spec, sigma_sq=1.0)
    assert np.max(np.abs(g)) == pytest.approx(result.grad_max, rel=1e-8)
    assert result.grad_max <= 1e-8


def test_fit_returns_canonical_theta():
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 150, seed=42)
    result = fit(arch, data, spec=LikelihoodSpec("gaussian", lam=0.01),
                 config=FitConfig(n_restarts=3, seed=3))
    np.testing.assert_array_equal(canonicalize(result.theta_hat).values,
                                  result.theta_hat.values)


def test_fit_deterministic_given_seed():
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 120, seed=43)
    spec = LikelihoodSpec("gaussian", lam=0.01)
    a = fit(arch, data, spec, FitConfig(n_restarts=5, seed=9))
    b = fit(arch, data, spec, FitConfig(n_restarts=5, seed=9))
    np.testing.assert_array_equal(a.theta_hat.values, b.theta_hat.values)
    assert a.loglik == b.loglik
    assert a.restart_logliks == b.restart_logliks


def test_fit_seed_changes_start_points():
    arch = Architecture(p=2, q=2)
    a = initialize(arch, np.random.default_rng(0))
    b = initialize(arch, np.random.default_rng(1))
    assert not np.array_equal(a.values, b.values)


def test_restart_logliks_sorted_and_best_reported():
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 120, seed=44)
    result = fit(arch, data, LikelihoodSpec("gaussian", lam=0.01),
                 FitConfig(n_restarts=6, seed=4))
    assert len(result.restart_logliks) == 6
    assert result.loglik == max(result.restart_logliks)


def test_penalty_shrinks_weights():
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 200, seed=46)
    loose = fit(arch, data, LikelihoodSpec("gaussian", lam=0.0),
                FitConfig(n_restarts=4, seed=6))
    tight = fit(arch, data, LikelihoodSpec("gaussian", lam=5.0),
                FitConfig(n_restarts=4, seed=6))
    mask = arch.penalized_mask()

    def pen_norm(res):
        return float(np.sum(res.theta_hat.values[mask] ** 2))

    assert pen_norm(tight) < pen_norm(loose)


def test_fit_bernoulli():
    rng = np.random.default_rng(47)
    arch = Architecture(p=2, q=2, output_activation="logistic")
    truth = _true_theta(arch)
    x = rng.normal(size=(300, 2))
    mu = forward_batch(arch, truth, Dataset(x=x, y=np.zeros(300)))
    y = (rng.uniform(size=300) < mu).astype(float)
    data = Dataset(x=x, y=y)
    result = fit(arch, data, LikelihoodSpec("bernoulli", lam=0.01),
                 FitConfig(n_restarts=4, seed=7))
    assert result.converged
    assert result.sigma_sq_hat is None
    # fitted probabilities beat the intercept-only model on log-loss
    p_hat = forward_batch(arch, result.theta_hat, data)
    base = np.mean(y)
    ll_base = float(np.sum(y * np.log(base) + (1 - y) * np.log(1 - base)))
    ll_fit = float(np.sum(y * np.log(p_hat) + (1 - y) * np.log(1 - p_hat)))
    assert ll_fit > ll_base


def test_fit_rejects_family_mismatch():
    arch = Architecture(p=1, q=1, output_activation="logistic")
    data = Dataset(x=np.zeros((4, 1)), y=np.array([0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(Exception):
        fit(arch, data, LikelihoodSpec("gaussian", lam=0.0),
            FitConfig(n_restarts=1))


def test_fit_rejects_non_binary_bernoulli_response():
    arch = Architecture(p=1, q=1, output_activation="logistic")
    data = Dataset(x=np.zeros((4, 1)), y=np.array([0.0, 1.0, 0.5, 1.0]))
    with pytest.raises(DataError, match="0, 1"):
        fit(arch, data, LikelihoodSpec("bernoulli", lam=0.0),
            FitConfig(n_restarts=1))


def test_fit_p_mismatch():
    arch = Architecture(p=3, q=1)
    data = Dataset(x=np.zeros((4, 2)), y=np.zeros(4))
    with pytest.raises(Exception):
        fit(arch, data, LikelihoodSpec("gaussian", lam=0.0),
            FitConfig(n_restarts=1))


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(n_restarts=0)


def test_evaluate_at_matches_fit_conventions():
    """Wrapping theta_hat reproduces the fit's own reported quantities."""
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 150, seed=48)
    spec = LikelihoodSpec("gaussian", lam=0.01)
    fitted = fit(arch, data, spec, FitConfig(n_restarts=3, seed=8))
    wrapped = evaluate_at(arch, fitted.theta_hat, data, spec)
    assert wrapped.loglik == pytest.approx(fitted.loglik, rel=1e-12)
    assert wrapped.sigma_sq_hat == pytest.approx(fitted.sigma_sq_hat,
                                                 rel=1e-12)
    assert wrapped.grad_max == pytest.approx(fitted.grad_max, rel=1e-6,
                                             abs=1e-12)
    assert wrapped.converged  # stationary point passes the looser check
    assert wrapped.iterations == 0


def test_evaluate_at_nonstationary_point():
    arch = Architecture(p=1, q=1)
    data = _gaussian_data(arch, _true_theta(arch), 50, seed=49)
    theta = ParamVector(arch, np.full(arch.r, 0.3))
    spec = LikelihoodSpec("gaussian", lam=0.0)
    result = evaluate_at(arch, theta, data, spec)
    assert not result.converged
    assert result.grad_max > 1e-6
    np.testing.assert_array_equal(result.theta_hat.values, theta.values)


def test_evaluate_at_p_mismatch():
    arch = Architecture(p=2, q=1)
    data = Dataset(x=np.zeros((4, 1)), y=np.zeros(4))
    with pytest.raises(ValueError):
        evaluate_at(arch, ParamVector.zeros(arch), data,
                    LikelihoodSpec("gaussian", lam=0.0))
