"""Sandwich covariance, Wald tests, and model-summary tests."""

import dataclasses

import numpy as np
import pytest

from statnn.exceptions import NotPositiveDefiniteError, ShapeError
from statnn.fit import FitConfig, fit
from statnn.inference import (_PD_RTOL, SIGNIFICANCE_LEGEND,
                              CovarianceEstimate, effective_df,
                              sandwich_covariance, significance_stars,
                              summarize, wald_multi, wald_single)
from statnn.likelihood import observed_information
from statnn.model import Architecture, Dataset, ParamVector, forward_batch
from statnn.special import chi_square_survival


def _fitted_instance(lam=0.01, n=300, seed=60):
    rng = np.random.default_rng(seed)
    arch = Architecture(p=2, q=2)
    values = np.array([0.4, -0.9, 1.1, 0.7, -0.8, 1.2, 0.3, 4.0, -3.5])
    truth = ParamVector(arch, values)
    x = rng.normal(size=(n, 2))
    mu = forward_batch(truth, Dataset(x=x, y=np.zeros(n)))
    y = mu + 0.3 * rng.normal(size=n)
    data = Dataset(x=x, y=y)
    result = fit(arch, data, lam, FitConfig(n_restarts=5, seed=seed))
    info = observed_information(result.theta_hat, data,
                                sigma_sq=result.sigma_sq_hat)
    return arch, data, result, info


def test_unpenalized_sandwich_inverts_information():
    """At lambda = 0 the sandwich collapses to the inverse information."""
    arch, data, result, info = _fitted_instance(lam=0.0)
    cov = sandwich_covariance(info, lam=0.0)
    r = arch.r
    np.testing.assert_allclose(cov.sigma_hat @ info, np.eye(r), atol=1e-8)
    np.testing.assert_allclose(cov.a_matrix, np.eye(r), atol=1e-8)


def test_scalar_sandwich_value():
    """1-d worked example: info = 2, lambda = 0.005 gives 2 / 2.01^2."""
    cov = sandwich_covariance(np.array([[2.0]]), lam=0.005)
    want = 2.0 / (2.0 + 2 * 0.005) ** 2
    assert cov.sigma_hat[0, 0] == pytest.approx(want, rel=1e-12)
    assert cov.a_matrix[0, 0] == pytest.approx(2.0 / 2.01, rel=1e-12)


def test_sandwich_symmetric_matrix_identity():
    """Full-matrix check of (I+2lI)^-1 I (I+2lI)^-1 on a random SPD info."""
    rng = np.random.default_rng(61)
    m = rng.normal(size=(6, 6))
    info = m @ m.T + 6 * np.eye(6)
    lam = 0.3
    cov = sandwich_covariance(info, lam=lam)
    bread = np.linalg.inv(info + 2 * lam * np.eye(6))
    np.testing.assert_allclose(cov.sigma_hat, bread @ info @ bread,
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(cov.a_matrix, bread @ info,
                               rtol=1e-10, atol=1e-12)


def test_sandwich_flags_indefinite_information():
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"\(min eigenvalue -1\)"):
        sandwich_covariance(np.diag([4.0, -1.0]), lam=0.0)


def test_penalty_does_not_mask_indefiniteness():
    """Sigma = B I B is congruent to I, so an indefinite information
    stays refused no matter how large the ridge penalty is."""
    info = np.diag([4.0, -0.2])
    for lam in (0.0, 0.5, 50.0):
        with pytest.raises(NotPositiveDefiniteError):
            sandwich_covariance(info, lam=lam)


def test_nonfinite_penalty_is_bad_input():
    """A penalty that is not finite is a bad argument (exit 2 in the
    command line), not a numerical failure of the covariance."""
    for lam in (np.nan, np.inf, -0.1):
        with pytest.raises(ValueError,
                           match="ridge penalty must be finite and "
                                 "nonnegative"):
            sandwich_covariance(np.eye(3), lam)


def test_covariance_estimate_is_positive_definite_by_construction():
    """The record refuses an indefinite or a non-finite matrix, also when
    ``dataclasses.replace`` builds it from a valid one."""
    cov = sandwich_covariance(np.diag([4.0, 2.0]), lam=0.0)
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    nonfinite = np.array([[1.0, 0.0], [0.0, np.inf]])
    for sigma in (indefinite, nonfinite):
        with pytest.raises(NotPositiveDefiniteError):
            CovarianceEstimate(sigma_hat=sigma, a_matrix=np.eye(2))
    # The lower triangle alone is the identity, which eigvalsh would
    # accept; the symmetric part has eigenvalue -49.
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^covariance estimate is not symmetric; Wald "
                             r"tests and confidence bands are unavailable$"):
        CovarianceEstimate(sigma_hat=[[1.0, 100.0], [0.0, 1.0]],
                           a_matrix=np.eye(2))
    # A nested list is held as an array, so the grouped test can slice it.
    arch = Architecture(p=1, q=1)
    listed = CovarianceEstimate(
        sigma_hat=np.diag([1.0, 0.25, 1.0, 1.0]).tolist(),
        a_matrix=np.eye(arch.r).tolist())
    res = wald_multi(ParamVector(arch, [0.0, 2.0, 0.0, 0.0]), listed, 1)
    assert (res.statistic, res.df) == (16.0, 1.0)
    with pytest.raises(NotPositiveDefiniteError):
        dataclasses.replace(cov, sigma_hat=-cov.sigma_hat)
    doubled = dataclasses.replace(cov, sigma_hat=2.0 * cov.sigma_hat)
    np.testing.assert_array_equal(doubled.sigma_hat, 2.0 * cov.sigma_hat)


def test_singular_information_has_no_covariance():
    """Unpenalized, an exactly singular information cannot be inverted:
    the one non-positive-definite error, not a covariance."""
    with pytest.raises(NotPositiveDefiniteError,
                       match="penalized information matrix is numerically "
                             "singular"):
        sandwich_covariance(np.diag([4.0, 0.0]), lam=0.0)


def test_sandwich_shrinks_variance():
    """Ridge penalization can only tighten the reported variances."""
    rng = np.random.default_rng(62)
    m = rng.normal(size=(5, 5))
    info = m @ m.T + 5 * np.eye(5)
    v0 = np.diag(sandwich_covariance(info, lam=0.0).sigma_hat)
    v1 = np.diag(sandwich_covariance(info, lam=1.0).sigma_hat)
    assert np.all(v1 < v0)


def test_effective_df_unpenalized_equals_block_size():
    arch, data, result, info = _fitted_instance(lam=0.0)
    cov = sandwich_covariance(info, lam=0.0)
    block = arch.covariate_block(1)
    assert effective_df(cov, block) == pytest.approx(arch.q, abs=1e-8)


def test_effective_df_shrinks_under_penalty():
    arch, data, result, info = _fitted_instance(lam=0.1)
    cov = sandwich_covariance(info, lam=0.1)
    df = effective_df(cov, arch.covariate_block(1))
    assert 0.0 < df < arch.q


def test_effective_df_identity_block():
    """Diagonal worked example: A = diag(i / (i + 2 lambda))."""
    info = np.diag([2.0, 4.0])
    cov = sandwich_covariance(info, lam=0.5)
    assert effective_df(cov, slice(0, 2)) == pytest.approx(
        2.0 / 3.0 + 4.0 / 5.0, rel=1e-12)
    assert effective_df(cov, slice(1, 2)) == pytest.approx(
        4.0 / 5.0, rel=1e-12)


def test_wald_single_statistic_definition():
    """Every weight's SE, theta_i^2 / Sigma_ii and chi-square(1) tail."""
    arch, data, result, info = _fitted_instance(lam=0.01)
    cov = sandwich_covariance(info, lam=0.01)
    theta = result.theta_hat.values
    se, stat, p_value = wald_single(theta, np.diag(cov.sigma_hat))
    assert se.shape == stat.shape == p_value.shape == (arch.r,)
    for idx in range(arch.r):
        var = cov.sigma_hat[idx, idx]
        want = theta[idx] ** 2 / var
        assert se[idx] == pytest.approx(np.sqrt(var), rel=1e-12)
        assert stat[idx] == pytest.approx(want, rel=1e-12)
        assert p_value[idx] == pytest.approx(chi_square_survival(want, 1.0),
                                             rel=1e-12)


def _check_against_selection_matrix(arch, theta, cov):
    """The grouped statistic and df equal omega^T (S Sigma S^T)^-1 omega
    and tr(S A S^T), with the selection matrix S built from the rows of
    the identity at omega_j1..omega_jq's flat positions."""
    for j in range(1, arch.p + 1):
        res = wald_multi(theta, cov, j)
        s = np.eye(arch.r)[[j * arch.q + k for k in range(arch.q)]]
        omega = s @ theta.values
        want = float(omega @ np.linalg.solve(s @ cov.sigma_hat @ s.T, omega))
        assert res.statistic == pytest.approx(want, rel=1e-9)
        assert res.df == pytest.approx(np.trace(s @ cov.a_matrix @ s.T),
                                       rel=1e-12)


def test_wald_multi_matches_direct_quadratic_form():
    arch, data, result, info = _fitted_instance(lam=0.01)
    _check_against_selection_matrix(
        arch, result.theta_hat, sandwich_covariance(info, lam=0.01))
    rng = np.random.default_rng(73)
    arch = Architecture(p=3, q=3)
    m = rng.normal(size=(arch.r, arch.r))
    info = m @ m.T + arch.r * np.eye(arch.r)
    _check_against_selection_matrix(
        arch, ParamVector(arch, rng.normal(size=arch.r)),
        sandwich_covariance(info, lam=0.05))


def test_grouped_tests_at_the_positive_definite_boundary():
    """A record whose smallest eigenvalue is just above the refusal
    threshold still gives every covariate a finite grouped statistic and
    df > 0: its principal blocks are positive definite, and so is A."""
    arch = Architecture(p=3, q=3)
    rng = np.random.default_rng(75)
    vecs, _ = np.linalg.qr(rng.normal(size=(arch.r, arch.r)))
    lam = 0.01
    mu = np.geomspace(1e6, 1.0, arch.r)     # information eigenvalues
    shrink = mu / (mu + 2.0 * lam)
    sig = shrink / (mu + 2.0 * lam)
    sig = sig / sig[0] * 1.5 * _PD_RTOL       # smallest eigenvalue first
    sig[-1] = 1.0
    sigma = vecs @ np.diag(sig) @ vecs.T
    sigma = 0.5 * (sigma + sigma.T)
    eigs = np.linalg.eigvalsh(sigma)
    assert _PD_RTOL < eigs[0] < 2.0 * _PD_RTOL and eigs[-1] < 1.0 + 1e-12
    cov = CovarianceEstimate(sigma_hat=sigma,
                             a_matrix=vecs @ np.diag(shrink) @ vecs.T)
    theta = ParamVector(arch, rng.normal(size=arch.r))
    for j in range(1, arch.p + 1):
        res = wald_multi(theta, cov, j)
        assert np.isfinite(res.statistic) and res.statistic > 0.0
        assert res.df > 0.0
        assert 0.0 <= res.p_value <= 1.0
    with pytest.raises(NotPositiveDefiniteError):
        dataclasses.replace(cov, sigma_hat=sigma - 1e-10 * np.eye(arch.r))


def test_wald_multi_detects_active_covariate():
    """A strongly connected input rejects; tests stay sane on p-value range."""
    arch, data, result, info = _fitted_instance(lam=0.01)
    cov = sandwich_covariance(info, lam=0.01)
    res = wald_multi(result.theta_hat, cov, 1)
    assert res.p_value < 0.05
    assert 0.0 <= res.p_value <= 1.0


def test_wald_tests_refuse_non_positive_definite_covariance():
    """The one rule holds for single tests too: no Wald test can be given
    a non-PD estimate, even one whose every variance is positive, since
    the record refuses the matrix with the one message."""
    arch, data, result, info = _fitted_instance(lam=0.01)
    cov = sandwich_covariance(info, lam=0.01)
    # Pull the smallest eigenvalue down to -0.001, keeping every variance
    # positive.
    eigs, vecs = np.linalg.eigh(cov.sigma_hat)
    bad = cov.sigma_hat - (eigs[0] + 0.001) * np.outer(vecs[:, 0], vecs[:, 0])
    assert np.all(np.diag(bad) > 0.0)
    message = (r"^covariance estimate is not positive definite \(min "
               r"eigenvalue -0\.001\); Wald tests and confidence bands are "
               r"unavailable$")
    with pytest.raises(NotPositiveDefiniteError, match=message):
        CovarianceEstimate(sigma_hat=bad, a_matrix=cov.a_matrix)


def test_significance_stars():
    assert significance_stars(0.0005) == "***"
    assert significance_stars(0.005) == "**"
    assert significance_stars(0.03) == "*"
    assert significance_stars(0.2) == ""
    assert significance_stars(0.05) == ""  # boundary is exclusive
    assert "0.001" in SIGNIFICANCE_LEGEND and "0.05" in SIGNIFICANCE_LEGEND


def test_summarize_structure():
    arch, data, result, info = _fitted_instance(lam=0.01)
    cov = sandwich_covariance(info, lam=0.01)
    report = summarize(result, cov, arch, data)
    assert report.arch is arch
    assert len(report.covariates) == arch.p
    assert len(report.gamma_cells) == arch.q
    assert report.n_obs == data.n
    assert report.lam == 0.01
    for row in report.covariates:
        assert len(row.cells) == arch.q
        # cells follow node order k = 1..q
        for k, cell in enumerate(row.cells, start=1):
            idx = arch.omega_index(row.index, k)
            assert cell.estimate == result.theta_hat.values[idx]
            assert cell.se == pytest.approx(
                np.sqrt(cov.sigma_hat[idx, idx]), rel=1e-9)
            assert cell.stars == significance_stars(cell.p_value)
        assert 0.0 <= row.mp_p_value <= 1.0
        assert 0.0 < row.mp_df <= arch.q
    for k, cell in enumerate(report.gamma_cells, start=1):
        assert cell.estimate == result.theta_hat.values[arch.gamma_index(k)]
    assert report.gamma0_estimate == result.theta_hat.values[
        arch.gamma_index(0)]
    assert report.loglik == result.loglik
    assert report.sigma_sq_hat == result.sigma_sq_hat


@pytest.mark.parametrize("other", [{"family": "bernoulli"}, {"q": 3}],
                         ids=["family", "q"])
def test_summarize_refuses_an_architecture_unlike_its_theta(other):
    """The estimate carries its architecture; a different one is refused
    rather than used to read the weights."""
    arch, data, result, info = _fitted_instance(lam=0.01)
    cov = sandwich_covariance(info, lam=0.01)
    wrong = dataclasses.replace(arch, **other)
    with pytest.raises(ValueError, match="architecture does not match"):
        summarize(result, cov, wrong, data)


def test_summarize_refuses_data_with_another_covariate_count():
    """The data's covariates name the table's rows, so 1 or 3 columns
    for a p = 2 estimate are refused by name, not read past their end
    or silently cut short."""
    arch, data, result, info = _fitted_instance(lam=0.01)
    cov = sandwich_covariance(info, lam=0.01)
    for x in (data.x[:, :1], np.column_stack([data.x, data.x[:, 0]])):
        with pytest.raises(ShapeError, match="covariate count: expected 2"):
            summarize(result, cov, arch, Dataset(x=x, y=data.y))


def test_summarize_default_names():
    arch, data, result, info = _fitted_instance(lam=0.01)
    cov = sandwich_covariance(info, lam=0.01)
    report = summarize(result, cov, arch, data)
    assert [row.name for row in report.covariates] == ["x1", "x2"]


def test_summarize_uses_column_meta_names():
    from statnn.model import ColumnMeta

    arch, data, result, info = _fitted_instance(lam=0.01)
    named = Dataset(x=data.x, y=data.y,
                    column_meta=(ColumnMeta("age", kind="continuous",
                                            mean=40.0, sd=10.0),
                                 ColumnMeta("bmi", kind="continuous",
                                            mean=28.0, sd=5.0)))
    cov = sandwich_covariance(info, lam=0.01)
    report = summarize(result, cov, arch, named)
    assert [row.name for row in report.covariates] == ["age", "bmi"]

