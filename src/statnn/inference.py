"""Sandwich covariance and Wald tests for penalized network fits.

With observed information I_o (negative Hessian of the unpenalized
log-likelihood) and ridge penalty lambda, the covariance of the
penalized estimator is approximated by

    Sigma = (I_o + 2 lambda I)^-1  I_o  (I_o + 2 lambda I)^-1

which collapses to I_o^-1 at lambda = 0.  Single weights are tested
with theta_j^2 / Sigma_jj against chi-square(1); a covariate's whole
incoming weight vector, the block b = ``covariate_block(j)`` of theta,
with omega_j^T Sigma[b, b]^-1 omega_j against a chi-square whose degrees
of freedom are the effective count tr(A[b, b]),
A = (I_o + 2 lambda I)^-1 I_o, which is below q under penalization.

Every Wald test, summary table and confidence band needs a positive
definite covariance, so a ``CovarianceEstimate`` is symmetric positive
definite by construction: building one from any other matrix raises
``NotPositiveDefiniteError``, whose remedy is a larger ridge penalty.
``sandwich_covariance`` raises the same error where the information
cannot be inverted at all.  Whatever holds a record can test with it:
each block Sigma[b, b] has a Cholesky factor, and tr(A[b, b]) > 0.

The linear algebra is numpy's: ``np.linalg.solve`` for the sandwich and
``np.linalg.cholesky`` for the grouped tests, so a query that only reads
a stored model never imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotPositiveDefiniteError
from .likelihood import check_lambda
from .model import Architecture, Dataset, ParamVector
from .special import chi_square_survival, normal_quantile

#: Relative eigenvalue threshold below which a covariance is refused as
#: not positive definite.
_PD_RTOL = 1e-10

#: Level of every test: a summary's "*", a diagram's black, a Monte Carlo
#: rejection.
ALPHA = 0.05

#: Two-sided normal critical value of every 1 - ALPHA band and interval.
Z_95 = normal_quantile(1.0 - ALPHA / 2)

SIGNIFICANCE_LEGEND = "Significance codes: 0 *** 0.001 ** 0.01 * 0.05"


def significance_stars(p_value: float) -> str:
    if p_value < 0.001:
        return "***"
    if p_value < 0.01:
        return "**"
    if p_value < ALPHA:
        return "*"
    return ""


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sandwich covariance plus the pieces Wald tests need.

    ``a_matrix`` is (I_o + 2 lambda I)^-1 I_o, whose diagonal blocks'
    traces give effective degrees of freedom.  ``sigma_hat`` must be
    finite, equal to its transpose (eigvalsh reads one triangle) and
    positive definite: its smallest eigenvalue above ``_PD_RTOL`` times
    max(1, largest).  Otherwise construction, ``dataclasses.replace``
    included, raises ``NotPositiveDefiniteError``.
    """

    sigma_hat: np.ndarray
    a_matrix: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma_hat, dtype=float)
        object.__setattr__(self, "sigma_hat", s)
        object.__setattr__(self, "a_matrix",
                           np.asarray(self.a_matrix, dtype=float))
        if not np.array_equal(s, s.T, equal_nan=True):
            raise NotPositiveDefiniteError(
                "covariance estimate is not symmetric; Wald tests and "
                "confidence bands are unavailable")
        eigs = np.linalg.eigvalsh(s) if np.all(np.isfinite(s)) else [np.nan]
        if not eigs[0] > _PD_RTOL * max(1.0, float(eigs[-1])):
            raise NotPositiveDefiniteError(
                "covariance estimate is not positive definite (min "
                f"eigenvalue {eigs[0]:.3g}); Wald tests and confidence "
                "bands are unavailable")


@dataclass(frozen=True)
class WaldResult:
    """A grouped Wald test: statistic, reference df, p-value."""

    statistic: float
    df: float
    p_value: float


def sandwich_covariance(info: np.ndarray, lam: float) -> CovarianceEstimate:
    """Model-based sandwich covariance of the penalized estimator.

    An information matrix the solve cannot invert has no covariance
    estimate at all: ``NotPositiveDefiniteError``, as for a result that
    is not positive definite.
    """
    info = np.asarray(info, dtype=float)
    if info.ndim != 2 or info.shape[0] != info.shape[1]:
        raise ValueError(f"information matrix must be square, got {info.shape}")
    if not np.all(np.isfinite(info)):
        raise ValueError("information matrix has non-finite entries")
    check_lambda(lam)
    r = info.shape[0]
    bread = info + 2.0 * lam * np.eye(r)
    # The record refuses an ill-conditioned result; only an exactly
    # singular matrix fails the solve.
    try:
        if lam == 0.0:
            # Unpenalized case in closed form: the bread equals the
            # information itself, so the shrinkage factor is the identity
            # and the covariance is the plain inverse.
            a_matrix = np.eye(r)
            sigma = np.linalg.solve(info, np.eye(r))
        else:
            a_matrix = np.linalg.solve(bread, info)
            sigma = np.linalg.solve(bread, a_matrix.T).T
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"penalized information matrix is numerically singular: {exc}"
        ) from exc
    return CovarianceEstimate(sigma_hat=0.5 * (sigma + sigma.T),
                              a_matrix=a_matrix)


def effective_df(cov: CovarianceEstimate, block: slice) -> float:
    """tr(A[block, block]): effective parameter count of a block of theta."""
    return float(np.trace(cov.a_matrix[block, block]))


def wald_single(estimates, variances) -> tuple:
    """Wald tests of single weights against zero, elementwise.

    For estimates theta_i with variances Sigma_ii, returns the arrays
    ``(se, statistic, p_value)``: sqrt(Sigma_ii), theta_i^2 / Sigma_ii
    and its chi-square(1) upper tail.  The one single-weight rule of the
    summary table and of the Monte Carlo study.
    """
    statistic = np.square(estimates) / variances
    p_value = np.array([chi_square_survival(s, 1.0) for s in statistic])
    return np.sqrt(variances), statistic, p_value


def wald_multi(theta_hat: ParamVector, cov: CovarianceEstimate,
               j: int) -> WaldResult:
    """Joint Wald test that covariate j's incoming weights are all zero.

    Its reference chi-square has the effective df tr(A[b, b]) of block
    b = ``theta_hat.arch.covariate_block(j)``, fewer than q under
    penalization.
    """
    block = theta_hat.arch.covariate_block(j)
    # omega^T Sigma_bb^-1 omega = |L^-1 omega|^2 with Sigma_bb = L L^T.
    z = np.linalg.solve(np.linalg.cholesky(cov.sigma_hat[block, block]),
                        theta_hat.values[block])
    stat = float(z @ z)
    df = effective_df(cov, block)
    return WaldResult(statistic=stat, df=df,
                      p_value=chi_square_survival(stat, df))


# ---------------------------------------------------------------------------
# Full-model summary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightCell:
    """One weight's estimate with its single-parameter test."""

    estimate: float
    se: float
    statistic: float
    p_value: float
    stars: str


@dataclass(frozen=True)
class CovariateRow:
    """Per-covariate test results: one cell per hidden node plus the
    grouped test across all of them."""

    name: str
    index: int
    cells: tuple
    mp_statistic: float
    mp_df: float
    mp_p_value: float
    mp_stars: str


@dataclass(frozen=True)
class InferenceReport:
    """Everything the text/JSON summaries and the diagram renderer need."""

    arch: Architecture
    covariates: tuple
    gamma_cells: tuple        # gamma_1..gamma_q single-weight tests
    gamma0_estimate: float
    loglik: float
    sigma_sq_hat: float | None
    lam: float
    converged: bool
    n_obs: int


def summarize(fit_result, cov: CovarianceEstimate, arch: Architecture,
              data: Dataset) -> InferenceReport:
    """Per-weight and per-covariate Wald tests for a fitted network.

    ``arch`` must be ``fit_result.theta_hat.arch`` (``ValueError``
    otherwise); the estimate already carries it.  Of ``data`` only p, n
    and the column records are read, so a stored model's
    ``ModelDocument`` stands in for its training data.
    """
    theta_hat = fit_result.theta_hat
    if arch != theta_hat.arch:
        raise ValueError("architecture does not match the fitted theta")
    arch.check_covariates(data)
    se, stat, p_value = wald_single(theta_hat.values, np.diag(cov.sigma_hat))
    cells = tuple(WeightCell(float(b), float(s), float(z), float(pv),
                             significance_stars(pv))
                  for b, s, z, pv in zip(theta_hat.values, se, stat, p_value))
    names = [m.name for m in data.column_meta]
    rows = []
    for j in range(1, arch.p + 1):
        mp = wald_multi(theta_hat, cov, j)
        rows.append(CovariateRow(
            name=names[j - 1], index=j,
            cells=cells[arch.covariate_block(j)],
            mp_statistic=mp.statistic, mp_df=mp.df, mp_p_value=mp.p_value,
            mp_stars=significance_stars(mp.p_value)))
    return InferenceReport(
        arch=arch,
        covariates=tuple(rows),
        gamma_cells=cells[arch.gamma_index(1):],
        gamma0_estimate=float(theta_hat.values[arch.gamma_index(0)]),
        loglik=fit_result.loglik,
        sigma_sq_hat=fit_result.sigma_sq_hat,
        lam=fit_result.lam,
        converged=fit_result.converged,
        n_obs=data.n,
    )
