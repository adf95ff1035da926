"""Model selection: linear baseline, BIC, and k-fold cross-validation.

The linear model serves two roles: a baseline whose predictive accuracy
a network must beat to justify its extra parameters, and a sanity check
for effect estimates (a network fitted to linear data should reproduce
the OLS slopes).  BIC counts every network weight, plus the residual
variance for the Gaussian family, and evaluates the unpenalized
log-likelihood at the penalized estimate.  Cross-validation
re-standardizes inside each training fold so no test-fold information
leaks into the fit, and scores RMSE on the original response scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import seeds
from .exceptions import DataError, FitError
from .fit import FitConfig, FitResult, fit
from .likelihood import (LOG_2PI, LikelihoodSpec, output_activation_for,
                         penalty)
from .model import Architecture, Dataset, design_with_intercept, forward_design


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares fit with normal-theory standard errors."""

    names: tuple                 # "intercept" followed by covariate names
    beta: np.ndarray
    se: np.ndarray
    p_values: np.ndarray
    rss: float
    sigma_sq: float              # unbiased, RSS / (n - p - 1)
    loglik: float                # Gaussian log-likelihood at the MLE variance
    n: int


def fit_linear(data: Dataset) -> LinearFit:
    """OLS with intercept; refuses rank-deficient designs by name."""
    import scipy.linalg     # here, not at module load: only an OLS fit needs it

    x1 = design_with_intercept(data.x)
    n, k = x1.shape
    if n <= k:
        raise DataError(f"need more than {k} observations for OLS, have {n}")
    q_mat, r_mat, piv = scipy.linalg.qr(x1, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_mat))
    tol = diag[0] * max(n, k) * np.finfo(float).eps
    deficient = [int(piv[i]) for i in range(k) if diag[i] <= tol]
    if deficient:
        names = ["intercept"] + [m.name for m in data.column_meta]
        bad = ", ".join(names[i] for i in deficient)
        raise DataError(f"design matrix is collinear in columns: {bad}")
    beta = np.empty(k)
    beta[piv] = scipy.linalg.solve_triangular(r_mat, q_mat.T @ data.y)
    res = data.y - x1 @ beta
    rss = float(res @ res)
    sigma_sq = rss / (n - k)
    xtx_inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(x1.T @ x1),
                                     np.eye(k))
    se = np.sqrt(sigma_sq * np.diag(xtx_inv))
    z = beta / se
    p_values = np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in z])
    sigma_sq_mle = max(rss / n, np.finfo(float).tiny)
    loglik = -0.5 * n * (LOG_2PI + math.log(sigma_sq_mle) + 1.0)
    return LinearFit(
        names=tuple(["intercept"] + [m.name for m in data.column_meta]),
        beta=beta, se=se, p_values=p_values, rss=rss, sigma_sq=sigma_sq,
        loglik=loglik, n=n)


def bic(fit_result: FitResult, arch: Architecture, n: int) -> float:
    """-2 * unpenalized log-likelihood + K log n.

    K counts all r weights, plus one for sigma^2 in the Gaussian family.
    The penalty is stripped from the reported log-likelihood before use,
    so ridge-penalized and unpenalized fits are scored on the same
    footing.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    unpen = fit_result.loglik + penalty(fit_result.theta_hat, fit_result.lam)
    k = arch.r + (1 if fit_result.sigma_sq_hat is not None else 0)
    return -2.0 * unpen + k * math.log(n)


def linear_bic(linear: LinearFit) -> float:
    """BIC of the OLS baseline, counting coefficients plus sigma^2."""
    k = len(linear.beta) + 1
    return -2.0 * linear.loglik + k * math.log(linear.n)


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CvResult:
    """Mean fold RMSE on the original response scale, with its
    standard error (fold standard deviation / sqrt(folds))."""

    rmse: float
    se: float
    fold_rmses: tuple


def _raw_columns(data: Dataset):
    """Undo the stored standardization to recover original-scale data."""
    x_raw = np.array(data.x)
    for j, meta in enumerate(data.column_meta):
        if meta.kind == "continuous":
            x_raw[:, j] = x_raw[:, j] * meta.sd + meta.mean
    y_raw = data.y * data.response_meta.sd + data.response_meta.mean
    return x_raw, y_raw


def _fold_indices(n: int, folds: int, seed: int):
    return np.array_split(seeds.rng(seed, 0x5F01).permutation(n), folds)


def _train_stats(train_col: np.ndarray):
    m = float(np.mean(train_col))
    s = float(np.std(train_col, ddof=1))
    if not s > 0.0:
        raise DataError("zero variance inside a training fold")
    return m, s


def cross_validate(arch: Architecture | None, data: Dataset,
                   spec: LikelihoodSpec, config: FitConfig = FitConfig(),
                   folds: int = 5) -> CvResult:
    """k-fold CV of a network (or, with arch None, the OLS baseline).

    Continuous covariates and a Gaussian response are re-standardized
    with training-fold statistics only; predictions are mapped back to
    the original response scale before scoring.  Fold membership depends
    only on ``config.seed``, so candidates compared under one seed see
    identical folds.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    n = data.n
    if n < folds:
        raise DataError(f"cannot make {folds} folds from {n} observations")
    x_raw, y_raw = _raw_columns(data)
    gaussian = spec.family == "gaussian"
    qcode = 0 if arch is None else arch.q
    fold_rmses = []
    for f, test_idx in enumerate(_fold_indices(n, folds, config.seed)):
        train_mask = np.ones(n, dtype=bool)
        train_mask[test_idx] = False
        try:
            pred = _fold_predict(arch, data, spec, config, x_raw, y_raw,
                                 train_mask, test_idx, gaussian, qcode, f)
        except (FitError, DataError) as exc:
            raise FitError(f"cross-validation fold {f} failed: {exc}") from exc
        err = y_raw[test_idx] - pred
        fold_rmses.append(float(np.sqrt(np.mean(err ** 2))))
    fold_rmses = tuple(fold_rmses)
    mean = float(np.mean(fold_rmses))
    se = float(np.std(fold_rmses, ddof=1) / math.sqrt(folds))
    return CvResult(rmse=mean, se=se, fold_rmses=fold_rmses)


def _fold_predict(arch, data, spec, config, x_raw, y_raw, train_mask,
                  test_idx, gaussian, qcode, f):
    """Fit on the training part and predict the held-out part (raw scale)."""
    x_train = np.array(x_raw[train_mask])
    x_test = np.array(x_raw[test_idx])
    metas = []
    for j, meta in enumerate(data.column_meta):
        if meta.kind == "continuous":
            m, s = _train_stats(x_raw[train_mask, j])
            x_train[:, j] = (x_train[:, j] - m) / s
            x_test[:, j] = (x_test[:, j] - m) / s
            metas.append(dc_replace(meta, mean=m, sd=s))
        else:
            metas.append(meta)
    if gaussian:
        my, sy = _train_stats(y_raw[train_mask])
        y_train = (y_raw[train_mask] - my) / sy
    else:
        y_train, my, sy = y_raw[train_mask], 0.0, 1.0
    train = Dataset(x_train, y_train, column_meta=tuple(metas),
                    response_meta=dc_replace(data.response_meta, mean=my,
                                             sd=sy))
    if arch is None:
        linear = fit_linear(train)
        pred_std = design_with_intercept(x_test) @ linear.beta
    else:
        seed = seeds.derive_seed(config.seed, qcode, f)
        result = fit(arch, train, spec, dc_replace(config, seed=seed))
        pred_std = forward_design(arch, result.theta_hat,
                                  design_with_intercept(x_test))
    return pred_std * sy + my


# ---------------------------------------------------------------------------
# Width sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepEntry:
    """One candidate width: q = 0 denotes the linear baseline."""

    q: int
    bic: float | None
    cv_rmse: float | None
    cv_se: float | None
    error: str | None = None


@dataclass(frozen=True)
class SelectionSweep:
    entries: tuple

    def best_bic(self) -> SweepEntry:
        ok = [e for e in self.entries if e.bic is not None]
        if not ok:
            raise FitError("no sweep candidate produced a BIC value")
        return min(ok, key=lambda e: e.bic)

    def best_cv(self) -> SweepEntry:
        ok = [e for e in self.entries if e.cv_rmse is not None]
        if not ok:
            raise FitError("no sweep candidate produced a CV score")
        return min(ok, key=lambda e: e.cv_rmse)


def sweep(data: Dataset, q_list, spec: LikelihoodSpec,
          config: FitConfig = FitConfig(), folds: int = 5,
          cv: bool = True) -> SelectionSweep:
    """Fit every candidate width and score it by BIC (and optionally CV).

    Candidate failures are recorded in their entry rather than aborting
    the sweep; at least the surviving candidates stay comparable.  For
    the bernoulli family the linear baseline gets no BIC (its entry says
    why), only its CV RMSE.
    """
    entries = []
    for q in q_list:
        if q < 0:
            raise ValueError(f"candidate width must be >= 0, got {q}")
        arch, note = None, None
        try:
            if q > 0:
                arch = Architecture(
                    p=data.p, q=q,
                    output_activation=output_activation_for(spec.family))
                bic_val = bic(fit(arch, data, spec, config), arch, data.n)
            elif spec.family == "gaussian":
                bic_val = linear_bic(fit_linear(data))
            else:
                bic_val, note = None, ("no BIC: the linear baseline's "
                                       "likelihood is Gaussian, not "
                                       "comparable with bernoulli networks")
            cv_res = (cross_validate(arch, data, spec, config, folds=folds)
                      if cv else None)
            entry = SweepEntry(q=q, bic=bic_val, error=note,
                               cv_rmse=cv_res.rmse if cv else None,
                               cv_se=cv_res.se if cv else None)
        except (FitError, DataError) as exc:
            entry = SweepEntry(q=q, bic=None, cv_rmse=None, cv_se=None,
                               error=str(exc))
        entries.append(entry)
    return SelectionSweep(entries=tuple(entries))
