"""Model selection: linear baseline, BIC, and k-fold cross-validation.

The linear model serves two roles: a baseline whose predictive accuracy
a network must beat to justify its extra parameters, and a sanity check
for effect estimates (a network fitted to linear data should reproduce
the OLS slopes).  BIC counts every network weight, plus the residual
variance for the Gaussian family, and evaluates the unpenalized
log-likelihood at the penalized estimate.  Cross-validation repeats the
fit's preprocessing in each training fold, so no test-fold information
leaks into the fit, and scores RMSE on the original response scale.
A sweep builds each candidate's ``Architecture`` from the family it is
given; the family, the ridge penalty, the widths, the response, the
fold count and each fold's preprocessing are checked before any fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import seeds
from .exceptions import DataError, FitError
from .fit import FitConfig, FitResult, fit
from .likelihood import LOG_2PI, check_lambda, penalty
from .model import (Architecture, Dataset, design_with_intercept,
                    forward_design)
from .preprocess import _standardize_stats


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


def bic(fit_result: FitResult, n: int) -> float:
    """-2 * unpenalized log-likelihood + K log n.

    K counts all r weights of ``fit_result.theta_hat.arch``, plus one
    for sigma^2 in the Gaussian family.
    The penalty is stripped from the reported log-likelihood before use,
    so ridge-penalized and unpenalized fits are scored on the same
    footing.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    unpen = fit_result.loglik + penalty(fit_result.theta_hat, fit_result.lam)
    k = fit_result.theta_hat.arch.r + int(fit_result.sigma_sq_hat is not None)
    return _bic(unpen, k, n)


def linear_bic(linear: LinearFit) -> float:
    """BIC of the OLS baseline, counting coefficients plus sigma^2."""
    return _bic(linear.loglik, len(linear.beta) + 1, linear.n)


def _bic(loglik: float, k: int, n: int) -> float:
    return -2.0 * loglik + k * math.log(n)


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


def _check_folds(folds: int, n: int):
    """Refuse a fold count outside 2..n."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise DataError(f"cannot make {folds} folds from {n} observations")


def _fold_indices(n: int, folds: int, seed: int):
    return np.array_split(seeds.rng(seed, 0x5F01).permutation(n), folds)


def cross_validate(arch: Architecture | None, data: Dataset, lam: float,
                   config: FitConfig = FitConfig(),
                   folds: int = 5) -> CvResult:
    """k-fold CV of a network (or, with arch None, the OLS baseline).

    Each fold repeats the fit's preprocessing on its training rows: a
    column whose record's map is not the identity (the response
    included) is decoded with ``to_original`` and re-standardized with
    the training rows' mean and sd; a column with the identity map (a
    dummy, a passthrough column) enters unchanged, as it did in the fit.
    Predictions are mapped back to the original response scale before
    scoring.  Fold membership depends only on ``config.seed``, so
    candidates compared under one seed see identical folds.
    """
    _check_folds(folds, data.n)
    y_raw = data.response_meta.to_original(data.y)
    fold_rmses = []
    for f, test_idx, train, x_test in _folds(data, folds, config.seed):
        try:
            pred = _fold_predict(arch, train, x_test, lam, config, f)
        except (FitError, DataError) as exc:
            raise type(exc)(f"cross-validation fold {f} failed: {exc}") from exc
        err = y_raw[test_idx] - pred
        fold_rmses.append(float(np.sqrt(np.mean(err ** 2))))
    fold_rmses = tuple(fold_rmses)
    mean = float(np.mean(fold_rmses))
    se = float(np.std(fold_rmses, ddof=1) / math.sqrt(folds))
    return CvResult(rmse=mean, se=se, fold_rmses=fold_rmses)


def _fold_column(meta, values, train_mask):
    """The fold's record of one column and the column in its units."""
    if meta.identity:
        return meta, values
    raw = meta.to_original(values)
    mean, sd = _standardize_stats(meta.name, raw[train_mask])
    fold = dc_replace(meta, mean=mean, sd=sd)
    return fold, fold.to_model(raw)


def _folds(data, folds, seed):
    """Each fold's index, held-out rows, training set and held-out
    design, the training rows preprocessed as the fit's preprocessing
    would.  A column that preprocessing refuses on a fold's training rows
    raises a ``DataError`` that names the fold."""
    for f, test_idx in enumerate(_fold_indices(data.n, folds, seed)):
        train_mask = np.ones(data.n, dtype=bool)
        train_mask[test_idx] = False
        try:
            metas, cols = zip(*(_fold_column(meta, data.x[:, j], train_mask)
                                for j, meta in enumerate(data.column_meta)))
            ymeta, y = _fold_column(data.response_meta, data.y, train_mask)
        except DataError as exc:
            raise DataError(
                f"cross-validation fold {f} failed: {exc}") from exc
        x = np.column_stack(cols)
        train = Dataset(x[train_mask], y[train_mask], column_meta=metas,
                        response_meta=ymeta)
        yield f, test_idx, train, design_with_intercept(x[test_idx])


def _fold_predict(arch, train, x_test, lam, config, f):
    """Fit on a fold's training set and predict its held-out design on
    the original response scale."""
    if arch is None:
        pred = x_test @ fit_linear(train).beta
    else:
        seed = seeds.derive_seed(config.seed, arch.q, f)
        result = fit(arch, train, lam, dc_replace(config, seed=seed))
        pred = forward_design(result.theta_hat, x_test)
    return train.response_meta.to_original(pred)


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


def sweep(data: Dataset, q_list, family: str, lam: float,
          config: FitConfig = FitConfig(), folds: int = 5,
          cv: bool = True) -> SelectionSweep:
    """Fit every candidate width and score it by BIC (and optionally CV).

    Candidate failures are recorded in their entry rather than aborting
    the sweep; at least the surviving candidates stay comparable.  A
    candidate whose cross-validation fails keeps its BIC, and its entry
    says why it has no CV score.  Each fold's preprocessing does not
    depend on the width, so it is checked once, before any fit: a column
    that cannot be standardized on a fold's training rows is the data's
    error, not a candidate's, and raises ``DataError``, as does a response
    the family refuses.  The linear baseline's likelihood is Gaussian, so
    for a family without a profiled sigma^2 it gets no BIC (its entry
    says why) and the sweep needs a width >= 1.
    """
    family_arch = Architecture(p=data.p, q=1, family=family)  # any width
    check_lambda(lam)
    for q in q_list:
        if q < 0:
            raise ValueError(f"candidate width must be >= 0, got {q}")
    family_arch.check_response(data)
    if not family_arch.sigma_profiled and max(q_list, default=0) < 1:
        raise DataError(f"a {family} sweep needs a width >= 1: the linear "
                        "baseline has no BIC comparable with a network's")
    if cv:
        _check_folds(folds, data.n)
        for _ in _folds(data, folds, config.seed):
            pass                # preprocesses each fold; raises if one fails
    entries = []
    for q in q_list:
        arch = Architecture(p=data.p, q=q, family=family) if q > 0 else None
        try:
            if arch is not None:
                bic_val, note = bic(fit(arch, data, lam, config), data.n), None
            elif family_arch.sigma_profiled:
                bic_val, note = linear_bic(fit_linear(data)), None
            else:
                bic_val, note = None, ("no BIC: the linear baseline's "
                                       "likelihood is Gaussian, not "
                                       f"comparable with {family} networks")
        except (FitError, DataError) as exc:
            entries.append(SweepEntry(q=q, bic=None, cv_rmse=None, cv_se=None,
                                      error=str(exc)))
            continue
        cv_res = None
        if cv:
            try:
                cv_res = cross_validate(arch, data, lam, config, folds=folds)
            except (FitError, DataError) as exc:
                note = f"{note}; {exc}" if note else str(exc)
        entries.append(SweepEntry(q=q, bic=bic_val, error=note,
                                  cv_rmse=cv_res.rmse if cv_res else None,
                                  cv_se=cv_res.se if cv_res else None))
    return SelectionSweep(entries=tuple(entries))
