"""Covariate effects for fitted networks, with delta-method uncertainty.

The effect of moving covariate j by a step d, starting from value x0, is
measured on the sample-averaged prediction

    nn_bar(x0) = (1/n) sum_i NN(x_i with column j pinned to x0)

    beta(x0, d) = nn_bar(x0 + d) - nn_bar(x0)

which for a linear model is constant in x0 and equal to d times the
slope.  Pointwise confidence bands come from the delta method: the
gradient of beta with respect to theta is averaged over the sample, and
se = sqrt(g^T Sigma g) with the sandwich covariance.

Curves are computed on the standardized scale used for fitting and can
be mapped back to original units afterwards.  A second covariate can be
pinned to a set of values to screen for interactions: if the effect of
j does not depend on the pinned value of k, the conditional curves
coincide (up to estimation noise).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DataError, NotPositiveDefiniteError
from .inference import CovarianceEstimate
from .likelihood import prediction_gradient
from .model import (Architecture, Dataset, ParamVector, design_with_intercept,
                    forward_design)
from .special import normal_quantile

#: Two-sided 95% normal critical value; equal bit for bit to the value
#: ``_curve_for`` computes at level 0.95.
Z_95 = normal_quantile(0.975)

_DEFAULT_GRID_POINTS = 101


@dataclass(frozen=True)
class PceConfig:
    """Settings for a partial-effect curve.

    ``j`` is the 1-based covariate whose effect is traced.  ``d`` is the
    step size (default: the sample standard deviation of column j).
    ``grid`` the evaluation points for x0 (default: ``effect_grid``,
    equally spaced from the column minimum to the maximum minus d).
    ``conditioning`` optionally pins a second covariate: (k, values)
    produces one curve per value.
    """

    j: int
    d: float | None = None
    grid: np.ndarray | None = None
    level: float = 0.95
    conditioning: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.d is not None and not np.isfinite(self.d):
            raise ValueError(f"step d must be finite, got {self.d}")
        if self.grid is not None:
            g = np.asarray(self.grid, dtype=float)
            if g.ndim != 1 or g.size == 0:
                raise ValueError("grid must be a nonempty 1-d array")
            if g.size > 1 and not np.all(np.diff(g) > 0.0):
                raise ValueError("grid must be strictly increasing")
        if self.conditioning is not None:
            k, values = self.conditioning
            if len(tuple(values)) == 0:
                raise ValueError("conditioning values must be nonempty")


@dataclass(frozen=True)
class PcePoint:
    """One grid point of a partial-effect curve."""

    x: float
    beta_hat: float
    se: float
    lo: float
    hi: float


@dataclass(frozen=True)
class PceCurve:
    """A partial-effect curve with pointwise confidence bands."""

    covariate: str
    j: int
    d: float
    level: float
    scale: str                      # "standardized" or "original"
    points: tuple
    condition_label: str | None = None

    def xs(self) -> np.ndarray:
        return np.array([pt.x for pt in self.points])

    def betas(self) -> np.ndarray:
        return np.array([pt.beta_hat for pt in self.points])


def _check_covariate(arch: Architecture, j: int):
    if not 1 <= j <= arch.p:
        raise IndexError(f"covariate index must be in 1..{arch.p}, got {j}")


def _curve_for(arch, theta, cov, data, j, d, grid, level, pin, label):
    """Core computation: one curve, optionally with covariate ``pin[0]``
    fixed at ``pin[1]`` in every averaged prediction."""
    x_base = np.array(data.x)
    if pin is not None:
        x_base[:, pin[0] - 1] = pin[1]
    z = normal_quantile(0.5 + level / 2.0)
    pts = []
    x_lo = x_base.copy()
    x_hi = x_base.copy()
    for x0 in grid:
        x_lo[:, j - 1] = x0
        x_hi[:, j - 1] = x0 + d
        beta = float(np.mean(_predict(arch, theta, x_hi))
                     - np.mean(_predict(arch, theta, x_lo)))
        g = (prediction_gradient(arch, theta, x_hi).mean(axis=0)
             - prediction_gradient(arch, theta, x_lo).mean(axis=0))
        var = float(g @ cov.sigma_hat @ g)
        se = float(np.sqrt(max(var, 0.0)))
        pts.append(PcePoint(x=float(x0), beta_hat=beta, se=se,
                            lo=beta - z * se, hi=beta + z * se))
    name = data.column_meta[j - 1].name
    return PceCurve(covariate=name, j=j, d=float(d), level=level,
                    scale="standardized", points=tuple(pts),
                    condition_label=label)


def _predict(arch, theta, x):
    return forward_design(arch, theta, design_with_intercept(x))


def _resolve_step(data: Dataset, j: int, d: float | None) -> float:
    """The step d, defaulting to the sample standard deviation of column j."""
    if d is not None:
        return float(d)
    d = float(np.std(data.x[:, j - 1], ddof=1))
    if not d > 0.0:
        raise DataError(f"covariate {j} has zero sample variation; "
                        "supply an explicit step d")
    return d


def effect_grid(data: Dataset, j: int, d: float | None = None,
                points: int = _DEFAULT_GRID_POINTS) -> np.ndarray:
    """Default x0 grid of a curve: ``points`` equally spaced values from
    the minimum of column j to its maximum minus the step d (default
    step as in ``PceConfig``).  When the step spans the column's range
    the grid is the single point [minimum]."""
    if points < 1:
        raise ValueError(f"grid needs at least one point, got {points}")
    col = data.x[:, j - 1]
    lo = float(np.min(col))
    hi = float(np.max(col)) - _resolve_step(data, j, d)
    if hi <= lo:
        return np.array([lo])
    return np.linspace(lo, hi, points)


def pce_curve(arch: Architecture, theta: ParamVector, cov: CovarianceEstimate,
              data: Dataset, config: PceConfig):
    """Partial-effect curve(s) for one covariate.

    Without conditioning, returns a single ``PceCurve``.  With
    ``config.conditioning = (k, values)`` returns a tuple of curves, one
    per pinned value of covariate k.  Requires a positive definite
    covariance; bands are meaningless otherwise.
    """
    _check_covariate(arch, config.j)
    if not cov.positive_definite:
        raise NotPositiveDefiniteError(
            "covariance is not positive definite; confidence bands are "
            "unavailable")
    d = _resolve_step(data, config.j, config.d)
    grid = (effect_grid(data, config.j, d) if config.grid is None
            else np.asarray(config.grid, dtype=float))
    if config.conditioning is None:
        return _curve_for(arch, theta, cov, data, config.j, d, grid,
                          config.level, None, None)
    k, values = config.conditioning
    _check_covariate(arch, k)
    if k == config.j:
        raise ValueError("conditioning covariate must differ from j")
    kname = data.column_meta[k - 1].name
    curves = []
    for v in values:
        label = f"{kname}={float(v):.6g}"
        curves.append(_curve_for(arch, theta, cov, data, config.j, d, grid,
                                 config.level, (k, float(v)), label))
    return tuple(curves)


def pce_binary(arch: Architecture, theta: ParamVector, cov: CovarianceEstimate,
               data: Dataset, j: int, level: float = 0.95) -> PcePoint:
    """Effect of switching a dummy covariate from 0 to 1.

    Identical to a curve with grid {0} and step d = 1; returned as the
    single point.
    """
    _check_covariate(arch, j)
    meta = data.column_meta[j - 1]
    if meta.kind != "dummy":
        raise DataError(
            f"covariate {meta.name!r} is {meta.kind}, not a dummy; "
            "use pce_curve instead")
    curve = pce_curve(arch, theta, cov, data,
                      PceConfig(j=j, d=1.0, grid=np.array([0.0]), level=level))
    return curve.points[0]


def interaction_screen(arch: Architecture, theta: ParamVector,
                       cov: CovarianceEstimate, data: Dataset,
                       j: int, k: int, level: float = 0.95):
    """Conditional partial-effect curves of j at two pinned values of k.

    For a continuous k the pins are mean -/+ one standard deviation of
    its sample values; for a dummy k they are 0 and 1.  Coinciding
    curves are consistent with no interaction between j and k; clearly
    separated bands flag one.
    """
    _check_covariate(arch, j)
    _check_covariate(arch, k)
    if j == k:
        raise ValueError("interaction screen needs two distinct covariates")
    return pce_curve(arch, theta, cov, data,
                     PceConfig(j=j, level=level,
                               conditioning=(k, conditioning_values(data, k))))


def conditioning_values(data: Dataset, k: int) -> tuple:
    """Values at which a conditioning covariate k is pinned: 0 and 1 for
    a dummy, its sample mean -/+ one standard deviation otherwise."""
    if data.column_meta[k - 1].kind == "dummy":
        return (0.0, 1.0)
    col = data.x[:, k - 1]
    mean = float(np.mean(col))
    sd = float(np.std(col, ddof=1))
    return (mean - sd, mean + sd)


def to_original_scale(curve: PceCurve, data: Dataset) -> PceCurve:
    """Map a standardized-scale curve back to original units.

    The grid is de-standardized with the covariate's stored mean and
    standard deviation (dummies pass through), and the effect and its
    band scale by the response standard deviation.  Requires the
    dataset's column and response metadata; a curve already on the
    original scale is refused.
    """
    if curve.scale != "standardized":
        raise DataError(f"curve is already on scale {curve.scale!r}")
    meta = data.column_meta[curve.j - 1]
    ymeta = data.response_meta
    sy = ymeta.sd
    if not (np.isfinite(sy) and sy > 0.0):
        raise DataError(f"response metadata has invalid sd {sy}")
    if meta.kind == "dummy":
        sx, mx = 1.0, 0.0
    else:
        sx, mx = meta.sd, meta.mean
        if not (np.isfinite(sx) and sx > 0.0):
            raise DataError(
                f"column metadata for {meta.name!r} has invalid sd {sx}")
    pts = tuple(PcePoint(x=pt.x * sx + mx, beta_hat=pt.beta_hat * sy,
                         se=pt.se * sy, lo=pt.lo * sy, hi=pt.hi * sy)
                for pt in curve.points)
    return replace(curve, d=curve.d * sx, scale="original", points=pts)
