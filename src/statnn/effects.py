"""Covariate effects for fitted networks, with delta-method uncertainty.

The effect of moving covariate j by a step d, starting from value x0, is
measured on the sample-averaged prediction

    nn_bar(x0) = (1/n) sum_i NN(x_i with column j pinned to x0)

    beta(x0, d) = nn_bar(x0 + d) - nn_bar(x0)

which for a linear model is constant in x0 and equal to d times the
slope.  Pointwise confidence bands come from the delta method: the
gradient of beta with respect to theta is averaged over the sample, and
se = sqrt(g^T Sigma g) with the sandwich covariance.  A
``CovarianceEstimate`` is positive definite by construction, so every
band it yields is defined.

A curve is computed in batched passes over its grid, without the
n x r prediction Jacobian.  With x1 the design whose column j is zeroed
and W the input weights, the hidden net inputs at x0 are
s_base + x0 W_j for s_base = x1 W, an n x G x q block for G grid points,
stored n-major as n x (G q) and worked in place: the activations
overwrite the net inputs.  The averaged output's gradient is the block
contraction of the score in ``likelihood`` (``_Evaluator._omega_score``
and H u), with weights u = V(mu) / n: 1/n for the identity output (the
constant 1/n folded into gamma), mu (1 - mu) / n for the logistic one:

    omega block   x1^T (u * h (1 - h) * gamma_1..q), row j replaced by
                  x0 * sum_i (u * h (1 - h) * gamma_1..q)
    gamma_0       sum_i u_i
    gamma_1..q    h^T u

The omega block, row j included, is one gemm per pass: x1^T, made
contiguous once per curve with row j set to ones, times the n x (G q)
block.  The mean over the sample runs along a contiguous G x n array,
so numpy sums it pairwise.  The x0 and x0 + d passes stay two calls of
identical shape: fused into one block, the two halves would sit at
different positions, where BLAS and SIMD tails round differently, and a
zero step would no longer give an effect of exactly 0.  All the
standard errors come from one contraction with Sigma.  The grid is
taken in chunks so that each n x G x q block holds at most
``_CHUNK_ELEMENTS`` (2^16) values; a single point is never split.

Curves are computed on the standardized scale used for fitting and can
be mapped back to original units afterwards.  A dummy (0/1) covariate
has one effect, the 0 -> 1 switch: its step is 1 and its grid is [0].

A second covariate k can be pinned to screen for interactions, giving
one curve per pin.  The pins come from ``conditioning_values``: 0 and 1
for a dummy k, its sample mean -/+ one standard deviation otherwise.
If the effect of j does not depend on the pinned value of k, the
conditional curves coincide (up to estimation noise).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DataError
from .inference import CovarianceEstimate
# Not called here.  perfbench/spans.py looks this binding up to count
# prediction_gradient calls; it can go once spans are recorded inside
# the package (ROADMAP item 1).
from .likelihood import prediction_gradient  # noqa: F401
from .model import Dataset, ParamVector, design_with_intercept, sigmoid
from .special import normal_quantile

#: Two-sided 95% normal critical value of every confidence band.
Z_95 = normal_quantile(0.975)

_DEFAULT_GRID_POINTS = 101

#: Upper bound on the elements of each n x G x q block of a curve.
_CHUNK_ELEMENTS = 2 ** 16


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
    """A partial-effect curve with pointwise 95% confidence bands."""

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


def _averaged(arch, gam, w_j, x1t, s_base, j, xs):
    """Sample-averaged prediction (G) and its gradient w.r.t. theta
    (G x r) at each x0 in ``xs``, by the contraction in the module
    docstring, worked in place on one n x G x q block.  Row j of ``x1t``
    holds ones, so the gemm's row j is sum_i a_i, which x0 then scales."""
    (n, q), size = s_base.shape, xs.size
    h = np.tile(s_base, size)                           # n x (G q)
    h += np.multiply.outer(xs, w_j).ravel()
    sigmoid(h, out=h)
    h3 = h.reshape(n, size, q)
    z = np.matmul(h3.transpose(1, 0, 2), gam[1:])       # G x n
    z += gam[0]
    a = 1.0 - h
    a *= h
    mu = arch.mean(z, out=z)
    u = arch.variance(mu)
    if u is None:
        a *= np.tile(gam[1:] / n, size)
        g_0 = np.ones(size)
        # einsum is several times faster than h3.mean(axis=0) here
        g_h = np.einsum("n,ngk->gk", np.full(n, 1.0 / n), h3)
    else:
        u /= n
        a *= np.repeat(u.T, q, axis=1)
        a *= np.tile(gam[1:], size)
        g_0 = u.sum(axis=1)
        g_h = np.einsum("gn,ngk->gk", u, h3)
    omega = x1t @ a                                     # (p + 1) x (G q)
    omega[j] *= np.repeat(xs, q)
    omega = omega.reshape(arch.p + 1, size, q).transpose(1, 0, 2)
    return mu.mean(axis=1), arch.join(omega, np.column_stack((g_0, g_h)))


def _curve_for(theta, cov, data, j, d, grid, pin, label):
    """Core computation: one curve, optionally with covariate ``pin[0]``
    fixed at ``pin[1]`` in every averaged prediction."""
    arch = theta.arch
    x1 = design_with_intercept(data.x)
    if pin is not None:
        x1[:, pin[0]] = pin[1]
    x1[:, j] = 0.0
    w, gam = arch.split(theta.values)
    s_base = x1 @ w
    x1t = np.ascontiguousarray(x1.T)
    x1t[j] = 1.0
    step = max(1, _CHUNK_ELEMENTS // (data.n * arch.q))
    beta = np.empty(grid.size)
    grad = np.empty((grid.size, arch.r))
    for start in range(0, grid.size, step):
        xs = grid[start:start + step]
        m_lo, g_lo = _averaged(arch, gam, w[j], x1t, s_base, j, xs)
        m_hi, g_hi = _averaged(arch, gam, w[j], x1t, s_base, j, xs + d)
        beta[start:start + step] = m_hi - m_lo
        grad[start:start + step] = g_hi - g_lo
    var = np.einsum("gr,rs,gs->g", grad, cov.sigma_hat, grad)
    se = np.sqrt(np.maximum(var, 0.0))
    pts = tuple(PcePoint(x=float(x0), beta_hat=float(b), se=float(s),
                         lo=float(b - Z_95 * s), hi=float(b + Z_95 * s))
                for x0, b, s in zip(grid, beta, se))
    name = data.column_meta[j - 1].name
    return PceCurve(covariate=name, j=j, d=float(d), level=0.95,
                    scale="standardized", points=pts,
                    condition_label=label)


def _is_dummy(data: Dataset, j: int) -> bool:
    return data.column_meta[j - 1].kind == "dummy"


def _resolve_step(data: Dataset, j: int, d: float | None) -> float:
    """The step d.  A dummy's step is 1, its 0 -> 1 switch, and any other
    explicit step is refused; otherwise d defaults to the sample standard
    deviation of column j."""
    if d is not None:
        d = float(d)
        if not np.isfinite(d):
            raise ValueError(f"step d must be finite, got {d}")
        if _is_dummy(data, j) and d != 1.0:
            raise DataError(
                f"covariate {data.column_meta[j - 1].name!r} is a 0/1 "
                f"dummy, whose effect is the 0 -> 1 switch; its step must "
                f"be 1, got {d:g}")
        return d
    if _is_dummy(data, j):
        return 1.0
    d = float(np.std(data.x[:, j - 1], ddof=1))
    if not d > 0.0:
        raise DataError(f"covariate {j} has zero sample variation; "
                        "supply an explicit step d")
    return d


def effect_grid(data: Dataset, j: int, d: float | None = None,
                points: int = _DEFAULT_GRID_POINTS) -> np.ndarray:
    """Default x0 grid of a curve: ``points`` equally spaced values from
    the minimum of column j to its maximum minus the step d (default as
    in ``_resolve_step``), or to the maximum from the minimum minus a
    negative d; [minimum] ([maximum]) when d spans the range, [0] for a
    dummy."""
    if points < 1:
        raise ValueError(f"grid needs at least one point, got {points}")
    d = _resolve_step(data, j, d)
    if _is_dummy(data, j):
        return np.array([0.0])
    col = data.x[:, j - 1]
    lo, hi = float(np.min(col)), float(np.max(col))
    lo, hi = (lo - d, hi) if d < 0.0 else (lo, hi - d)
    if hi <= lo:
        return np.array([hi if d < 0.0 else lo])
    return np.linspace(lo, hi, points)


def pce_curve(theta: ParamVector, cov: CovarianceEstimate, data: Dataset,
              j: int, d: float | None = None, grid=None,
              by: int | None = None) -> tuple:
    """Partial-effect curves of the 1-based covariate j, as a tuple.

    The network's shape and output activation are ``theta.arch``'s.
    ``d`` is the step (default as in ``_resolve_step``) and ``grid`` the
    strictly increasing x0 points (default ``effect_grid``).  Without
    ``by`` the tuple holds one curve; with ``by = k`` it holds one curve
    per pin of covariate k from ``conditioning_values``.
    """
    theta.arch.check_covariates(data)
    theta.arch.covariate_block(j)     # refuses j outside 1..p
    d = _resolve_step(data, j, d)
    if grid is None:
        grid = effect_grid(data, j, d)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("grid must be strictly increasing")
    if by is None:
        return (_curve_for(theta, cov, data, j, d, grid, None, None),)
    theta.arch.covariate_block(by)
    if by == j:
        raise ValueError("conditioning covariate must differ from j")
    kname = data.column_meta[by - 1].name
    return tuple(_curve_for(theta, cov, data, j, d, grid, (by, v),
                            f"{kname}={v:.6g}")
                 for v in conditioning_values(data, by))


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

    The grid goes through the covariate record's ``to_original`` and the
    step d scales by its sd (a dummy's map is the identity, so its grid
    [0] and step 1 stay); the effect and its band scale by the response
    record's sd.  A curve already on the original scale is refused.
    """
    if curve.scale != "standardized":
        raise DataError(f"curve is already on scale {curve.scale!r}")
    meta = data.column_meta[curve.j - 1]
    sy = data.response_meta.sd
    pts = tuple(PcePoint(x=meta.to_original(pt.x), beta_hat=pt.beta_hat * sy,
                         se=pt.se * sy, lo=pt.lo * sy, hi=pt.hi * sy)
                for pt in curve.points)
    return replace(curve, d=curve.d * meta.sd, scale="original", points=pts)
