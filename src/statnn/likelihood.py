"""Penalized log-likelihood, analytic gradient, and observed information.

The objective is

    l(theta) = sum_i log f(y_i | theta) - lambda * ||theta_pen||^2

where theta_pen excludes the hidden intercepts omega_0k and the output
intercept gamma_0.  The response family is the architecture's:
Gaussian (y ~ N(NN(x), sigma^2), identity output) or Bernoulli
(logistic output).  This module holds their log-likelihood formulas and
takes the mean mu and the weights V(mu) from the architecture.  The
ridge penalty lambda is a plain number, checked once by ``_Evaluator``.

All of the algebra lives in ``_Evaluator``, shared by the functions
below and the fitter in ``fit.py``.  It works on the unit scale (the
Gaussian family at sigma^2 = 1 without its normalizing constant);
public functions rescale to a given sigma^2, and ``profile`` evaluates
the Gaussian log-likelihood at sigma_hat^2 = RSS/n.

The forward pass builds one units-major (q + 1) x n activation block H
(``model._activation_block``): row 0 is ones, row k the hidden
activations h_k.  Then z = gamma @ H, and the score J^T u (J the n x r
Jacobian dz/dtheta, u the per-observation score dl/dz), which the
optimizer asks for on every step, is contracted by parameter blocks
without forming J:

    omega block   x1^T (u * gamma_k h_k (1 - h_k))   (``_omega_score``)
    gamma block   H u

The n x r Jacobian, ``_pred_jacobian(arch, x1, H, gamma)``, is formed
only for curvature (the observed information and the polishing Hessian,
with ``_curvature_correction(arch, x1, H, gamma, weights)``) and for
per-row prediction gradients.  It is filled units-major like H, as
r x rows blocks whose inner loops run over the rows, and each block is
copied into a C-contiguous n x r result: the curvature products' bits
depend on that layout (the same product on the r x n transpose is
another BLAS call).  Everything indexed like theta is read and written
through ``Architecture.split`` and ``join``.

**The profiled Gaussian objective** (``_Evaluator.profiled``).  The
Gaussian objective (1/2) ||y - H^T gamma||^2 + (1/2) theta^T D theta,
D = diag(ridge_w), is quadratic in gamma.  For fixed input weights omega
its minimizer solves the (q + 1) x (q + 1) ridge normal equations

    (H H^T + D_gamma) gamma* = H y

by Cholesky (LAPACK ``dposv``).  By the envelope theorem the gradient of
the profiled objective in omega is the omega block of the full gradient
at (omega, gamma*(omega)), since the gamma block vanishes there.  Where
the Gram matrix H H^T + D_gamma is numerically singular (two hidden
units alike, or one constant, at lambda = 0), gamma* is not determined:
when ``dposv`` fails, or a squared Cholesky pivot falls below GRAM_RTOL
times the largest diagonal entry, the profiled objective is +inf, so a
line search backs off.

The observed information is the negative Hessian of the *unpenalized*
log-likelihood, assembled from exact analytic second derivatives (not a
Gauss-Newton approximation) and symmetrized.  Derivative bookkeeping,
with z the output-node net input and s_k the hidden net inputs:

    dz/dgamma_0   = 1
    dz/dgamma_k   = h_k
    dz/domega_jk  = gamma_k h_k (1 - h_k) x_j
    d2z/dgamma_k domega_jk  = h_k (1 - h_k) x_j
    d2z/domega_jk domega_mk = gamma_k h_k (1 - h_k)(1 - 2 h_k) x_j x_m

with h_k = sigmoid(s_k); all second derivatives across distinct hidden
nodes vanish.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import DataError
from .model import (Architecture, Dataset, ParamVector, _activation_block,
                    design_with_intercept)

#: Clamp distance from {0, 1} applied to Bernoulli success probabilities
#: before taking logs; prevents -inf without materially biasing the objective.
BERNOULLI_EPS = 1e-12

LOG_2PI = float(np.log(2.0 * np.pi))

#: Smallest admissible profiled variance; guards the degenerate
#: zero-residual fit so the profile log-likelihood stays finite.
_SIGMA_SQ_FLOOR = float(np.finfo(float).tiny)

#: A profiled point's Gram matrix counts as singular when a squared
#: Cholesky pivot falls below GRAM_RTOL times its largest diagonal entry.
#: Two identical units measured at most 5.9e-17 (n = 60-1,000, 600
#: draws; ``dposv`` failed on 469).  Every evaluation of 2 select rounds
#: and 12 headline-cell replicates (lambda = 0.01) measured at least
#: 2.5e-4.  In the PD-rate check's bare cell (q = 6, lambda = 0,
#: n = 500; 6 replicates) L-BFGS-B runs ended at 2.4e-11 or above, and 3
#: of 21,736 evaluations fell below 1e-13.
GRAM_RTOL = 1e-13

#: Rows per units-major block of ``_pred_jacobian``.  At n = 10,000,
#: r = 17 (one BLAS thread) blocks of 1,024 rows took 0.41 ms, one whole
#: r x n block beside its n x r copy 1.2 ms, and the n x (p + 1) x q
#: broadcast it replaced 0.85-1.4 ms; n = 1,000 is one block (37 us,
#: against 69 us for the broadcast).
_JACOBIAN_ROWS = 1024


def check_lambda(lam: float):
    """Refuse a ridge penalty that is not finite and nonnegative."""
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"ridge penalty must be finite and nonnegative, "
                         f"got {lam}")


def penalty(theta: ParamVector, lam: float) -> float:
    """Ridge penalty lambda * ||theta_pen||^2; intercepts contribute nothing."""
    check_lambda(lam)
    return lam * float(np.sum(theta.values[theta.arch.penalized_mask()] ** 2))


# ---------------------------------------------------------------------------
# Vectorized core on plain arrays
# ---------------------------------------------------------------------------

def _pred_jacobian(arch: Architecture, x1: np.ndarray, hb: np.ndarray,
                   g: np.ndarray) -> np.ndarray:
    """n x r matrix of dz/dtheta per observation, C-contiguous.

    Each block of ``_JACOBIAN_ROWS`` rows is filled as its units-major
    r x rows transpose, like the activation block, so every inner loop
    runs over rows contiguously, then copied into the n x r result."""
    n = x1.shape[0]
    a = np.empty((n, arch.r))
    h = hb[1:]
    dz_ds = h * (1.0 - h) * g[1:, None]
    jt = np.empty((arch.r, min(n, _JACOBIAN_ROWS)))
    for start in range(0, n, _JACOBIAN_ROWS):
        rows = slice(start, start + _JACOBIAN_ROWS)
        block = jt[:, :min(_JACOBIAN_ROWS, n - start)]
        b_w, b_g = arch.split(block.T)
        np.multiply(x1[rows].T[:, None, :], dz_ds[:, rows],
                    out=np.moveaxis(b_w, 0, -1))
        b_g[...] = hb[:, rows].T
        a[rows] = block.T
    return a


def _curvature_correction(arch: Architecture, x1: np.ndarray,
                          hb: np.ndarray, g: np.ndarray,
                          weights: np.ndarray) -> np.ndarray:
    """sum_i weights_i * d2z_i/dtheta dtheta^T (r x r, symmetric).

    Unit k fills the omega_.k x omega_.k block with x1^T diag(w_k) x1,
    w_k = weights h_k (1 - h_k)(1 - 2 h_k) gamma_k, and the omega_.k x
    gamma_k strips with x1^T (weights h_k (1 - h_k)).  Each gemm's right
    operand is a C-contiguous n x (p + 1) array: the same product on a
    transposed design is another BLAS call with other bits."""
    c = np.zeros((arch.r, arch.r))
    flat = c.reshape(-1)
    h = hb[1:]
    hp = h * (1.0 - h)
    wp = weights * hp
    hp *= 1.0 - 2.0 * h                 # now w_k, one row per unit
    hp *= weights
    hp *= g[1:, None]
    scaled = np.empty(x1.shape)
    for k, (block, row, col) in enumerate(_unit_entries(arch)):
        m = x1.T @ np.multiply(hp[k][:, None], x1, out=scaled)
        flat[block] += m.reshape(-1)
        v = x1.T @ wp[k]
        flat[row] += v
        flat[col] += v
    return c


@functools.cache
def _unit_entries(arch: Architecture) -> tuple:
    """Per hidden unit k, the entries of an r x r matrix, as indices into
    its flat C-order array, that ``_curvature_correction`` writes: the
    omega_.k x omega_.k block (row-major), then row gamma_k and column
    gamma_k at omega_0k..omega_pk.  Read once per architecture from
    ``Architecture.split``."""
    w, g = arch.split(np.arange(arch.r))
    return tuple(((omega[:, None] * arch.r + omega).ravel(),
                  gamma * arch.r + omega, omega * arch.r + gamma)
                 for omega, gamma in zip(w.T.copy(), g[1:]))


@functools.cache
def _blas_lapack():
    """scipy's ``dgemm`` and ``dposv``, imported on first use, not at
    module load: serving never fits.  Cached, since an import statement
    on every evaluation cost 1.9 us."""
    from scipy.linalg.blas import dgemm
    from scipy.linalg.lapack import dposv
    return dgemm, dposv


def _clamped_bernoulli_loglik(y: np.ndarray, mu: np.ndarray) -> float:
    mu_c = np.clip(mu, BERNOULLI_EPS, 1.0 - BERNOULLI_EPS)
    return float(np.sum(y * np.log(mu_c) + (1.0 - y) * np.log(1.0 - mu_c)))


class _Evaluator:
    """The penalized log-likelihood of one architecture, dataset and
    ridge penalty.

    The constructor checks the penalty, the covariate count and the
    response once and fixes the ridge weights; the methods take a flat
    parameter array and run one forward pass each, with no further
    checks, so the optimizer can call ``value_grad``, ``profiled`` and
    ``hessian`` in its loop.  The score is contracted by blocks on the
    activation block (``_omega_score`` and H u); only ``hessian`` and
    the information build the n x r Jacobian.
    """

    def __init__(self, arch: Architecture, data: Dataset, lam: float):
        check_lambda(lam)
        arch.check_covariates(data)
        arch.check_response(data)
        self.arch, self.n = arch, data.n
        self.x1 = design_with_intercept(data.x)
        self.y = data.y
        # d(penalty)/dtheta = ridge_w * theta: 2 lambda on the penalized
        # coordinates, 0 on the intercepts.
        self.ridge_w = 2.0 * lam * arch.penalized_mask()
        self.ridge_omega, self.ridge_gamma = arch.split(self.ridge_w)

    def _terms(self, theta, kernel=False):
        """Forward pass: gamma, the activation block H, the unit-scale
        log-likelihood, the score dl/dz = y - mu per observation and, if
        ``kernel``, the weights V(mu) (None where they are all 1)."""
        w, g = self.arch.split(theta)
        hb = _activation_block(self.x1, w)
        mu = self.arch.mean(g @ hb)
        u = self.y - mu
        ll = (-0.5 * float(u @ u) if self.arch.sigma_profiled
              else _clamped_bernoulli_loglik(self.y, mu))
        return g, hb, ll, u, self.arch.variance(mu) if kernel else None

    def _omega_score(self, g, hb, u):
        """The omega block of J^T u, x1^T (u * gamma_k h_k (1 - h_k)), as
        a (p + 1) x q matrix."""
        h = hb[1:]
        # (g_k u) (h (1 - h)) bit for bit, in two temporaries, not four
        t = np.subtract(1.0, h)
        t *= h
        t *= np.multiply(g[1:, None], u)
        return self.x1.T @ t.T

    def _ridge(self, theta):
        """The penalty lambda * ||theta_pen||^2."""
        return 0.5 * float(theta @ (self.ridge_w * theta))

    def _scale(self, sigma_sq):
        """(divisor, additive constant) that take unit-scale terms to the
        Gaussian log-likelihood at ``sigma_sq``; (1, 0) for Bernoulli."""
        if not self.arch.sigma_profiled:
            return 1.0, 0.0
        if sigma_sq is None or not 0.0 < sigma_sq < np.inf:
            raise DataError("the gaussian likelihood needs a positive, "
                            f"finite sigma_sq, got {sigma_sq}")
        return sigma_sq, -0.5 * self.n * (LOG_2PI + np.log(sigma_sq))

    def _penalized(self, theta, ll, sigma_sq):
        div, const = self._scale(sigma_sq)
        return float(const + ll / div - self._ridge(theta))

    def _information(self, theta):
        """Unit-scale observed information, before symmetrization."""
        g, hb, _, u, w = self._terms(theta, kernel=True)
        a = _pred_jacobian(self.arch, self.x1, hb, g)
        return ((a.T if w is None else a.T * w) @ a
                - _curvature_correction(self.arch, self.x1, hb, g, u))

    def profile(self, theta):
        """Penalized log-likelihood and the profiled variance: for the
        Gaussian family sigma_hat^2 = RSS/n, from the same RSS the
        log-likelihood uses; None for the Bernoulli family."""
        ll = self._terms(theta)[2]
        sigma_sq = (max(-2.0 * ll / self.n, _SIGMA_SQ_FLOOR)
                    if self.arch.sigma_profiled else None)
        return self._penalized(theta, ll, sigma_sq), sigma_sq

    def value_grad(self, theta):
        """The optimizer's objective: the negative penalized unit-scale
        log-likelihood and its gradient."""
        g, hb, ll, u, _ = self._terms(theta)
        score = self.arch.join(self._omega_score(g, hb, u), hb @ u)
        return -ll + self._ridge(theta), self.ridge_w * theta - score

    def profiled(self, omega):
        """``value_grad``'s Gaussian objective with gamma profiled out.

        For the input weights ``omega`` (W of ``Architecture.split``,
        raveled), returns the objective at gamma*(omega), its gradient in
        omega and gamma*(omega); (+inf, zeros, None) where the Gram
        matrix is singular (see the module docstring).
        """
        dgemm, dposv = _blas_lapack()
        w = omega.reshape(self.ridge_omega.shape)
        hb = _activation_block(self.x1, w)
        # H H^T as a gemm on H^T: numpy sends hb @ hb.T to syrk, about
        # four times slower at q + 1 = 3, n = 1000.
        gram = dgemm(1.0, hb.T, hb.T, trans_a=1)
        gram.flat[::len(gram) + 1] += self.ridge_gamma
        top = max(gram.diagonal().tolist())
        chol, gamma, info = dposv(gram, hb @ self.y, overwrite_a=True)
        if info or min(chol.diagonal().tolist()) ** 2 < GRAM_RTOL * top:
            return np.inf, np.zeros_like(omega), None
        res = self.y - gamma @ hb
        ridge = self.ridge_omega * w
        value = 0.5 * (float(res @ res) + float(omega @ ridge.ravel())
                       + float(gamma @ (self.ridge_gamma * gamma)))
        return (value, (ridge - self._omega_score(gamma, hb, res)).ravel(),
                gamma)

    def hessian(self, theta):
        """Hessian of ``value_grad``'s objective (penalty included)."""
        hess = self._information(theta) + np.diag(self.ridge_w)
        return 0.5 * (hess + hess.T)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def log_likelihood(theta: ParamVector, data: Dataset, lam: float,
                   sigma_sq: float | None = None) -> float:
    """Penalized log-likelihood (penalty already subtracted)."""
    ev = _Evaluator(theta.arch, data, lam)
    return ev._penalized(theta.values, ev._terms(theta.values)[2], sigma_sq)


def gradient(theta: ParamVector, data: Dataset, lam: float,
             sigma_sq: float | None = None) -> np.ndarray:
    """Gradient of the penalized log-likelihood, length r.

    The ridge term contributes -2 lambda theta on the penalized
    coordinates and nothing on the intercepts.
    """
    ev = _Evaluator(theta.arch, data, lam)
    g, hb, _, u, _ = ev._terms(theta.values)
    div, _ = ev._scale(sigma_sq)
    score = ev.arch.join(ev._omega_score(g, hb, u), hb @ u)
    return score / div - ev.ridge_w * theta.values


def observed_information(theta: ParamVector, data: Dataset,
                         sigma_sq: float | None = None) -> np.ndarray:
    """Negative Hessian of the unpenalized log-likelihood at ``theta``.

    Symmetric by construction ((H + H^T)/2 after assembly).  It takes no
    ridge penalty: the information is unpenalized by definition.
    """
    ev = _Evaluator(theta.arch, data, 0.0)
    div, _ = ev._scale(sigma_sq)
    info = ev._information(theta.values) / div
    info = 0.5 * (info + info.T)
    if not np.all(np.isfinite(info)):
        bad = np.argwhere(~np.isfinite(info))[0]
        raise DataError(
            f"non-finite second derivative at coordinate pair "
            f"({int(bad[0])}, {int(bad[1])})")
    return info


def prediction_gradient(theta: ParamVector, x: np.ndarray) -> np.ndarray:
    """Per-row gradient of the network output w.r.t. theta (n x r): the
    chain rule through the output activation scales row i by dmu/dz =
    V(mu_i), 1 for the identity output."""
    arch = theta.arch
    x1 = design_with_intercept(x)
    w, g = arch.split(theta.values)
    hb = _activation_block(x1, w)
    a = _pred_jacobian(arch, x1, hb, g)
    v = arch.variance(arch.mean(g @ hb))
    return a if v is None else a * v[:, None]
