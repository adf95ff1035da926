"""Reference computations made apart from the program under test.

Everything here is plain numpy/scipy written from the model's
definition: the forward pass, the prediction Jacobian, the
log-likelihood gradient, a central-difference Hessian of that gradient,
the ridge sandwich covariance, Wald tests, partial covariate effects
with a finite-difference delta-method band, ordinary least squares and
the asymptotic covariance at a known truth.  None of it imports
``statnn``, so agreement with the program is evidence, not tautology.

Parameter layout (the model-file contract): theta holds the input
weights omega_j = (omega_j1..omega_jq) for j = 0..p (j = 0 is the hidden
intercept) followed by gamma_0..gamma_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.stats

#: Relative step of the central-difference Hessian.  With an analytic
#: gradient the truncation error is O(h^2) (about 1e-10 relative) and
#: the rounding error about eps * |grad terms| / h (about 1e-9 relative
#: of the information's entries), so the Hessian carries roughly 1e-8
#: relative error; ``checks`` measures it by halving h.
HESSIAN_STEP = 1e-5

#: Step of the finite-difference gradient of a partial effect.  The
#: effect is an average of O(1) predictions, so rounding error is about
#: 1e-16 / 1e-6 = 1e-10 and truncation about 1e-12.
PCE_STEP = 1e-6

Z_95 = float(scipy.stats.norm.ppf(0.975))


def sigmoid(s):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(s, dtype=float)))


@dataclass(frozen=True)
class Net:
    """Shape of a single-hidden-layer network."""

    p: int
    q: int
    logistic_output: bool = False

    @property
    def r(self) -> int:
        return (self.p + 2) * self.q + 1

    def split(self, theta):
        theta = np.asarray(theta, dtype=float)
        k = (self.p + 1) * self.q
        return theta[:k].reshape(self.p + 1, self.q), theta[k:]

    def omega_index(self, j: int, k: int) -> int:
        return j * self.q + (k - 1)

    def gamma_index(self, k: int) -> int:
        return (self.p + 1) * self.q + k

    def penalized(self) -> np.ndarray:
        mask = np.ones(self.r, dtype=bool)
        mask[:self.q] = False
        mask[self.gamma_index(0)] = False
        return mask


def net_input(net: Net, theta, x):
    """Output-node net input z and hidden activations h for rows x."""
    w, g = net.split(theta)
    h = sigmoid(w[0] + x @ w[1:])
    return g[0] + h @ g[1:], h


def predict(net: Net, theta, x):
    z, _ = net_input(net, theta, x)
    return sigmoid(z) if net.logistic_output else z


def jacobian(net: Net, theta, x):
    """n x r matrix of dz/dtheta, written out entry by entry."""
    w, g = net.split(theta)
    _, h = net_input(net, theta, x)
    n = x.shape[0]
    x1 = np.column_stack([np.ones(n), x])
    jac = np.empty((n, net.r))
    slope = h * (1.0 - h) * g[1:]
    for j in range(net.p + 1):
        for k in range(1, net.q + 1):
            jac[:, net.omega_index(j, k)] = slope[:, k - 1] * x1[:, j]
    jac[:, net.gamma_index(0)] = 1.0
    for k in range(1, net.q + 1):
        jac[:, net.gamma_index(k)] = h[:, k - 1]
    return jac


def loglik_gradient(net: Net, theta, x, y, sigma_sq=None):
    """Gradient of the unpenalized log-likelihood."""
    z, _ = net_input(net, theta, x)
    jac = jacobian(net, theta, x)
    if net.logistic_output:
        return jac.T @ (y - sigmoid(z))
    return jac.T @ (y - z) / sigma_sq


def profiled_sigma_sq(net: Net, theta, x, y) -> float:
    res = y - predict(net, theta, x)
    return float(res @ res) / len(y)


def penalized_loglik(net: Net, theta, x, y, lam: float) -> float:
    theta = np.asarray(theta, dtype=float)
    pen = lam * float(np.sum(theta[net.penalized()] ** 2))
    if net.logistic_output:
        mu = np.clip(predict(net, theta, x), 1e-12, 1.0 - 1e-12)
        return float(np.sum(y * np.log(mu) + (1.0 - y) * np.log1p(-mu))) - pen
    s2 = profiled_sigma_sq(net, theta, x, y)
    n = len(y)
    return -0.5 * n * (math.log(2.0 * math.pi) + math.log(s2)) - 0.5 * n - pen


def fd_information(net: Net, theta, x, y, sigma_sq=None,
                   step: float = HESSIAN_STEP):
    """Observed information: minus the central-difference Hessian of
    the unpenalized log-likelihood, symmetrized."""
    theta = np.asarray(theta, dtype=float)
    hess = np.empty((net.r, net.r))
    for k in range(net.r):
        h = step * max(1.0, abs(theta[k]))
        up = theta.copy()
        dn = theta.copy()
        up[k] += h
        dn[k] -= h
        hess[:, k] = (loglik_gradient(net, up, x, y, sigma_sq)
                      - loglik_gradient(net, dn, x, y, sigma_sq)) / (2.0 * h)
    return -0.5 * (hess + hess.T)


@dataclass(frozen=True)
class Sandwich:
    sigma: np.ndarray        # covariance of the penalized estimator
    shrink: np.ndarray       # (I + 2 lam)^-1 I, for effective df


def sandwich(info: np.ndarray, lam: float) -> Sandwich:
    """(I + 2 lam Id)^-1 I (I + 2 lam Id)^-1, the documented formula."""
    bread_inv = np.linalg.inv(info + 2.0 * lam * np.eye(info.shape[0]))
    sigma = bread_inv @ info @ bread_inv
    return Sandwich(sigma=0.5 * (sigma + sigma.T), shrink=bread_inv @ info)


def wald_single(theta, cov: Sandwich, idx: int):
    """(chi-square(1) statistic, se) of theta[idx] = 0."""
    var = float(cov.sigma[idx, idx])
    if not var > 0.0:          # no test: the program must refuse it too
        return math.nan, math.nan
    return float(theta[idx]) ** 2 / var, math.sqrt(var)


def wald_group(net: Net, theta, cov: Sandwich, j: int):
    """(statistic, effective df) of omega_j = 0."""
    idx = [net.omega_index(j, k) for k in range(1, net.q + 1)]
    omega = np.asarray(theta, dtype=float)[idx]
    block = cov.sigma[np.ix_(idx, idx)]
    stat = float(omega @ np.linalg.solve(block, omega))
    return stat, float(np.trace(cov.shrink[np.ix_(idx, idx)]))


# ---------------------------------------------------------------------------
# Partial covariate effects
# ---------------------------------------------------------------------------

def pce(net: Net, theta, x, j: int, d: float, grid, pin=None):
    """(beta, gradient) along ``grid``.

    beta(x0) = mean NN(x_j = x0 + d) - mean NN(x_j = x0) over the rows,
    column j (1-based) pinned in every row and, with ``pin = (k, v)``,
    column k pinned at v as well.  The gradient in theta is a central
    difference per coordinate, one row per grid point.  A step in
    omega_mk moves only hidden unit k and a step in gamma only the
    output sum, so each difference recomputes just that part.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.array(x, dtype=float)
    if pin is not None:
        x[:, pin[0] - 1] = pin[1]
    grid = np.asarray(grid, dtype=float)
    w, g = net.split(theta)
    base = w[0] + np.delete(x, j - 1, axis=1) @ np.delete(w[1:], j - 1,
                                                           axis=0)
    ends = []                       # (x_j values, net inputs, hidden, z)
    for t in (grid, grid + d):
        s = base[None, :, :] + t[:, None, None] * w[j][None, None, :]
        hidden = sigmoid(s)
        ends.append((t, s, hidden, g[0] + hidden @ g[1:]))

    def effect(dz):
        """Averaged effect when z moves by dz(end) at both ends."""
        means = []
        for end in ends:
            z = end[3] + dz(end)
            means.append(np.mean(sigmoid(z) if net.logistic_output else z,
                                 axis=1))
        return means[1] - means[0]

    def omega_step(m, k, h):
        def dz(end):
            t, s, hidden, _ = end
            col = (1.0 if m == 0 else t[:, None] if m == j
                   else x[None, :, m - 1])
            return g[k] * (sigmoid(s[..., k - 1] + h * col)
                           - hidden[..., k - 1])
        return dz

    def gamma_step(k, h):
        return lambda end: h * (1.0 if k == 0 else end[2][..., k - 1])

    steps = [(net.omega_index(m, k), omega_step, (m, k))
             for m in range(net.p + 1) for k in range(1, net.q + 1)]
    steps += [(net.gamma_index(k), gamma_step, (k,))
              for k in range(net.q + 1)]
    beta = effect(lambda end: 0.0)
    grad = np.empty((len(grid), net.r))
    for idx, make, args in steps:
        h = PCE_STEP * max(1.0, abs(theta[idx]))
        grad[:, idx] = (effect(make(*args, h))
                        - effect(make(*args, -h))) / (2.0 * h)
    return beta, grad


def delta_se(grad, cov: Sandwich):
    """Delta-method standard errors sqrt(g^T Sigma g), one per row."""
    var = np.einsum("gi,ij,gj->g", grad, cov.sigma, grad)
    return np.sqrt(np.maximum(var, 0.0))


# ---------------------------------------------------------------------------
# Linear baseline and asymptotics at the truth
# ---------------------------------------------------------------------------

def ols_bic(x, y) -> float:
    """BIC of the OLS fit with intercept, counting sigma^2."""
    n = len(y)
    x1 = np.column_stack([np.ones(n), x])
    beta, *_ = np.linalg.lstsq(x1, y, rcond=None)
    res = y - x1 @ beta
    s2 = float(res @ res) / n
    loglik = -0.5 * n * (math.log(2.0 * math.pi) + math.log(s2) + 1.0)
    return -2.0 * loglik + (x1.shape[1] + 1) * math.log(n)


def asymptotic_se(net: Net, theta, n: int, lam: float, noise_sd: float,
                  rows: int = 200_000, seed: int = 20231114):
    """Sandwich standard errors at the truth for n standard-normal rows.

    The per-row Fisher information E[a a^T] / sigma^2 is averaged over
    ``rows`` fixed-seed draws (Monte Carlo error about 1/sqrt(rows)).
    """
    rng = np.random.default_rng(seed)
    info1 = np.zeros((net.r, net.r))
    chunk = 50_000
    for start in range(0, rows, chunk):
        x = rng.standard_normal((min(chunk, rows - start), net.p))
        jac = jacobian(net, theta, x)
        info1 += jac.T @ jac
    info = n * info1 / rows / noise_sd ** 2
    return np.sqrt(np.diag(sandwich(info, lam).sigma))
