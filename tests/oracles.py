"""Numerical oracles shared by the test modules.

Each is written independently of the package code it checks: central
finite differences for derivatives, and quadrature for the chi-square
tail.
"""

import math

import numpy as np


def fd_gradient(fun, theta0, h=1e-6):
    """Central-difference gradient of scalar ``fun`` at ``theta0``."""
    r = theta0.size
    g = np.empty(r)
    for i in range(r):
        up = theta0.copy()
        dn = theta0.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fun(up) - fun(dn)) / (2.0 * h)
    return g


def fd_hessian(fun_grad, theta0, h=1e-5):
    """Central differences of the gradient ``fun_grad``, symmetrized."""
    r = theta0.size
    hess = np.empty((r, r))
    for i in range(r):
        up = theta0.copy()
        dn = theta0.copy()
        up[i] += h
        dn[i] -= h
        hess[:, i] = (fun_grad(up) - fun_grad(dn)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def survival_by_quadrature(x, df, n=200_000):
    """Numerically integrate the chi-square density on [0, x].

    Simpson's rule after the substitution x = t^2, which removes the
    integrable singularity at zero for df < 2 and makes the integrand
    smooth for every df >= 1.  An oracle fully independent of the
    series / continued-fraction evaluation under test.
    """
    upper = math.sqrt(x)
    t = np.linspace(0.0, upper, n + 1)
    log_norm = -(df / 2.0) * math.log(2.0) - math.lgamma(df / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # t = 0 gives log 0; the limit is patched below.
        log_g = log_norm + (df - 1.0) * np.log(t) - t * t / 2.0
        g = 2.0 * np.exp(log_g)
    g[0] = 0.0
    if df == 1.0:
        g[0] = 2.0 * math.exp(log_norm)
    elif df < 1.0:
        raise ValueError("oracle requires df >= 1")
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    cdf = float(np.sum(weights * g) * (upper / n) / 3.0)
    return 1.0 - cdf
