"""Penalized maximum-likelihood fitting with random restarts.

The inner loop minimizes the negative penalized log-likelihood with a
quasi-Newton method, then polishes the result with damped Newton steps
using the exact analytic Hessian so stationarity holds to a tight
max-norm gradient tolerance.  For the Gaussian family the optimization
runs at sigma^2 = 1 (penalized least squares); sigma_hat^2 = RSS/n is
recovered afterwards and the reported log-likelihood is evaluated there.
The objective, its derivatives, the input checks and the profiled
variance all come from ``likelihood._Evaluator``; this module holds
only the search.

Each restart draws its starting point from a private generator seeded by
(seed, restart_index), so results are reproducible and independent of
evaluation order.  Every restart is canonicalized before ranking, and
the restart with the highest penalized log-likelihood wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .canonical import canonicalize
from .exceptions import FitError
from .likelihood import LikelihoodSpec, _Evaluator
from .model import Architecture, Dataset, ParamVector

_POLISH_MAX_STEPS = 25
_POLISH_MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings; defaults suit standardized inputs."""

    n_restarts: int = 10
    max_iters: int = 1000
    grad_tol: float = 1e-8
    init_scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_restarts < 1:
            raise ValueError(f"n_restarts must be >= 1, got {self.n_restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.grad_tol > 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.init_scale < 0.0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a penalized fit.

    ``loglik`` is the penalized log-likelihood at ``theta_hat`` (for the
    Gaussian family, at the recovered sigma_hat^2) and always equals the
    maximum of ``restart_logliks``; failed restarts appear there as
    ``-inf``.  ``loglik_trace`` holds the winning restart's accepted
    objective values on the optimizer's scale, monotone nondecreasing up
    to rounding.  For Gaussian fits that is -RSS/2 minus the penalty:
    the sigma^2 = 1 penalized log-likelihood without its -(n/2) log(2 pi)
    constant.
    """

    arch: Architecture
    theta_hat: ParamVector
    loglik: float
    sigma_sq_hat: float | None
    lam: float
    restart_logliks: tuple
    converged: bool
    iterations: int
    grad_max: float
    loglik_trace: tuple


def initialize(arch: Architecture, init_scale: float,
               rng: np.random.Generator) -> ParamVector:
    """Uniform(-init_scale, init_scale) draw for all r coordinates."""
    if init_scale < 0.0:
        raise ValueError(f"init_scale must be >= 0, got {init_scale}")
    if init_scale == 0.0:
        return ParamVector.zeros(arch)
    return ParamVector(arch, rng.uniform(-init_scale, init_scale, size=arch.r))


def _restart_rng(seed: int, restart_index: int) -> np.random.Generator:
    entropy = (seed & 0xFFFFFFFFFFFFFFFF, restart_index)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _newton_polish(obj: _Evaluator, x: np.ndarray, grad_tol: float):
    """Damped Newton refinement; returns (x, n_steps).

    Accepts a step only when the gradient max-norm strictly decreases
    and the objective does not increase beyond rounding, so the
    optimizer's descent property is preserved.
    """
    f, g = obj.value_grad(x)
    gmax = float(np.max(np.abs(g)))
    steps = 0
    while gmax > grad_tol and steps < _POLISH_MAX_STEPS:
        hess = obj.hessian(x)
        delta = _solve_damped(hess, -g)
        if delta is None:
            break
        accepted = False
        t = 1.0
        for _ in range(_POLISH_MAX_BACKTRACKS):
            x_new = x + t * delta
            f_new, g_new = obj.value_grad(x_new)
            gmax_new = float(np.max(np.abs(g_new)))
            if (np.isfinite(f_new) and gmax_new < gmax
                    and f_new <= f + 1e-12 * (1.0 + abs(f))):
                x, f, g, gmax = x_new, f_new, g_new, gmax_new
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        steps += 1
    return x, steps


def _solve_damped(hess: np.ndarray, rhs: np.ndarray):
    """Solve hess @ x = rhs, adding escalating ridge jitter if needed."""
    scale = max(1.0, float(np.trace(hess)) / hess.shape[0])
    mu = 0.0
    for _ in range(9):
        try:
            c, low = scipy.linalg.cho_factor(
                hess + mu * np.eye(hess.shape[0]) if mu else hess)
            return scipy.linalg.cho_solve((c, low), rhs)
        except scipy.linalg.LinAlgError:
            mu = 1e-10 * scale if mu == 0.0 else mu * 100.0
    return None


def fit(arch: Architecture, data: Dataset, spec: LikelihoodSpec,
        config: FitConfig = FitConfig()) -> FitResult:
    """Penalized maximum-likelihood estimate with random restarts."""
    obj = _Evaluator(arch, data, spec)
    runs = []       # (loglik, theta, sigma_sq, trace, iterations) or None
    failures = []

    for i in range(config.n_restarts):
        rng = _restart_rng(config.seed, i)
        x0 = initialize(arch, config.init_scale, rng).values
        try:
            x_hat, nit, trace = _run_restart(obj, x0, config)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            failures.append(f"restart {i}: {exc}")
            runs.append(None)
            continue
        theta_c = canonicalize(ParamVector(arch, x_hat))
        ll, sigma_sq = obj.profile(theta_c.values)
        if not np.isfinite(ll):
            failures.append(f"restart {i}: non-finite log-likelihood at optimum")
            runs.append(None)
            continue
        runs.append((ll, theta_c, sigma_sq, trace, nit))

    if all(run is None for run in runs):
        raise FitError("all restarts failed:\n" + "\n".join(failures))

    logliks = [float("-inf") if run is None else run[0] for run in runs]
    loglik, theta_hat, sigma_sq_hat, trace, iterations = runs[
        int(np.argmax(logliks))]
    _, g_final = obj.value_grad(theta_hat.values)
    grad_max = float(np.max(np.abs(g_final)))
    return FitResult(
        arch=arch,
        theta_hat=theta_hat,
        loglik=loglik,
        sigma_sq_hat=sigma_sq_hat,
        lam=spec.lam,
        restart_logliks=tuple(logliks),
        converged=bool(grad_max <= config.grad_tol),
        iterations=iterations,
        grad_max=grad_max,
        loglik_trace=trace,
    )


def evaluate_at(arch: Architecture, theta: ParamVector, data: Dataset,
                spec: LikelihoodSpec) -> FitResult:
    """Wrap fixed parameter values (e.g. a stored model) as a FitResult.

    No optimization happens: the log-likelihood, profiled variance, and
    gradient norm are computed at ``theta`` on the given data, with
    ``converged`` reporting whether ``theta`` is a stationary point
    there (it will not be if the data differ from the fitting data).
    """
    obj = _Evaluator(arch, data, spec)
    loglik, sigma_sq_hat = obj.profile(theta.values)
    # Stationarity is measured on the optimizer's scale (sigma^2 = 1 for
    # the Gaussian family), the same convention fit() reports.
    _, g = obj.value_grad(theta.values)
    grad_max = float(np.max(np.abs(g)))
    return FitResult(
        arch=arch,
        theta_hat=theta,
        loglik=loglik,
        sigma_sq_hat=sigma_sq_hat,
        lam=spec.lam,
        restart_logliks=(loglik,),
        converged=bool(grad_max <= 1e-6),
        iterations=0,
        grad_max=grad_max,
        loglik_trace=(loglik,),
    )


def _run_restart(obj: _Evaluator, x0: np.ndarray, config: FitConfig):
    """One quasi-Newton run plus Newton polish; returns (x, n_iter, trace)."""
    import scipy.optimize   # here, not at module load: serving never fits

    f0, _ = obj.value_grad(x0)
    if not np.isfinite(f0):
        raise FitError("objective not finite at the starting point")
    trace = [-f0]
    last = [None, np.inf]           # last evaluated point and its value

    def value_grad(x):
        f, g = obj.value_grad(x)
        last[:] = [x.copy(), f]
        return f, g

    def record(xk):
        if last[0] is not None and np.array_equal(xk, last[0]):
            trace.append(-last[1])
        else:
            trace.append(-value_grad(xk)[0])

    # ftol=1e-16 all but switches off the relative-decrease stop, so a
    # restart ends on the gradient tolerance or the iteration cap.
    # Changing it moves the estimates.
    res = scipy.optimize.minimize(
        value_grad, x0, jac=True, method="L-BFGS-B",
        callback=record,
        options={"maxiter": config.max_iters, "ftol": 1e-16,
                 "gtol": config.grad_tol, "maxcor": 20})
    x_hat = np.asarray(res.x, dtype=float)
    if not np.isfinite(res.fun):
        raise FitError("optimizer returned a non-finite objective")
    x_hat, polish_steps = _newton_polish(obj, x_hat, config.grad_tol)
    f_fin, _ = obj.value_grad(x_hat)
    trace.append(-f_fin)
    return x_hat, int(res.nit) + polish_steps, tuple(trace)
