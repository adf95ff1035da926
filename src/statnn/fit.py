"""Penalized maximum-likelihood fitting with random restarts.

The inner loop minimizes the negative penalized log-likelihood with a
quasi-Newton method, then polishes the result with damped Newton steps
using the exact analytic Hessian.  For the Gaussian family the
optimization runs at sigma^2 = 1 (penalized least squares); sigma_hat^2
= RSS/n is recovered afterwards and the reported log-likelihood is
evaluated there.  The response family is the architecture's and the
ridge penalty a plain ``lam``.  The objective, its derivatives, the
input checks and the profiled variance all come from
``likelihood._Evaluator``; this module holds only the search.

**Gaussian fits by variable projection.**  The output weights gamma
enter the Gaussian objective linearly, so L-BFGS-B searches only the
input weights omega, on the objective with gamma profiled out
(``_Evaluator.profiled``: a (q + 1) x (q + 1) ridge solve per
evaluation).  theta = (omega-hat, gamma*(omega-hat)) is then polished on
all of theta like any other fit.  On 10 rounds of the select workload
this halved the iterations (106,154 to 55,496) and kept every q <= 2
optimum (theta-hat within 3.4e-13 relative).  A Bernoulli fit searches
all of theta.

**Starts in the data's units.**  Each restart draws its start from a
private generator seeded by (seed, restart_index), so results are
reproducible and independent of evaluation order.  The draw is read in
standardized units of the fit's own x (``initialize``), so a column
passed through in large units does not saturate the hidden units from
the first step.

The estimate is set by the optimum, not by how the search got there:

* **Stopping rule.**  L-BFGS-B stops when the objective's relative
  decrease per iteration falls to FTOL, when the gradient max-norm falls
  to GRAD_TOL, or after MAX_ITERS iterations.  It only has to bring the
  restart into the optimum's basin.  The routine is scipy's, called
  directly (``_quasi_newton``) with the stops and settings that
  ``scipy.optimize.minimize(method="L-BFGS-B")`` would pass it, so every
  iterate is bitwise ``minimize``'s; only ``minimize``'s wrappers around
  each evaluation are gone.  Restarts run in index order.  A fit whose
  config sets ``confirmations`` stops as soon as that many of the
  restarts run so far are tied with the best of them (see the
  tie-break), so ``n_restarts`` is a cap; one with at most that many
  restarts runs them all.  Stopping once the best point has been
  confirmed is the classical rule for multistart searches (Boender &
  Rinnooy Kan 1987, Math. Programming 37, 59-80).  It is sound where
  the fitted width is the generating one, as in a simulation study
  (``simgen`` sets RESTART_CONFIRMATIONS).  A wider network has many
  lower optima that several restarts can agree on, so other fits run
  every restart (the replay beside the constant).
* **Polish.**  Damped Newton steps then continue until the gradient
  max-norm is at most POLISH_TOL, near the rounding level of the
  gradient, or until no step can lower it further.  Restarts that reach
  the same optimum then agree to rounding.
* **Tie-break.**  Every restart is canonicalized.  A restart is tied
  with the best when its penalized log-likelihood is within TIE_RTOL
  (relative) of the best and its canonical theta within THETA_TOL
  (relative max-norm) of the best restart's (``_tied_with_best``).  The
  winner is the lowest-indexed tied restart, and the same list decides
  when to stop, so a stopped fit returns the restart a full run would
  have returned whenever the best optimum is the same.  A restart at a
  different theta never displaces the best log-likelihood, however close
  its value.  A restart whose estimate's squared norm overflows has run
  towards a limit at infinity and fails.

Only the restart count and the seed are settings.  The rest are
constants, each below with the measurement behind it; a change to the
search should be argued from measurements of the whole fit, not offered
as a flag.  ``converged`` reports ``grad_max <= GRAD_TOL``.  Iterations
count L-BFGS-B iterations (over omega for a Gaussian fit) plus Newton
polish steps.

The measurements below were made on the profiled search: the fits of 10
rounds of the select workload (seed 1; q = 1-3, n = 800-1,000), 4 rounds
of 12 headline-cell replicates, and, for FTOL and the tie rules, q = 1-3
fits of 3 select tables and 6 headline replicates with 10 restarts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .canonical import canonicalize
from .exceptions import FitError
from .likelihood import _Evaluator, _blas_lapack
from .model import Architecture, Dataset, ParamVector

#: Starting points are Uniform(-INIT_SCALE, INIT_SCALE) in every
#: coordinate, the input weights in standardized units (``initialize``).
INIT_SCALE = 0.5
#: Iteration cap of one L-BFGS-B run.
MAX_ITERS = 1000
#: Gradient max-norm that ``converged`` reports against.
GRAD_TOL = 1e-8
#: L-BFGS-B's relative-decrease stop: at 1e-9 the polish still reaches
#: the same optimum (theta-hat within 2.5e-13 relative of running to
#: GRAD_TOL) in 9-32% fewer iterations.
FTOL = 1e-9
#: Polish target: winners' gradient max-norms measure 5.8e-15 to 8.0e-12
#: on select fits and 3.7e-14 to 9.9e-13 on headline-cell fits.
#: Polishing only to GRAD_TOL left some at 4e-9 (measured before the
#: profiled search), too loose for tied restarts to agree in theta.
POLISH_TOL = 1e-11
#: Tied restarts measured at most 2.7e-13 apart in relative penalized
#: log-likelihood, distinct optima at least 3.4e-3 apart.
TIE_RTOL = 1e-10
#: Tied restarts measured at most 2.1e-12 apart in canonical theta
#: (relative max-norm), distinct optima at least 0.54 apart.
THETA_TOL = 1e-8
#: Restarts tied with the best so far that stop a simulation study's fit
#: (``FitConfig.confirmations``).  A replay ran all 10 restarts of each
#: fit, then applied "stop at k ties, winner the first tied restart" to
#: the prefixes; a miss is a winner other than the full run's, and the
#: share is of the full run's iterations:
#:
#:     k   headline cell,   select tables, fitted width minus generating:
#:         1,440 fits       <= 0: 864 fits   +1: 576 fits   +2: 576 fits
#:     2   4 misses, 21.0%  0, 20.3%         172, 45.7%     118, 72.3%
#:     3   1,        31.4%  0, 30.5%          92, 69.9%      34, 91.2%
#:     4   0,        42.2%  0, 40.6%          39, 84.2%       9, 97.4%
#:     7                    0, 71.1%           1, 98.5%       0, 99.9%
#:
#: A fit wider than the generating network has many lower optima that
#: several restarts reach, and its best optimum was reached by a single
#: restart in 167 of the 576 fits one unit too wide.  Its misses at k = 4
#: were 0.04-10.2 below the best in penalized log-likelihood, and the
#: rule saved little there.  So only a study's fits, at the generating
#: width by construction, stop early; ``fit`` and ``select`` cannot know
#: that width and run every restart.
#:
#: The headline fits are replicate i < 12 of round r < 120's scenario
#: (q = 2, "5-1", n = 1,000, lam = 0.01), seed derive_seed(1, 1, r)
#: (perfbench's), fitted with seed ``seeds.derive_seed(scenario seed, i,
#: 1)``.  Table t < 48 of width w = 1, 2 is perfbench's
#: ``write_table(path, 1000, derive_seed(1, 2, t), width=w)``; its fits
#: are those of ``selection.sweep`` over q = 1..8 (q = 1..3 at w = 1) at
#: lam = 0.01, seed t, 5 folds: the full-data fit and each fold's.
RESTART_CONFIRMATIONS = 4
_POLISH_MAX_STEPS = 25
_POLISH_MAX_BACKTRACKS = 30
#: Evaluation cap of one L-BFGS-B run, ``minimize``'s default ``maxfun``,
#: checked as ``minimize`` checks it: at each new iterate, after the
#: iteration cap.
MAX_EVALS = 15000
#: L-BFGS-B's stored correction pairs (``maxcor``) and line-search steps
#: per iteration (``maxls``, ``minimize``'s default).
_LBFGS_MEMORY = 20
_MAX_LINE_SEARCH = 20
# setulb's task codes (task[0]) and the stop reasons (task[1]) that
# ``minimize`` writes for its iteration and evaluation caps.
_TASK_NEW_X, _TASK_FG, _TASK_STOP = 1, 3, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504


@dataclass(frozen=True)
class FitConfig:
    """Number of random restarts and the seed they are drawn from.  With
    ``confirmations`` set, ``n_restarts`` is a cap: the fit stops once
    that many restarts are tied with the best so far."""

    n_restarts: int = 10
    seed: int = 0
    confirmations: int | None = None

    def __post_init__(self):
        if self.n_restarts < 1:
            raise ValueError(f"n_restarts must be >= 1, got {self.n_restarts}")
        if self.confirmations is not None and self.confirmations < 1:
            raise ValueError(f"confirmations must be >= 1, got "
                             f"{self.confirmations}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a penalized fit.

    The architecture is ``theta_hat.arch``; the record keeps no other.
    ``loglik`` is the penalized log-likelihood at ``theta_hat`` (for the
    Gaussian family, at the recovered sigma_hat^2).  ``restart_logliks``
    and ``restart_iterations`` hold the value and work (L-BFGS-B
    iterations plus Newton polish steps) of every restart that ran, in
    index order; a failed restart appears as ``-inf`` and 0.  Restarts
    past the one that made ``config.confirmations`` ties did not run.
    ``chosen_restart`` is the index of the winner: the lowest-indexed
    restart tied with the best, that is, within TIE_RTOL of the best
    log-likelihood and within THETA_TOL of its canonical theta.
    ``loglik`` is therefore ``restart_logliks[chosen_restart]``, which
    can sit below the maximum by at most TIE_RTOL (relative).
    ``iterations`` is the winner's work.
    """

    theta_hat: ParamVector
    loglik: float
    sigma_sq_hat: float | None
    lam: float
    restart_logliks: tuple
    restart_iterations: tuple
    chosen_restart: int
    converged: bool
    iterations: int
    grad_max: float


def initialize(arch: Architecture, rng: np.random.Generator,
               x: np.ndarray) -> ParamVector:
    """A restart's start: a Uniform(-INIT_SCALE, INIT_SCALE) draw w for
    all r coordinates, with the input weights read in standardized units
    of the design x.  With column means m_j and sds s_j (1 for a
    constant column), omega_jk = w_jk / s_j and omega_0k = w_0k -
    sum_j omega_jk m_j, so every hidden net input starts as w's on the
    standardized columns."""
    return ParamVector(arch, _start(arch, rng, _start_scaling(x)))


def _start_scaling(x: np.ndarray):
    """``initialize``'s column sds (1 for a constant column) and means of
    x; ``fit`` computes them once for all its restarts."""
    sd = np.where(np.ptp(x, axis=0) > 0.0, np.std(x, axis=0), 1.0)
    return sd, np.mean(x, axis=0)


def _start(arch: Architecture, rng: np.random.Generator, scaling):
    """``initialize``'s flat start from the sds and means ``scaling``."""
    sd, mean = scaling
    values = rng.uniform(-INIT_SCALE, INIT_SCALE, size=arch.r)
    w, _ = arch.split(values)
    w[1:] /= sd[:, None]
    w[0] -= mean @ w[1:]
    return values


def _newton_polish(obj: _Evaluator, x: np.ndarray, f: float, g: np.ndarray):
    """Damped Newton refinement from x, where the objective is f with
    gradient g; returns (x, n_steps).

    Steps continue while the gradient max-norm exceeds POLISH_TOL.  A
    step is accepted only when the gradient max-norm strictly decreases
    and the objective does not increase beyond rounding, so the
    optimizer's descent property is preserved; the first step that
    cannot make progress ends the polish.
    """
    gmax = float(np.max(np.abs(g)))
    steps = 0
    while gmax > POLISH_TOL and steps < _POLISH_MAX_STEPS:
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
    """Solve hess @ x = rhs, adding escalating ridge jitter if needed.

    Each try is one LAPACK ``dposv`` call: the upper Cholesky factor and
    its two triangular solves, the steps of ``scipy.linalg.cho_factor``
    and ``cho_solve`` bit for bit.  At r = 17 a solve takes 5.5 us, 2.1
    of them in ``dposv``, against 23 us through those wrappers.  Like
    them, it refuses a non-finite hess before the first try and a
    non-finite rhs once a try succeeds, with ValueError, which fails the
    restart; ``dposv`` alone would return NaNs."""
    not_finite = "array must not contain infs or NaNs"
    if not np.isfinite(hess).all():
        raise ValueError(not_finite)
    dposv = _blas_lapack()[1]
    r = hess.shape[0]
    mu = 0.0
    for _ in range(9):
        _, x, info = dposv(hess + mu * np.eye(r) if mu else hess, rhs)
        if not info:
            if not np.isfinite(rhs).all():
                raise ValueError(not_finite)
            return x
        mu = (1e-10 * max(1.0, float(np.trace(hess)) / r) if mu == 0.0
              else mu * 100.0)
    return None


def fit(arch: Architecture, data: Dataset, lam: float,
        config: FitConfig = FitConfig()) -> FitResult:
    """Penalized maximum-likelihood estimate with random restarts."""
    obj = _Evaluator(arch, data, lam)
    scaling = _start_scaling(data.x)
    runs = []                   # (loglik, theta, sigma_sq), None if failed
    restart_iterations = []
    failures = []

    for i in range(config.n_restarts):
        runs.append(None)
        restart_iterations.append(0)
        x0 = _start(arch, seeds.rng(config.seed, i), scaling)
        try:
            x_hat, nit = _run_restart(obj, x0)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            failures.append(f"restart {i}: {exc}")
            continue
        theta_c = canonicalize(ParamVector(arch, x_hat))
        ll, sigma_sq = obj.profile(theta_c.values)
        if not np.isfinite(ll):
            failures.append(f"restart {i}: non-finite log-likelihood at optimum")
            continue
        with np.errstate(over="ignore"):
            norm_sq = theta_c.values @ theta_c.values
        if not np.isfinite(norm_sq):
            failures.append(f"restart {i}: estimate diverged (its squared "
                            f"norm overflows)")
            continue
        runs[i] = (ll, theta_c, sigma_sq)
        restart_iterations[i] = nit
        if (config.confirmations is not None
                and len(_tied_with_best(runs)) >= config.confirmations):
            break

    tied = _tied_with_best(runs)
    if not tied:
        raise FitError("all restarts failed:\n" + "\n".join(failures))

    chosen = tied[0]
    loglik, theta_hat, sigma_sq_hat = runs[chosen]
    _, g_final = obj.value_grad(theta_hat.values)
    grad_max = float(np.max(np.abs(g_final)))
    return FitResult(
        theta_hat=theta_hat,
        loglik=loglik,
        sigma_sq_hat=sigma_sq_hat,
        lam=lam,
        restart_logliks=tuple(float("-inf") if run is None else run[0]
                              for run in runs),
        restart_iterations=tuple(restart_iterations),
        chosen_restart=chosen,
        converged=bool(grad_max <= GRAD_TOL),
        iterations=restart_iterations[chosen],
        grad_max=grad_max,
    )


def _tied_with_best(runs) -> list:
    """Indices, in order, of the restarts tied with the best: those whose
    penalized log-likelihood is within TIE_RTOL of the best and whose
    canonical theta is within THETA_TOL of the best's, the best (the
    lowest-indexed maximum) included.  Empty when every restart failed."""
    logliks = [float("-inf") if run is None else run[0] for run in runs]
    best = int(np.argmax(logliks))
    if runs[best] is None:
        return []
    ll_best, theta_best = runs[best][0], runs[best][1].values
    ll_tol = TIE_RTOL * max(1.0, abs(ll_best))
    theta_tol = THETA_TOL * max(1.0, float(np.max(np.abs(theta_best))))
    return [i for i, run in enumerate(runs)
            if run is not None and ll_best - run[0] <= ll_tol
            and float(np.max(np.abs(run[1].values - theta_best))) <= theta_tol]


def evaluate_at(theta: ParamVector, data: Dataset, lam: float) -> FitResult:
    """Wrap fixed parameter values (e.g. a stored model) as a FitResult.

    No optimization happens: the log-likelihood, profiled variance, and
    gradient norm are computed at ``theta``, under its architecture, on
    the given data, with ``converged`` reporting whether ``theta`` is a
    stationary point there (it will not be if the data differ from the
    fitting data).
    """
    obj = _Evaluator(theta.arch, data, lam)
    loglik, sigma_sq_hat = obj.profile(theta.values)
    # Stationarity is measured on the optimizer's scale (sigma^2 = 1 for
    # the Gaussian family), the same convention fit() reports.
    _, g = obj.value_grad(theta.values)
    grad_max = float(np.max(np.abs(g)))
    return FitResult(
        theta_hat=theta,
        loglik=loglik,
        sigma_sq_hat=sigma_sq_hat,
        lam=lam,
        restart_logliks=(loglik,),
        restart_iterations=(0,),
        chosen_restart=0,
        converged=bool(grad_max <= 1e-6),
        iterations=0,
        grad_max=grad_max,
    )


def _run_restart(obj: _Evaluator, x0: np.ndarray):
    """One quasi-Newton run plus Newton polish; returns (x, n_iter).

    A Gaussian run (``sigma_profiled``) searches the input weights on the
    profiled objective and rebuilds theta with gamma*(omega-hat); any
    other searches all of theta.  The polish works on full theta."""
    if obj.arch.sigma_profiled:
        w0, _ = obj.arch.split(x0)
        omega, _, _, nit = _quasi_newton(
            lambda omega: obj.profiled(omega)[:2], w0.ravel())
        x = obj.arch.join(omega.reshape(w0.shape), obj.profiled(omega)[2])
        f, g = obj.value_grad(x)
    else:
        x, f, g, nit = _quasi_newton(obj.value_grad, x0)
    x_hat, polish_steps = _newton_polish(obj, x, f, g)
    return x_hat, nit + polish_steps


def _quasi_newton(objective, start: np.ndarray):
    """L-BFGS-B on ``objective`` (value and gradient) from ``start``;
    returns (x, f, g, n_iterations) at the last iterate.

    The routine is scipy's (Byrd, Lu, Nocedal & Zhu 1995), driven here
    by its reverse-communication interface as ``scipy.optimize.minimize``
    drives it, with no bounds: the routine asks for f and g at x (task
    FG) or reports a new iterate (task NEW_X) until it stops.  Calling it
    directly skips the wrappers ``minimize`` puts around each evaluation
    (``ScalarFunction`` and ``MemoizeJac``, which copy and compare x
    every time).  On the headline cell's profiled search (q = 2,
    n = 1,000, one BLAS thread, 2,619 evaluations) an evaluation costs
    about 50 us in all, 38 us of it in the objective, and the part
    outside the objective, the routine and this loop, 12 us (32-55 us
    under ``minimize``'s wrappers).  The objective receives the routine's
    own x buffer, so it must neither write to it nor keep it.
    """
    # here, not at module load: serving never fits
    from scipy.optimize._lbfgsb import setulb

    n, m = start.size, _LBFGS_MEMORY
    x = np.array(start, dtype=float)
    f, g = 0.0, np.zeros(n)
    no_bound = np.zeros(n)
    nbd = np.zeros(n, np.int32)     # 0: variable unbounded
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave = np.zeros(4, np.int32), np.zeros(44, np.int32)
    dsave = np.zeros(29)
    factr = FTOL / np.finfo(float).eps
    n_iter = n_eval = 0
    while True:
        setulb(m, x, no_bound, no_bound, nbd, f, g, factr, GRAD_TOL, wa, iwa,
               task, lsave, isave, dsave, _MAX_LINE_SEARCH, ln_task)
        if task[0] == _TASK_FG:
            f, g = objective(x)
            n_eval += 1
        elif task[0] == _TASK_NEW_X:
            n_iter += 1
            if n_iter >= MAX_ITERS:
                task[:] = _TASK_STOP, _STOP_MAXITER
            elif n_eval > MAX_EVALS:
                task[:] = _TASK_STOP, _STOP_MAXFUN
        else:
            break
    if not np.isfinite(f):
        # The optimizer's first evaluation was at the start; only on this
        # failure path is it repeated, to say which point went wrong.
        if not np.isfinite(objective(start)[0]):
            raise FitError("objective not finite at the starting point")
        raise FitError("optimizer returned a non-finite objective")
    return x, f, g, n_iter
