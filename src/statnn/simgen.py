"""Monte Carlo study of estimation and inference for network weights.

Replicates draw p = 6 standard normal covariates, push them through a
known network, and add Gaussian noise.  Two sparsity patterns are
studied: "5-1" zeroes the incoming weights of covariate 1 only, "3-3"
zeroes covariates 1, 3, and 4.  Each replicate is fitted from scratch,
the estimate is aligned to the true parameter by searching the weight
symmetry group, and single- and multiple-parameter Wald tests are
recorded, yielding empirical type-I error and power at the 5% level
plus the usual estimation metrics (bias, SE, SEE, coverage).  A
replicate's SEs, coverage and tests are inference at an optimum, so they
need a fit that converged and, as for a summary table, its sandwich
covariance, which a ``CovarianceEstimate`` holds only if positive
definite.  A replicate without both keeps its estimate and counts as a
non-rejection.

The weakest effect is covariate 2, whose per-node weights are fixed at
(-0.14, -0.27) for q = 2, (-0.14, -0.27, -0.20, -0.29) for q = 4 and
(-0.14, -0.27, -0.20, -0.29, 0.27, 0.20) for q = 6; the remaining
default blocks are package choices (all nonzero, stronger than
covariate 2's) listed in ``_DEFAULT_TRUTH``.

A replicate's fit is at the generating width, so it stops restarting
once ``fit.RESTART_CONFIRMATIONS`` restarts reach its best optimum: a
scenario's ``restarts`` is a cap.

Everything is reproducible: replicate i of a scenario depends only on
(scenario.seed, i), and parallel runs reduce results in replicate order
so serial and multi-process executions agree bitwise.

Studies.  ``run_grid`` runs one scenario per cell of a lambda x n x
effect grid and returns each cell's ``SimReport``; a lambda x n grid is
the positive-definiteness study.  Cells are seeded from (seed, lambda
index, n index).  An effect sets covariate 2's weights but not the
seed, so the points of a power curve reuse the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import seeds
from .canonical import align_to
from .exceptions import FitError, NotPositiveDefiniteError
from .fit import RESTART_CONFIRMATIONS, FitConfig, fit
from .inference import (ALPHA, Z_95, sandwich_covariance, wald_multi,
                        wald_single)
from .likelihood import check_lambda, observed_information
from .model import (Architecture, Dataset, ParamVector, design_with_intercept,
                    forward_design)

ZERO_PATTERNS = {"5-1": (1,), "3-3": (1, 3, 4)}

#: Default true weights per width.  omega_2 holds the weak reference
#: effect; the other entries are fixed package defaults.  They are
#: chosen so each hidden unit's net input is both spread out (sd near 2)
#: and clearly off-center (intercepts around +/-1.7), which puts the
#: units in distinct responsive regions of the sigmoid; that is what
#: identifies individual weights and keeps the Wald tests near their
#: nominal level.  Large output weights sharpen per-weight information
#: without inflating noise.  With standard-normal covariates and unit
#: noise, the asymptotic power of the grouped 5% Wald test for covariate
#: 2 at q = 2 and lambda = 0.01 is about 0.98 at n = 1000 (noncentrality
#: 18.8, two degrees of freedom) and about 1.00 at n = 2000.
_DEFAULT_TRUTH = {
    2: {
        "omega_0": (1.80, -1.60),
        "omega_2": (-0.14, -0.27),
        "omega_3": (1.10, 0.80),
        "omega_4": (-0.80, 1.05),
        "omega_5": (1.30, -0.95),
        "omega_6": (0.95, 1.20),
        "gamma": (0.40, 5.50, -5.00),
    },
    4: {
        "omega_0": (1.80, -1.60, 1.50, -1.70),
        "omega_2": (-0.14, -0.27, -0.20, -0.29),
        "omega_3": (1.10, 0.80, -0.70, 0.85),
        "omega_4": (-0.80, 1.05, 0.90, -0.75),
        "omega_5": (1.30, -0.95, 0.85, 0.70),
        "omega_6": (0.95, 1.20, -0.80, 0.90),
        "gamma": (0.40, 5.50, -5.00, 4.50, -4.00),
    },
    6: {
        "omega_0": (1.80, -1.60, 1.50, -1.70, 1.60, -1.50),
        "omega_2": (-0.14, -0.27, -0.20, -0.29, 0.27, 0.20),
        "omega_3": (1.10, 0.80, -0.70, 0.85, -0.90, 0.75),
        "omega_4": (-0.80, 1.05, 0.90, -0.75, 0.80, -0.85),
        "omega_5": (1.30, -0.95, 0.85, 0.70, -0.75, 0.90),
        "omega_6": (0.95, 1.20, -0.80, 0.90, 0.85, -0.70),
        "gamma": (0.40, 5.50, -5.00, 4.50, -4.00, 3.50, -3.00),
    },
}


def default_true_theta(q: int, nz_pattern: str, p: int = 6) -> ParamVector:
    """The built-in true parameter for a scenario, pattern zeros applied."""
    if nz_pattern not in ZERO_PATTERNS:
        raise ValueError(f"nz_pattern must be one of {tuple(ZERO_PATTERNS)}, "
                         f"got {nz_pattern!r}")
    if p != 6:
        raise ValueError(f"default truth is defined for p = 6, got p = {p}")
    if q not in _DEFAULT_TRUTH:
        raise ValueError(f"default truth is defined for q in "
                         f"{tuple(_DEFAULT_TRUTH)}, got q = {q}")
    spec = _DEFAULT_TRUTH[q]
    arch = Architecture(p=p, q=q)
    omega = np.zeros((p + 1, q))
    for j in range(p + 1):
        key = f"omega_{j}"
        if key in spec:
            omega[j] = spec[key]
    for j in ZERO_PATTERNS[nz_pattern]:
        omega[j] = 0.0
    return ParamVector.from_parts(arch, omega, np.array(spec["gamma"]))


@dataclass(frozen=True)
class SimScenario:
    """One cell of the simulation design."""

    q: int
    nz_pattern: str
    n: int
    p: int = 6
    true_theta: ParamVector | None = None
    lam: float = 0.01
    noise_sd: float = 1.0
    replicates: int = 200
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.nz_pattern not in ZERO_PATTERNS:
            raise ValueError(f"nz_pattern must be one of "
                             f"{tuple(ZERO_PATTERNS)}, got {self.nz_pattern!r}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        check_lambda(self.lam)
        if not 0.0 < self.noise_sd < np.inf:
            raise ValueError(f"noise_sd must be finite and positive, "
                             f"got {self.noise_sd}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.true_theta is None:
            # refuse a scenario without a truth now, not in its first replicate
            default_true_theta(self.q, self.nz_pattern, self.p)
        elif self.true_theta.arch.p != self.p or self.true_theta.arch.q != self.q:
            raise ValueError("true_theta architecture does not match "
                             "the scenario's p and q")
        elif not np.all(np.isfinite(self.true_theta.values)):
            raise ValueError("true_theta contains non-finite entries")

    @property
    def arch(self) -> Architecture:
        return Architecture(p=self.p, q=self.q)

    def resolved_truth(self) -> ParamVector:
        if self.true_theta is not None:
            return self.true_theta
        return default_true_theta(self.q, self.nz_pattern, self.p)


def generate(scenario: SimScenario, replicate_index: int) -> Dataset:
    """Covariates and response for one replicate; depends only on
    (scenario.seed, replicate_index)."""
    if replicate_index < 0:
        raise ValueError(f"replicate_index must be >= 0, got {replicate_index}")
    rng = seeds.rng(scenario.seed, replicate_index, 0)
    x = rng.standard_normal((scenario.n, scenario.p))
    truth = scenario.resolved_truth()
    mu = forward_design(truth, design_with_intercept(x))
    y = mu + scenario.noise_sd * rng.standard_normal(scenario.n)
    return Dataset(x, y)


@dataclass(frozen=True)
class _ReplicateOutcome:
    """Raw per-replicate results in true-parameter-aligned coordinates."""

    fit_ok: bool
    converged: bool
    pd_ok: bool              # converged and PD: the replicate is tested
    estimate: np.ndarray     # (r,), NaN on fit failure
    se: np.ndarray           # (r,), NaN unless pd_ok
    covered: np.ndarray      # (r,), NaN unless pd_ok
    sp_p: np.ndarray         # (r,), NaN unless pd_ok
    mp_p: np.ndarray         # (p,), NaN unless pd_ok
    iterations: int = 0      # optimizer work over the restarts that ran


def _replicate_task(args):
    scenario, i = args
    arch = scenario.arch
    truth = scenario.resolved_truth()
    nan_r = np.full(arch.r, np.nan)
    outcome = _ReplicateOutcome(False, False, False, nan_r, nan_r, nan_r,
                                nan_r, np.full(scenario.p, np.nan))
    data = generate(scenario, i)
    cfg = FitConfig(n_restarts=scenario.restarts,
                    seed=seeds.derive_seed(scenario.seed, i, 1),
                    confirmations=RESTART_CONFIRMATIONS)
    try:
        res = fit(arch, data, scenario.lam, cfg)
    except FitError:
        return outcome
    aligned, t_mat = align_to(res.theta_hat, truth)
    est = np.array(aligned.values)
    outcome = replace(outcome, fit_ok=True, converged=res.converged,
                      estimate=est, iterations=sum(res.restart_iterations))
    if not res.converged:
        return outcome
    info = observed_information(res.theta_hat, data, sigma_sq=res.sigma_sq_hat)
    try:
        cov = sandwich_covariance(info, scenario.lam)
    except NotPositiveDefiniteError:
        return outcome
    se, _, sp_p = wald_single(est, np.diag(t_mat @ cov.sigma_hat @ t_mat.T))
    mp_p = np.array([wald_multi(res.theta_hat, cov, j).p_value
                     for j in range(1, scenario.p + 1)])
    covered = (np.abs(truth.values - est) <= Z_95 * se).astype(float)
    return replace(outcome, pd_ok=True, se=se, covered=covered,
                   sp_p=sp_p, mp_p=mp_p)


def _run_tasks(task_fn, args_list, n_jobs: int):
    """Run tasks serially or in a process pool; output order always
    matches input order, so results are identical either way."""
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if n_jobs == 1:
        return [task_fn(a) for a in args_list]
    # here, not at module load: only a parallel run needs multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(args_list) // (4 * n_jobs))
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(task_fn, args_list, chunksize=chunk))


@dataclass(frozen=True)
class SimReport:
    """Aggregated scenario results.

    Arrays indexed by flat parameter position (length r) or covariate
    (length p).  ``mean_estimate`` and ``emp_se`` are the mean and
    standard deviation of aligned estimates over successful fits,
    converged or not.  A replicate is tested only if its winning restart
    converged and its covariance is positive definite; ``n_pd`` counts
    these, so ``n_pd <= n_converged``.  ``see``, the average estimated
    standard error, and ``coverage``, the empirical 95% interval
    coverage, are over tested replicates only.  Rejection rates use the
    full replicate count as denominator: any other replicate counts as a
    non-rejection, so no rate exceeds ``pd_rate``.  ``iterations`` is the
    optimizer work of the whole run: L-BFGS-B iterations plus Newton
    polish steps, summed over every restart that ran in every
    replicate.
    """

    scenario: SimScenario
    true_values: np.ndarray
    n_total: int
    n_fit_failed: int
    n_pd: int
    n_converged: int
    iterations: int
    mean_estimate: np.ndarray
    emp_se: np.ndarray
    see: np.ndarray
    coverage: np.ndarray
    sp_rejection: np.ndarray
    mp_rejection: np.ndarray

    @property
    def pd_rate(self) -> float:
        return self.n_pd / self.n_total

    @property
    def effect(self) -> float:
        """True omega_21, the weight a power curve varies."""
        return float(self.true_values[self.scenario.arch.omega_index(2, 1)])

    def sp_rate(self, j: int, k: int) -> float:
        """Single-parameter rejection rate for omega_{jk}."""
        return float(self.sp_rejection[self.scenario.arch.omega_index(j, k)])

    def mp_rate(self, j: int) -> float:
        """Multiple-parameter rejection rate for covariate j."""
        return float(self.mp_rejection[j - 1])


def _report(scenario: SimScenario, outcomes) -> SimReport:
    """Aggregate a scenario's replicate outcomes, given in replicate order."""
    r = scenario.arch.r
    ests = np.array([o.estimate for o in outcomes])
    ses = np.array([o.se for o in outcomes])
    covs = np.array([o.covered for o in outcomes])
    sp = np.array([o.sp_p for o in outcomes])
    mp = np.array([o.mp_p for o in outcomes])
    fit_ok = np.array([o.fit_ok for o in outcomes])
    pd_ok = np.array([o.pd_ok for o in outcomes])
    n_total = scenario.replicates
    mean_est = np.full(r, np.nan)
    emp_se = np.full(r, np.nan)
    if fit_ok.sum() >= 2:
        mean_est = ests[fit_ok].mean(axis=0)
        emp_se = ests[fit_ok].std(axis=0, ddof=1)
    see = np.full(r, np.nan)
    coverage = np.full(r, np.nan)
    if pd_ok.sum() >= 1:
        see = ses[pd_ok].mean(axis=0)
        coverage = covs[pd_ok].mean(axis=0)
    with np.errstate(invalid="ignore"):
        sp_rej = np.nansum((sp < ALPHA).astype(float), axis=0) / n_total
        mp_rej = np.nansum((mp < ALPHA).astype(float), axis=0) / n_total
    return SimReport(
        scenario=scenario,
        true_values=np.array(scenario.resolved_truth().values),
        n_total=n_total,
        n_fit_failed=int((~fit_ok).sum()),
        n_pd=int(pd_ok.sum()),
        n_converged=int(sum(o.converged for o in outcomes)),
        iterations=int(sum(o.iterations for o in outcomes)),
        mean_estimate=mean_est,
        emp_se=emp_se,
        see=see,
        coverage=coverage,
        sp_rejection=sp_rej,
        mp_rejection=mp_rej,
    )


def run_scenario(scenario: SimScenario, n_jobs: int = 1) -> SimReport:
    """Full Monte Carlo run of one scenario."""
    args = [(scenario, i) for i in range(scenario.replicates)]
    return _report(scenario, _run_tasks(_replicate_task, args, n_jobs))


def run_grid(scenario: SimScenario, lam=None, n=None, effect=None,
             n_jobs: int = 1) -> tuple:
    """One :class:`SimReport` per cell of the grid lam x n x effect.

    Cells come in that order; a missing axis holds the scenario's value.
    Cell (li, ni) runs with seed ``derive_seed(seed, li, ni, 2)``, so
    cells are reproducible and independent.  An effect sets every weight
    of covariate 2 and not the seed: a power curve's points share draws.
    """
    truth = scenario.resolved_truth()
    cells = []
    for li, lam_v in enumerate((scenario.lam,) if lam is None else lam):
        for ni, n_v in enumerate((scenario.n,) if n is None else n):
            cell = replace(scenario, lam=float(lam_v), n=int(n_v),
                           seed=seeds.derive_seed(scenario.seed, li, ni, 2))
            for e in (None,) if effect is None else effect:
                if e is not None:
                    values = truth.values.copy()
                    values[truth.arch.covariate_block(2)] = float(e)
                    cell = replace(cell, true_theta=ParamVector(truth.arch,
                                                                values))
                cells.append(cell)
    # one pool for all cells: each new pool's workers import scipy anew
    reps = scenario.replicates
    outcomes = _run_tasks(_replicate_task, [(c, i) for c in cells
                                            for i in range(reps)], n_jobs)
    return tuple(_report(c, outcomes[k * reps:(k + 1) * reps])
                 for k, c in enumerate(cells))
