"""Monte Carlo study of estimation and inference for network weights.

Replicates draw p = 6 standard normal covariates, push them through a
known network, and add Gaussian noise.  Two sparsity patterns are
studied: "5-1" zeroes the incoming weights of covariate 1 only, "3-3"
zeroes covariates 1, 3, and 4.  Each replicate is fitted from scratch,
the estimate is aligned to the true parameter by searching the weight
symmetry group, and single- and multiple-parameter Wald tests are
recorded, yielding empirical type-I error and power at the 5% level
plus the usual estimation metrics (bias, SE, SEE, coverage).

The weakest effect is covariate 2, whose per-node weights are fixed at
(-0.14, -0.27) for q = 2, (-0.14, -0.27, -0.20, -0.29) for q = 4 and
(-0.14, -0.27, -0.20, -0.29, 0.27, 0.20) for q = 6; the remaining
default blocks are package choices (all nonzero, stronger than
covariate 2's) listed in ``_DEFAULT_TRUTH``.

Everything is reproducible: replicate i of a scenario depends only on
(scenario.seed, i), and parallel runs reduce results in replicate order
so serial and multi-process executions agree bitwise.

Studies.  A power curve reruns one scenario at each effect size, so
every point reuses the same covariate and noise draws, and returns one
``PowerPoint`` per effect.  A positive-definiteness study runs one
scenario per (lambda, n) cell, seeded from (seed, lambda index, n
index), and returns each cell's ``SimReport``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import seeds
from .canonical import align_to
from .effects import Z_95
from .exceptions import (FitError, NotPositiveDefiniteError,
                         SingularMatrixError)
from .fit import FitConfig, fit
from .inference import sandwich_covariance, wald_multi
from .likelihood import LikelihoodSpec, observed_information
from .model import (Architecture, Dataset, ParamVector, design_with_intercept,
                    forward_design)
from .special import chi_square_survival

ZERO_PATTERNS = {"5-1": (1,), "3-3": (1, 3, 4)}

ALPHA = 0.05

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
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not self.noise_sd > 0.0:
            raise ValueError(f"noise_sd must be positive, got {self.noise_sd}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.true_theta is not None:
            if self.true_theta.arch.p != self.p or self.true_theta.arch.q != self.q:
                raise ValueError("true_theta architecture does not match "
                                 "the scenario's p and q")

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
    arch = Architecture(p=scenario.p, q=scenario.q)
    truth = scenario.resolved_truth()
    mu = forward_design(arch, truth, design_with_intercept(x))
    y = mu + scenario.noise_sd * rng.standard_normal(scenario.n)
    return Dataset(x, y)


@dataclass(frozen=True)
class _ReplicateOutcome:
    """Raw per-replicate results in true-parameter-aligned coordinates."""

    fit_ok: bool
    converged: bool
    positive_definite: bool
    estimate: np.ndarray     # (r,), NaN on fit failure
    se: np.ndarray           # (r,), NaN unless PD
    covered: np.ndarray      # (r,), NaN unless PD
    sp_p: np.ndarray         # (r,), NaN where unavailable
    mp_p: np.ndarray         # (p,), NaN where unavailable
    iterations: int = 0      # optimizer work over all restarts
    error: str | None = None


def _replicate_task(args):
    scenario, i = args
    arch = Architecture(p=scenario.p, q=scenario.q)
    r = arch.r
    truth = scenario.resolved_truth()
    nan_r = np.full(r, np.nan)
    nan_p = np.full(scenario.p, np.nan)
    data = generate(scenario, i)
    spec = LikelihoodSpec("gaussian", scenario.lam)
    cfg = FitConfig(n_restarts=scenario.restarts,
                    seed=seeds.derive_seed(scenario.seed, i, 1))
    try:
        res = fit(arch, data, spec, cfg)
    except FitError as exc:
        return _ReplicateOutcome(False, False, False, nan_r, nan_r.copy(),
                                 nan_r.copy(), nan_r.copy(), nan_p,
                                 error=str(exc))
    aligned, _, t_mat = align_to(res.theta_hat, truth)
    est = np.array(aligned.values)
    info = observed_information(arch, res.theta_hat, data, spec,
                                sigma_sq=res.sigma_sq_hat)
    se = nan_r.copy()
    covered = nan_r.copy()
    sp_p = nan_r.copy()
    mp_p = nan_p.copy()
    try:
        cov = sandwich_covariance(info, scenario.lam)
    except SingularMatrixError as exc:
        return _ReplicateOutcome(True, res.converged, False, est, se, covered,
                                 sp_p, mp_p, sum(res.restart_iterations),
                                 error=str(exc))
    sigma_aligned = t_mat @ cov.sigma_hat @ t_mat.T
    var = np.diag(sigma_aligned)
    if cov.positive_definite:
        se = np.sqrt(np.maximum(var, 0.0))
        covered = (np.abs(truth.values - est) <= Z_95 * se).astype(float)
    ok = var > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        stats = np.where(ok, est ** 2 / np.where(ok, var, 1.0), np.nan)
    sp_p = np.array([chi_square_survival(s, 1.0) if np.isfinite(s) else np.nan
                     for s in stats])
    for j in range(1, scenario.p + 1):
        try:
            mp = wald_multi(res.theta_hat, cov, arch, j)
            mp_p[j - 1] = mp.p_value
        except NotPositiveDefiniteError:
            mp_p[j - 1] = np.nan
    return _ReplicateOutcome(True, res.converged, cov.positive_definite, est,
                             se, covered, sp_p, mp_p,
                             sum(res.restart_iterations))


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
    (length p).  ``emp_se`` is the standard deviation of aligned
    estimates over successful fits; ``see`` the average estimated
    standard error and ``coverage`` the empirical 95% interval coverage,
    both over positive-definite replicates only.  Rejection rates use
    the full replicate count as denominator; replicates whose test was
    unavailable count as non-rejections.  ``iterations`` is the
    optimizer work of the whole run: L-BFGS-B iterations plus Newton
    polish steps, summed over every restart of every replicate.
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

    def sp_rate(self, j: int, k: int) -> float:
        """Single-parameter rejection rate for omega_{jk}."""
        arch = Architecture(p=self.scenario.p, q=self.scenario.q)
        return float(self.sp_rejection[arch.omega_index(j, k)])

    def mp_rate(self, j: int) -> float:
        """Multiple-parameter rejection rate for covariate j."""
        return float(self.mp_rejection[j - 1])


def run_scenario(scenario: SimScenario, n_jobs: int = 1) -> SimReport:
    """Full Monte Carlo run of one scenario."""
    args = [(scenario, i) for i in range(scenario.replicates)]
    outcomes = _run_tasks(_replicate_task, args, n_jobs)
    r = Architecture(p=scenario.p, q=scenario.q).r
    ests = np.array([o.estimate for o in outcomes])
    ses = np.array([o.se for o in outcomes])
    covs = np.array([o.covered for o in outcomes])
    sp = np.array([o.sp_p for o in outcomes])
    mp = np.array([o.mp_p for o in outcomes])
    fit_ok = np.array([o.fit_ok for o in outcomes])
    pd_ok = np.array([o.positive_definite for o in outcomes])
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


# ---------------------------------------------------------------------------
# Power curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerPoint:
    """Rejection rates when covariate 2's weights all equal ``effect``."""

    effect: float
    sp_power: float       # omega_21 single-parameter test
    mp_power: float       # covariate-2 grouped test
    pd_rate: float


def power_sweep(scenario: SimScenario, effect_values,
                n_jobs: int = 1) -> tuple:
    """Rejection rates as covariate 2's common weight value varies.

    Returns one ``PowerPoint`` per effect value, in the given order.
    Each effect size reuses the same covariate and noise draws (they
    depend only on the scenario seed and replicate index), so the curve
    is smooth in the effect rather than jittered by re-simulation.
    """
    base_truth = scenario.resolved_truth()
    arch = base_truth.arch
    points = []
    for e in effect_values:
        e = float(e)
        omega = base_truth.omega_matrix()
        omega[2] = e
        truth = ParamVector.from_parts(arch, omega, base_truth.gamma_vector())
        rep = run_scenario(replace(scenario, true_theta=truth), n_jobs=n_jobs)
        points.append(PowerPoint(
            effect=e,
            sp_power=rep.sp_rate(2, 1),
            mp_power=rep.mp_rate(2),
            pd_rate=rep.pd_rate,
        ))
    return tuple(points)


# ---------------------------------------------------------------------------
# Positive-definiteness study
# ---------------------------------------------------------------------------

def pd_study(q: int, nz_pattern: str, n_values, lam_values,
             replicates: int = 100, restarts: int = 5, seed: int = 0,
             noise_sd: float = 1.0, n_jobs: int = 1) -> tuple:
    """PD rate of the sandwich covariance across (lambda, n) cells.

    Returns each cell's :class:`SimReport` in the order lambdas x sample
    sizes.  Cell (li, ni) runs with seed ``derive_seed(seed, li, ni, 2)``,
    so the table is reproducible and cells are independent.
    """
    return tuple(
        run_scenario(SimScenario(
            q=q, nz_pattern=nz_pattern, n=int(n), lam=float(lam),
            noise_sd=noise_sd, replicates=replicates, restarts=restarts,
            seed=seeds.derive_seed(seed, li, ni, 2)), n_jobs=n_jobs)
        for li, lam in enumerate(lam_values)
        for ni, n in enumerate(n_values))
