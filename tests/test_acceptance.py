"""End-to-end acceptance checks for the library's headline guarantees.

Each test prints a single PASS/FAIL line carrying the measured
quantities before asserting, so a failing run still shows its evidence
in the captured output.  The checks cover, in order:

 1. analytic gradient and observed information against central finite
    differences over a batch of random instances;
 2. exhaustive weight-symmetry invariance and canonical-form stability;
 3. the closed-form collapse of the sandwich covariance when the ridge
    penalty is zero, plus a scalar worked example;
 4. Monte Carlo type-I error and power of the Wald tests at desk scale,
    the power bound being the asymptotic noncentral chi-square power
    less three binomial standard errors rather than a fixed constant;
 5. Monte Carlo confidence-interval coverage and standard-error
    calibration;
 6. positive-definiteness rates of the covariance estimate with and
    without a ridge penalty;
 7. the insurance benchmark (runs only when the known 1,338-row fixture
    with a matching checksum is installed; skipped otherwise);
 8. chi-square tail probabilities against closed forms and an
    independent quadrature oracle;
 9. structural properties of partial-effect curves (disconnected and
    zero-step cases, delta-method gradient, additive-network
    coincidence);
10. byte-identical CLI outputs across reruns and worker counts.
"""

import hashlib
import math
import os
import pathlib
import time

import numpy as np
import pytest
from scipy.stats import chi2, ncx2

from statnn.canonical import all_symmetry_ops, apply_symmetry, canonicalize
from statnn.cli import main
from statnn.effects import pce_curve
from statnn.fit import FitConfig, fit
from statnn.inference import (ALPHA, CovarianceEstimate, effective_df,
                              sandwich_covariance, summarize)
from statnn.likelihood import (gradient, log_likelihood,
                               observed_information, penalty,
                               prediction_gradient)
from statnn.model import (Architecture, ColumnMeta, Dataset, ParamVector,
                          forward_batch)
from statnn.preprocess import ingest
from statnn.selection import cross_validate, fit_linear, sweep
from statnn.serialize import save_scenario
from statnn.simgen import SimScenario, run_grid, run_scenario
from statnn.special import chi_square_survival

from oracles import fd_gradient, fd_hessian, survival_by_quadrature


def _verdict(ok: bool, label: str, detail: str) -> bool:
    """Print the one-line verdict for a check, then hand back its status."""
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# Independent numerical oracles
# ---------------------------------------------------------------------------

def _nn_mean(arch, values, xmat):
    """Independent re-implementation of the averaged network prediction."""
    w = values[: (arch.p + 1) * arch.q].reshape(arch.p + 1, arch.q)
    g = values[(arch.p + 1) * arch.q:]
    x1 = np.column_stack([np.ones(len(xmat)), xmat])
    hidden = 1.0 / (1.0 + np.exp(-(x1 @ w)))
    return float(np.mean(g[0] + hidden @ g[1:]))


def _asymptotic_wald_power(truth, j, n, sigma_sq):
    """Asymptotic power of the grouped Wald test of omega_j = 0 at ALPHA.

    Independent of the library's likelihood and inference code: the
    per-row Fisher information I_1 = E[a a^T] / sigma^2, with a the
    Jacobian of the network mean at the true parameter, is averaged over
    10^6 fixed-seed standard-normal covariate rows.  The statistic is then
    noncentral chi-square with q degrees of freedom and noncentrality
    omega_j^T (S (n I_1)^-1 S^T)^-1 omega_j.  The ridge term is left out:
    at the penalties studied it is negligible beside n I_1.

    Returns ``(ncp, power)``.
    """
    p, q = truth.arch.p, truth.arch.q
    values = np.asarray(truth.values)
    w = values[: (p + 1) * q].reshape(p + 1, q)
    g = values[(p + 1) * q:]
    rng = np.random.default_rng(4)
    info = np.zeros((values.size, values.size))
    m, chunks = 100_000, 10
    for _ in range(chunks):
        x1 = np.column_stack([np.ones(m), rng.standard_normal((m, p))])
        hidden = 1.0 / (1.0 + np.exp(-(x1 @ w)))
        slope = g[1:] * hidden * (1.0 - hidden)
        jac = np.column_stack([
            (x1[:, :, None] * slope[:, None, :]).reshape(m, (p + 1) * q),
            np.ones(m), hidden])
        info += jac.T @ jac
    info /= m * chunks * sigma_sq
    block = slice(j * q, (j + 1) * q)
    omega_j = values[block]
    cov_j = np.linalg.inv(n * info)[block, block]
    ncp = float(omega_j @ np.linalg.solve(cov_j, omega_j))
    power = float(ncx2.sf(chi2.ppf(1.0 - ALPHA, q), q, ncp))
    return ncp, power


# ---------------------------------------------------------------------------
# 1. Derivatives against finite differences
# ---------------------------------------------------------------------------

def test_gradient_and_information_match_finite_differences():
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    worst_grad = 0.0
    worst_info = 0.0
    for i in range(100):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 4))
        n = int(rng.integers(10, 51))
        family = "gaussian" if i % 2 == 0 else "bernoulli"
        arch = Architecture(p=p, q=q, family=family)
        theta = ParamVector(arch, rng.uniform(-1.0, 1.0, arch.r))
        x = rng.normal(size=(n, p))
        if family == "gaussian":
            y = rng.normal(size=n)
        else:
            y = rng.integers(0, 2, size=n).astype(float)
        data = Dataset(x=x, y=y)
        lam = float(rng.choice([0.0, 0.01, 0.1]))
        kw = ({"sigma_sq": float(rng.uniform(0.5, 2.0))}
              if family == "gaussian" else {})

        def loglik(values, _lam=lam):
            return log_likelihood(ParamVector(arch, values), data,
                                  _lam, **kw)

        analytic = gradient(theta, data, lam, **kw)
        numeric = fd_gradient(loglik, theta.values.copy())
        scale = np.maximum(np.abs(numeric), 1.0)
        worst_grad = max(worst_grad,
                         float(np.max(np.abs(analytic - numeric) / scale)))

        # The observed information excludes the ridge term by definition,
        # so the reference Hessian differentiates the unpenalized gradient.
        def grad_fn(values):
            return gradient(ParamVector(arch, values), data, 0.0, **kw)

        info = observed_information(theta, data, **kw)
        numeric_h = -fd_hessian(grad_fn, theta.values.copy())
        worst_info = max(worst_info, float(np.max(np.abs(info - numeric_h))))
    elapsed = time.perf_counter() - t0
    ok = worst_grad < 1e-6 and worst_info < 1e-4 and elapsed < 60.0
    detail = (f"max gradient rel err {worst_grad:.2e} (< 1e-06), "
              f"max information abs err {worst_info:.2e} (< 1e-04), "
              f"100 instances in {elapsed:.1f}s (< 60s)")
    assert _verdict(ok, "[1/10] derivative oracle", detail), detail


# ---------------------------------------------------------------------------
# 2. Weight-symmetry group and canonical form
# ---------------------------------------------------------------------------

def test_symmetry_group_invariance_and_canonical_form():
    rng = np.random.default_rng(777)
    t0 = time.perf_counter()
    worst_fun = 0.0
    worst_pen = 0.0
    worst_orbit = 0.0
    sizes_ok = True
    idem_ok = True
    for q in (1, 2, 3):
        arch = Architecture(p=2, q=q)
        theta = ParamVector(arch, rng.uniform(-1.5, 1.5, arch.r))
        data = Dataset(x=rng.normal(size=(8, 2)), y=rng.normal(size=8))
        base = forward_batch(theta, data)
        base_pen = penalty(theta, 0.7)
        ops = list(all_symmetry_ops(q))
        sizes_ok = sizes_ok and len(ops) == (2 ** q) * math.factorial(q)
        reference = canonicalize(theta).values
        for op in ops:
            image = apply_symmetry(theta, op)
            worst_fun = max(worst_fun, float(np.max(np.abs(
                forward_batch(image, data) - base))))
            worst_pen = max(worst_pen, abs(penalty(image, 0.7) - base_pen))
            worst_orbit = max(worst_orbit, float(np.max(np.abs(
                canonicalize(image).values - reference))))
        once = canonicalize(theta)
        idem_ok = idem_ok and bool(
            np.array_equal(canonicalize(once).values, once.values))
    elapsed = time.perf_counter() - t0
    ok = (sizes_ok and idem_ok and worst_fun <= 1e-12
          and worst_pen <= 1e-12 and worst_orbit <= 1e-12)
    detail = (f"group sizes {'ok' if sizes_ok else 'WRONG'} "
              f"(2^q q! for q=1..3), max function dev {worst_fun:.2e} "
              f"(<= 1e-12), max penalty dev {worst_pen:.2e} (<= 1e-12), "
              f"max orbit dev {worst_orbit:.2e} (<= 1e-12), "
              f"idempotent {'yes' if idem_ok else 'NO'}, {elapsed:.1f}s")
    assert _verdict(ok, "[2/10] symmetry group", detail), detail


# ---------------------------------------------------------------------------
# 3. Sandwich covariance collapse without a penalty
# ---------------------------------------------------------------------------

def test_unpenalized_sandwich_collapses_to_inverse_information():
    t0 = time.perf_counter()
    arch = Architecture(p=3, q=2)
    rng = np.random.default_rng(5150)
    m = rng.normal(size=(arch.r + 4, arch.r))
    info = m.T @ m
    cov = sandwich_covariance(info, lam=0.0)
    identity_dev = float(np.max(np.abs(
        cov.sigma_hat @ info - np.eye(arch.r))))
    dfs = [effective_df(cov, arch.covariate_block(j))
           for j in range(1, arch.p + 1)]
    df_exact = all(df == float(arch.q) for df in dfs)

    # Scalar worked example: information 2 on every coordinate, ridge
    # 0.01, so each variance is 2 / (2 + 2*0.01)^2 = 0.4901480...
    scalar = sandwich_covariance(2.0 * np.eye(3), lam=0.01)
    diag = np.diag(scalar.sigma_hat)
    closed_form = 2.0 / 2.02 ** 2
    scalar_dev = float(np.max(np.abs(diag - closed_form)))
    scalar_lit = float(np.max(np.abs(diag - 0.4901480)))
    elapsed = time.perf_counter() - t0
    ok = (identity_dev < 1e-8 and df_exact and scalar_dev < 1e-12
          and scalar_lit < 1e-6 and elapsed < 60.0)
    detail = (f"|cov*info - I| {identity_dev:.2e} (< 1e-08), effective df "
              f"{dfs} {'==' if df_exact else '!='} {float(arch.q)} exactly, "
              f"scalar diag dev {scalar_dev:.2e} vs 2/2.02^2 "
              f"(0.4901480 within {scalar_lit:.2e}), {elapsed:.1f}s")
    assert _verdict(ok, "[3/10] covariance collapse", detail), detail


# ---------------------------------------------------------------------------
# 4. Monte Carlo test sizes and power
#
# The sizes must fall in fixed bands around the nominal 5%.  The power of
# the grouped test for covariate 2 (the deliberately weak effect) is
# bounded below by its asymptotic noncentral chi-square power, from an
# independent oracle, less three binomial standard errors over the
# replicates: a fixed bound would ask more than the design can deliver.
#
# Checks 4-6 also bound the optimizer work of their runs (L-BFGS-B
# iterations plus Newton polish steps over every restart), not their wall
# time, so the verdict does not depend on how busy the host is.  Each
# bound is the total measured when it was set, times 1.25, rounded up to
# the next thousand: a fitter doing twice the work fails it.  The
# measurements are of fits that stop restarting once
# fit.RESTART_CONFIRMATIONS restarts are tied with the best; running
# every restart measured 100,397, 99,105 and 49,269 + 319,282.
# ---------------------------------------------------------------------------

def test_simulation_type_i_error_and_power():
    t0 = time.perf_counter()
    scenario = SimScenario(q=2, nz_pattern="5-1", n=1000, lam=0.01,
                           replicates=200, restarts=10, seed=0)
    report = run_scenario(scenario)
    mp_null = report.mp_rate(1)      # covariate 1 is disconnected in truth
    mp_alt = report.mp_rate(2)       # covariate 2 carries a real effect
    sp_null = report.sp_rate(1, 1)   # a single truly-zero weight
    elapsed = time.perf_counter() - t0
    work_bound = 52_000              # measured 41,374
    ncp, power = _asymptotic_wald_power(scenario.resolved_truth(), 2,
                                        scenario.n,
                                        sigma_sq=scenario.noise_sd ** 2)
    bound = power - 3.0 * math.sqrt(power * (1.0 - power)
                                    / scenario.replicates)
    ok = (0.02 <= mp_null <= 0.10 and mp_alt >= bound
          and 0.02 <= sp_null <= 0.11 and report.iterations <= work_bound)
    detail = (f"multi-parameter size {mp_null:.3f} (in [0.02, 0.10]), "
              f"multi-parameter power {mp_alt:.3f} (>= {bound:.3f}, the "
              f"asymptotic power {power:.3f} at noncentrality {ncp:.1f} "
              f"less 3 binomial SE), "
              f"single-parameter size {sp_null:.3f} (in [0.02, 0.11]), "
              f"200 replicates in {report.iterations:,} optimizer "
              f"iterations (<= {work_bound:,}), {elapsed:.0f}s")
    assert _verdict(ok, "[4/10] rejection rates", detail), detail


# ---------------------------------------------------------------------------
# 5. Monte Carlo coverage and standard-error calibration
# ---------------------------------------------------------------------------

def test_simulation_coverage_and_se_calibration():
    t0 = time.perf_counter()
    scenario = SimScenario(q=2, nz_pattern="5-1", n=2000, lam=0.01,
                           replicates=200, restarts=10, seed=0)
    report = run_scenario(scenario)
    arch = Architecture(p=scenario.p, q=scenario.q)
    idx = arch.omega_index(2, 2)
    cp = float(report.coverage[idx])
    ratio = float(report.see[idx] / report.emp_se[idx])
    elapsed = time.perf_counter() - t0
    work_bound = 52_000              # measured 41,113
    ok = (0.91 <= cp <= 0.98 and abs(ratio - 1.0) < 0.25
          and report.iterations <= work_bound)
    detail = (f"coverage of the nominal 95% interval {cp:.3f} "
              f"(in [0.91, 0.98]), mean-estimated over empirical SE "
              f"{ratio:.3f} (within 1 +/- 0.25), "
              f"200 replicates in {report.iterations:,} optimizer "
              f"iterations (<= {work_bound:,}), {elapsed:.0f}s")
    assert _verdict(ok, "[5/10] coverage calibration", detail), detail


# ---------------------------------------------------------------------------
# 6. Positive-definiteness rates with and without a ridge
# ---------------------------------------------------------------------------

def test_simulation_positive_definite_rates():
    t0 = time.perf_counter()
    (ridged,) = run_grid(SimScenario(q=2, nz_pattern="5-1", n=250,
                                     lam=0.01, replicates=200, restarts=5))
    (bare,) = run_grid(SimScenario(q=6, nz_pattern="3-3", n=500, lam=0.0,
                                   replicates=100, restarts=5))
    elapsed = time.perf_counter() - t0
    work = ridged.iterations + bare.iterations
    work_bound = 452_000             # measured 41,988 + 319,282
    ok = (ridged.pd_rate >= 0.98 and bare.pd_rate < 0.70
          and work <= work_bound)
    detail = (f"ridge 0.01 / 2 nodes / n=250: PD rate {ridged.pd_rate:.3f} "
              f"(>= 0.98); ridge 0 / 6 nodes / n=500: PD rate "
              f"{bare.pd_rate:.3f} (< 0.70); {work:,} optimizer iterations "
              f"(<= {work_bound:,}), {elapsed:.0f}s")
    assert _verdict(ok, "[6/10] positive-definite rates", detail), detail


# ---------------------------------------------------------------------------
# 7. Insurance benchmark (gated on the fixture being installed)
# ---------------------------------------------------------------------------

_INSURANCE_HEADER = "age,sex,bmi,children,smoker,region,charges"
_INSURANCE_ROWS = 1338


def _insurance_path() -> pathlib.Path:
    """Locate and vet the optional insurance fixture.

    The dataset is not vendored.  Install it as
    ``tests/fixtures/insurance.csv`` (or point ``STATNN_INSURANCE_CSV``
    at it): the 1,338-row table with header ``age,sex,bmi,children,
    smoker,region,charges``, charges in thousands of dollars, smoker
    coded 0/1, and region coded ne/nw/se/sw.  A ``.sha256`` sidecar
    recorded at installation pins the exact bytes; on any mismatch the
    benchmark refuses to score rather than compare against the wrong
    file.
    """
    override = os.environ.get("STATNN_INSURANCE_CSV")
    path = (pathlib.Path(override) if override else
            pathlib.Path(__file__).parent / "fixtures" / "insurance.csv")
    if not path.exists():
        pytest.skip(f"insurance fixture not installed at {path}; see "
                    "_insurance_path for the expected file")
    blob = path.read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    pin = path.with_name(path.name + ".sha256")
    if pin.exists():
        want = pin.read_text(encoding="utf-8").split()[0].lower()
        if digest != want:
            pytest.skip(f"insurance fixture checksum mismatch: file hashes "
                        f"to {digest}, pinned value is {want}")
    lines = [ln for ln in blob.decode("utf-8").splitlines() if ln.strip()]
    if (not lines or lines[0].strip() != _INSURANCE_HEADER
            or len(lines) - 1 != _INSURANCE_ROWS):
        pytest.skip("a file is present but it is not the expected "
                    f"{_INSURANCE_ROWS}-row insurance table with header "
                    f"{_INSURANCE_HEADER!r}; refusing to score it")
    return path


def test_insurance_benchmark():
    t0 = time.perf_counter()
    path = _insurance_path()
    schema = {"columns": {"sex": {"action": "dummy_encode",
                                  "reference": "female"},
                          "region": {"action": "dummy_encode",
                                     "reference": "ne"}}}
    data, _plan = ingest(path, "charges", schema)
    names = [meta.name for meta in data.column_meta]
    assert set(names) == {"age", "sex.male", "bmi", "children", "smoker",
                          "region.nw", "region.se", "region.sw"}
    sd_y = data.response_meta.sd

    # Ordinary least squares.  The fit runs on the standardized data;
    # because the other regressors enter affinely and the model has an
    # intercept, the 0/1 smoker coefficient is unchanged by their
    # standardization, and de-standardizing the response just rescales
    # coefficient and standard error by its sample sd.
    lin = fit_linear(data)
    i_smoker = lin.names.index("smoker")
    ols_coef = float(lin.beta[i_smoker]) * sd_y
    ols_se = float(lin.se[i_smoker]) * sd_y
    ols_ok = abs(ols_coef - 23.849) <= 0.01 and abs(ols_se - 0.413) <= 0.01

    lam = 0.01
    config = FitConfig(n_restarts=10, seed=0)

    # Five-fold cross-validation, original response units.
    arch2 = Architecture(p=data.p, q=2)
    cv_net = cross_validate(arch2, data, lam, config, folds=5)
    cv_lin = cross_validate(None, data, lam, config, folds=5)
    cv_ok = (abs(cv_net.rmse - 4.634) <= 0.40
             and abs(cv_lin.rmse - 6.107) <= 0.30)

    # Width selection by BIC over 1..8 hidden nodes.
    sw = sweep(data, list(range(1, 9)), "gaussian", lam, config, cv=False)
    best_q = sw.best_bic().q
    bic_ok = best_q == 2

    # Covariate-level Wald tests at the 5% level.
    result = fit(arch2, data, lam, config)
    info = observed_information(result.theta_hat, data,
                                sigma_sq=result.sigma_sq_hat)
    cov = sandwich_covariance(info, lam)
    report = summarize(result, cov, arch2, data)
    observed = {row.name: row.mp_p_value < 0.05
                for row in report.covariates}
    expected = {"age": True, "bmi": True, "children": True, "smoker": True,
                "region.sw": True, "sex.male": False, "region.nw": False,
                "region.se": False}
    pattern_ok = observed == expected

    # Binary effect of smoking on the original response scale.
    j_smoker = names.index("smoker") + 1
    (curve,) = pce_curve(result.theta_hat, cov, data, j_smoker)
    point = curve.points[0]
    smoker_effect = point.beta_hat * sd_y
    pce_ok = abs(smoker_effect - 23.85) <= 1.5

    elapsed = time.perf_counter() - t0
    ok = (ols_ok and cv_ok and bic_ok and pattern_ok and pce_ok
          and elapsed < 600.0)
    detail = (f"OLS smoker {ols_coef:.3f} (23.849 +/- 0.01) "
              f"SE {ols_se:.3f} (0.413 +/- 0.01); CV RMSE net {cv_net.rmse:.3f} "
              f"(4.634 +/- 0.40) linear {cv_lin.rmse:.3f} (6.107 +/- 0.30); "
              f"BIC best width {best_q} (== 2); significance pattern "
              f"{'matches' if pattern_ok else f'differs: {observed}'}; "
              f"smoker effect {smoker_effect:.2f} (23.85 +/- 1.5); "
              f"{elapsed:.0f}s (< 600s)")
    assert _verdict(ok, "[7/10] insurance benchmark", detail), detail


# ---------------------------------------------------------------------------
# 8. Chi-square tail probabilities
# ---------------------------------------------------------------------------

def test_chi_square_survival_against_quadrature():
    dev_df2 = abs(chi_square_survival(4.0, 2.0) - math.exp(-2.0))
    got = chi_square_survival(3.841459, 1.0)
    dev_const = abs(got - 0.05)
    dev_quad = abs(got - survival_by_quadrature(3.841459, 1.0))
    mono_ok = True
    for df in (1.0, 2.0, 5.0):
        grid = np.linspace(1e-6, 40.0, 1000)
        vals = np.array([chi_square_survival(x, df) for x in grid])
        mono_ok = mono_ok and bool(np.all(np.diff(vals) <= 0.0))
    ok = (dev_df2 <= 1e-10 and dev_const <= 1e-6 and dev_quad <= 1e-6
          and mono_ok)
    detail = (f"survival(4, df=2) vs exp(-2) dev {dev_df2:.2e} (<= 1e-10), "
              f"survival(3.841459, df=1) vs 0.05 dev {dev_const:.2e} and vs "
              f"quadrature dev {dev_quad:.2e} (<= 1e-06), monotone on "
              f"1000-point grids {'yes' if mono_ok else 'NO'}")
    assert _verdict(ok, "[8/10] chi-square tail", detail), detail


# ---------------------------------------------------------------------------
# 9. Partial-effect curve properties
# ---------------------------------------------------------------------------

def test_partial_effect_structural_properties():
    t0 = time.perf_counter()
    arch = Architecture(p=3, q=2)
    rng = np.random.default_rng(909)
    x = rng.normal(size=(40, 3))
    meta = tuple(ColumnMeta(name=f"x{j}", kind="continuous")
                 for j in (1, 2, 3))
    data = Dataset(x=x, y=rng.normal(size=40), column_meta=meta)
    cov = CovarianceEstimate(sigma_hat=0.04 * np.eye(arch.r),
                             a_matrix=np.eye(arch.r))
    theta = ParamVector(arch, rng.uniform(-1.2, 1.2, arch.r))

    # A covariate with all-zero weights cannot move the prediction, so
    # its effect curve is identically zero.  (The delta-method band stays
    # positive: perturbing those weights away from zero would revive the
    # effect, and the band prices exactly that uncertainty.)
    dis_values = theta.values.copy()
    dis_values[arch.covariate_block(2)] = 0.0
    (curve_dis,) = pce_curve(ParamVector(arch, dis_values), cov, data, 2)
    dis_beta = max(abs(pt.beta_hat) for pt in curve_dis.points)
    dis_ok = dis_beta == 0.0

    # A zero step compares the prediction with itself.
    (curve_zero,) = pce_curve(theta, cov, data, 1, d=0.0)
    zero_ok = (max(abs(pt.beta_hat) for pt in curve_zero.points) == 0.0
               and max(pt.se for pt in curve_zero.points) == 0.0)

    # Delta-method gradient against finite differences of an independent
    # re-implementation of the averaged prediction, and the published
    # standard error against the quadratic form in that gradient.
    d, x0 = 0.8, 0.3
    x_lo = np.array(x)
    x_hi = np.array(x)
    x_lo[:, 0] = x0
    x_hi[:, 0] = x0 + d

    def beta_fn(values):
        return _nn_mean(arch, values, x_hi) - _nn_mean(arch, values, x_lo)

    g_analytic = (prediction_gradient(theta, x_hi).mean(axis=0)
                  - prediction_gradient(theta, x_lo).mean(axis=0))
    g_fd = fd_gradient(beta_fn, theta.values.copy())
    scale = np.maximum(np.abs(g_fd), 1.0)
    grad_err = float(np.max(np.abs(g_analytic - g_fd) / scale))
    (curve,) = pce_curve(theta, cov, data, 1, d=d, grid=np.array([x0]))
    point = curve.points[0]
    se_want = float(np.sqrt(g_analytic @ cov.sigma_hat @ g_analytic))
    beta_dev = abs(point.beta_hat - beta_fn(theta.values))
    se_dev = abs(point.se - se_want) / max(se_want, 1e-300)
    grad_ok = grad_err < 1e-5 and beta_dev <= 1e-12 and se_dev <= 1e-10

    # In an additive network (each hidden node fed by one covariate) the
    # effect of one covariate cannot depend on where another is pinned.
    theta_add = ParamVector.from_parts(
        arch, np.array([[0.2, -0.4], [1.3, 0.0], [0.0, 0.9], [0.0, 0.0]]),
        np.array([0.5, 2.0, -1.5]))
    lo, hi = pce_curve(theta_add, cov, data, 1, by=2)
    screen_dev = max(abs(a.beta_hat - b.beta_hat)
                     for a, b in zip(lo.points, hi.points))
    screen_ok = screen_dev <= 1e-12

    elapsed = time.perf_counter() - t0
    ok = dis_ok and zero_ok and grad_ok and screen_ok and elapsed < 60.0
    detail = (f"disconnected max |effect| {dis_beta:.1e} (== 0), "
              f"zero-step effect and se zero {'yes' if zero_ok else 'NO'}, "
              f"delta gradient rel err {grad_err:.2e} (< 1e-05) with se dev "
              f"{se_dev:.2e}, additive-screen dev {screen_dev:.2e} "
              f"(<= 1e-12), {elapsed:.1f}s (< 60s)")
    assert _verdict(ok, "[9/10] partial-effect properties", detail), detail


# ---------------------------------------------------------------------------
# 10. Byte-level determinism of the CLI
# ---------------------------------------------------------------------------

def test_byte_identical_outputs_across_runs_and_job_counts(tmp_path):
    rng = np.random.default_rng(404)
    n = 80
    x = rng.normal(size=(n, 3))
    y = x @ np.array([0.5, -0.25, 0.1]) + rng.normal(scale=0.5, size=n)
    rows = ["a,b,c,y"]
    rows += [f"{r[0]:.10g},{r[1]:.10g},{r[2]:.10g},{t:.10g}"
             for r, t in zip(x, y)]
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    model_a = tmp_path / "model_a.json"
    model_b = tmp_path / "model_b.json"
    for out in (model_a, model_b):
        rc = main(["fit", str(csv_path), "--response", "y", "--q", "2",
                   "--out", str(out), "--seed", "3", "--restarts", "4"])
        assert rc == 0
    fit_same = model_a.read_bytes() == model_b.read_bytes()

    scenario = SimScenario(q=2, nz_pattern="5-1", n=120, replicates=8,
                           restarts=3, seed=11)
    scn_path = tmp_path / "scenario.json"
    save_scenario(scenario, scn_path)
    out_dirs = [tmp_path / name for name in ("serial_a", "serial_b",
                                             "parallel")]
    for out_dir, jobs in zip(out_dirs, ("1", "1", "2")):
        rc = main(["simulate", str(scn_path), "--out-dir", str(out_dir),
                   "--jobs", jobs])
        assert rc == 0
    sim_same = all(
        (out_dirs[0] / name).read_bytes() == (other / name).read_bytes()
        for name in ("overview.csv", "estimates.csv", "rejections.csv")
        for other in out_dirs[1:])

    ok = fit_same and sim_same
    detail = (f"model JSON identical across reruns "
              f"({model_a.stat().st_size} bytes): "
              f"{'yes' if fit_same else 'NO'}; simulation CSVs identical "
              f"across reruns and 1 vs 2 workers: "
              f"{'yes' if sim_same else 'NO'}")
    assert _verdict(ok, "[10/10] determinism", detail), detail
