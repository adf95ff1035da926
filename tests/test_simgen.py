"""Simulation harness tests: truth patterns, determinism, aggregation."""

import dataclasses

import numpy as np
import pytest

from statnn.model import Architecture, ParamVector
from statnn.report import overview_csv, pd_csv
from statnn.seeds import derive_seed
from statnn.simgen import (ZERO_PATTERNS, SimReport, SimScenario,
                           _replicate_task, default_true_theta, generate,
                           run_grid, run_scenario)


def _tiny(**kw):
    base = dict(q=2, nz_pattern="5-1", n=60, replicates=8, restarts=2,
                seed=123, lam=0.01)
    base.update(kw)
    return SimScenario(**base)


def test_zero_patterns():
    assert ZERO_PATTERNS["5-1"] == (1,)
    assert ZERO_PATTERNS["3-3"] == (1, 3, 4)


@pytest.mark.parametrize("q", [2, 4, 6])
@pytest.mark.parametrize("pattern", ["5-1", "3-3"])
def test_default_truth_respects_pattern(q, pattern):
    theta = default_true_theta(q, pattern)
    arch = theta.arch
    assert arch.p == 6 and arch.q == q
    w, g = arch.split(theta.values)
    for j in ZERO_PATTERNS[pattern]:
        for k in range(1, q + 1):
            assert w[j, k - 1] == 0.0
    # untouched covariates stay connected
    active = set(range(1, 7)) - set(ZERO_PATTERNS[pattern])
    for j in active:
        assert any(w[j, k - 1] != 0.0 for k in range(1, q + 1))
    # output weights all nonzero so every node contributes
    assert all(g[k] != 0.0 for k in range(1, q + 1))


def test_default_truth_validation():
    with pytest.raises(ValueError):
        default_true_theta(3, "5-1")  # no default for q = 3
    with pytest.raises(ValueError):
        default_true_theta(2, "6-0")
    with pytest.raises(ValueError):
        default_true_theta(2, "5-1", p=4)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _tiny(nz_pattern="4-2")
    with pytest.raises(ValueError):
        _tiny(q=0)
    with pytest.raises(ValueError):
        _tiny(replicates=0)
    with pytest.raises(ValueError):
        _tiny(noise_sd=0.0)
    wrong_arch = ParamVector(Architecture(p=6, q=3), np.zeros(25))
    with pytest.raises(ValueError):
        _tiny(true_theta=wrong_arch)
    # without a truth of its own a scenario needs a default one
    with pytest.raises(ValueError, match="default truth is defined for q"):
        _tiny(q=3)
    with pytest.raises(ValueError, match="default truth is defined for p"):
        _tiny(p=4)
    assert _tiny(q=3, true_theta=wrong_arch).arch == Architecture(p=6, q=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scenario_refuses_non_finite_truth(bad):
    """A truth with a non-finite weight is refused by name, not deep in a
    replicate's data or in the alignment of its first fit."""
    values = default_true_theta(2, "5-1").values.copy()
    values[3] = bad
    with pytest.raises(ValueError,
                       match="^true_theta contains non-finite entries$"):
        _tiny(true_theta=ParamVector(Architecture(p=6, q=2), values))


def test_generate_deterministic():
    scen = _tiny()
    a = generate(scen, 3)
    b = generate(scen, 3)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_generate_varies_with_replicate_and_seed():
    scen = _tiny()
    a = generate(scen, 0)
    b = generate(scen, 1)
    c = generate(_tiny(seed=124), 0)
    assert not np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_generate_shapes_and_model():
    """y equals the network surface at the truth plus noise of the stated
    scale (checked loosely via residual sd)."""
    from statnn.model import Dataset, forward_batch

    scen = _tiny(n=4000, noise_sd=0.7)
    data = generate(scen, 0)
    assert data.x.shape == (4000, 6)
    truth = scen.resolved_truth()
    mu = forward_batch(truth, Dataset(x=data.x, y=data.y))
    resid_sd = float(np.std(data.y - mu))
    assert resid_sd == pytest.approx(0.7, rel=0.05)


def test_generate_rejects_negative_replicate():
    with pytest.raises(ValueError):
        generate(_tiny(), -1)


def test_run_scenario_aggregates():
    scen = _tiny()
    rep = run_scenario(scen)
    r = Architecture(p=6, q=2).r
    assert rep.n_total == 8
    assert 0 <= rep.n_fit_failed <= 8
    assert 0 <= rep.n_pd <= 8
    assert rep.mean_estimate.shape == (r,)
    assert rep.emp_se.shape == (r,)
    assert rep.see.shape == (r,)
    assert rep.coverage.shape == (r,)
    assert rep.sp_rejection.shape == (r,)
    assert rep.mp_rejection.shape == (6,)
    np.testing.assert_array_equal(rep.true_values,
                                  scen.resolved_truth().values)
    assert 0.0 <= rep.pd_rate <= 1.0
    ok = np.isfinite(rep.sp_rejection)
    assert np.all(rep.sp_rejection[ok] >= 0.0)
    assert np.all(rep.sp_rejection[ok] <= 1.0)


def test_a_diverged_estimate_counts_as_a_failed_fit(monkeypatch):
    """An unpenalized over-wide fit can run towards a limit at infinity:
    two hidden units merge and their output weights grow without bound,
    with a finite likelihood.  Such a replicate counts as a failed fit,
    and the study goes on to the next one."""
    import importlib

    fit_module = importlib.import_module("statnn.fit")
    real, calls = fit_module._run_restart, []

    def run(obj, x0):
        calls.append(x0)
        if len(calls) > 1:
            return real(obj, x0)
        theta = x0.copy()               # unit 2 a copy of unit 1
        for j in range(obj.arch.p + 1):
            theta[j * 2 + 1] = theta[j * 2]
        theta[(obj.arch.p + 1) * 2 + 1:] = (5e158, -5e158)
        return theta, 1

    monkeypatch.setattr(fit_module, "_run_restart", run)
    rep = run_scenario(_tiny(replicates=3, restarts=1, lam=0.0))
    assert rep.n_total == 3 and rep.n_fit_failed == 1
    assert np.all(np.isfinite(rep.mean_estimate))


def test_an_unconverged_replicate_is_not_tested(monkeypatch):
    """Wald tests are inference at an optimum.  A replicate whose winning
    restart stopped short of convergence keeps its estimate, flag and
    iteration count, but gets no SE, coverage or Wald test and is not
    counted PD, although its covariance here is positive definite."""
    import importlib

    from statnn.fit import FitConfig, fit
    from statnn.inference import sandwich_covariance
    from statnn.likelihood import observed_information

    fit_module = importlib.import_module("statnn.fit")
    real = fit_module._run_restart

    def stopped_short(obj, x0):
        x, nit = real(obj, x0)
        return x + 1e-4, nit

    monkeypatch.setattr(fit_module, "_run_restart", stopped_short)
    scen = _tiny(n=200, replicates=3, restarts=1)
    for i in range(scen.replicates):
        outcome = _replicate_task((scen, i))
        assert outcome.fit_ok and not outcome.converged
        assert not outcome.pd_ok
        assert outcome.iterations > 0
        assert np.all(np.isfinite(outcome.estimate))
        for values in (outcome.se, outcome.covered, outcome.sp_p,
                       outcome.mp_p):
            assert np.all(np.isnan(values))
        data = generate(scen, i)
        res = fit(scen.arch, data, scen.lam,
                  FitConfig(n_restarts=1, seed=derive_seed(scen.seed, i, 1)))
        sandwich_covariance(observed_information(
            res.theta_hat, data, sigma_sq=res.sigma_sq_hat), scen.lam)
    rep = run_scenario(scen)
    assert rep.n_fit_failed == 0 and rep.n_converged == 0 and rep.n_pd == 0
    assert np.all(rep.sp_rejection == 0.0) and np.all(rep.mp_rejection == 0.0)
    assert np.all(np.isnan(rep.see)) and np.all(np.isnan(rep.coverage))
    assert np.all(np.isfinite(rep.mean_estimate))


def test_run_scenario_deterministic():
    scen = _tiny(seed=7)
    a = run_scenario(scen)
    b = run_scenario(scen)
    np.testing.assert_array_equal(a.mean_estimate, b.mean_estimate)
    np.testing.assert_array_equal(a.sp_rejection, b.sp_rejection)
    np.testing.assert_array_equal(a.coverage, b.coverage)


def test_run_scenario_serial_matches_parallel():
    """Two worker processes must reproduce the serial run bit for bit."""
    scen = _tiny(seed=11)
    serial = run_scenario(scen, n_jobs=1)
    parallel = run_scenario(scen, n_jobs=2)
    np.testing.assert_array_equal(serial.mean_estimate,
                                  parallel.mean_estimate)
    np.testing.assert_array_equal(serial.emp_se, parallel.emp_se)
    np.testing.assert_array_equal(serial.see, parallel.see)
    np.testing.assert_array_equal(serial.coverage, parallel.coverage)
    np.testing.assert_array_equal(serial.sp_rejection, parallel.sp_rejection)
    np.testing.assert_array_equal(serial.mp_rejection, parallel.mp_rejection)
    assert serial.n_pd == parallel.n_pd
    assert serial.n_fit_failed == parallel.n_fit_failed
    assert serial.iterations == parallel.iterations > 0


def test_rate_accessors_match_arrays():
    scen = _tiny(seed=21)
    rep = run_scenario(scen)
    arch = Architecture(p=6, q=2)
    assert rep.sp_rate(2, 1) == rep.sp_rejection[arch.omega_index(2, 1)]
    assert rep.mp_rate(3) == rep.mp_rejection[2]


def test_wald_tests_only_on_positive_definite_replicates():
    """Unpenalized at n = 60, most replicates have no positive definite
    covariance.  Such a replicate keeps its estimate but has no SE,
    coverage or Wald test, so no rejection rate exceeds the PD rate."""
    scen = _tiny(lam=0.0, replicates=20, seed=7)
    rep = run_scenario(scen)
    assert rep.n_fit_failed == 0
    assert 0 < rep.n_pd < rep.n_total
    assert np.all(rep.sp_rejection <= rep.pd_rate)
    assert np.all(rep.mp_rejection <= rep.pd_rate)
    outcome = next(o for o in (_replicate_task((scen, i))
                               for i in range(scen.replicates))
                   if not o.pd_ok)
    assert outcome.fit_ok
    assert np.all(np.isfinite(outcome.estimate))
    for values in (outcome.se, outcome.covered, outcome.sp_p, outcome.mp_p):
        assert np.all(np.isnan(values))


def test_estimates_aligned_to_truth():
    """With decent n the aligned mean estimate sits near the truth for a
    well-identified weight (omega_31, a large entry)."""
    scen = _tiny(n=500, replicates=6, restarts=4, seed=31)
    rep = run_scenario(scen)
    arch = Architecture(p=6, q=2)
    idx = arch.omega_index(3, 1)
    assert rep.n_fit_failed == 0
    assert abs(rep.mean_estimate[idx] - rep.true_values[idx]) < 0.5


def test_power_sweep_reuses_draws_and_orders_points():
    scen = _tiny(n=200, replicates=6, restarts=2, seed=41)
    points = run_grid(scen, effect=[0.0, 0.6])
    assert isinstance(points, tuple)
    assert all(isinstance(pt, SimReport) for pt in points)
    assert [pt.effect for pt in points] == [0.0, 0.6]
    for pt in points:
        assert 0.0 <= pt.sp_rate(2, 1) <= 1.0
        assert 0.0 <= pt.mp_rate(2) <= 1.0
        assert 0.0 <= pt.pd_rate <= 1.0
        # the effect sets every weight of covariate 2 and nothing else
        np.testing.assert_array_equal(
            pt.scenario.true_theta.values[pt.scenario.arch.covariate_block(2)],
            pt.effect)
    # the effect never enters the seed: both points see the same draws
    assert points[0].scenario.seed == points[1].scenario.seed == derive_seed(
        41, 0, 0, 2)
    np.testing.assert_array_equal(generate(points[0].scenario, 3).x,
                                  generate(points[1].scenario, 3).x)
    # a strong effect should not be less detectable than a null one
    assert points[1].mp_rate(2) >= points[0].mp_rate(2)


def test_power_sweep_zero_effect_disconnects_covariate():
    """Power at effect 0 equals a run whose truth zeroes covariate 2."""
    from dataclasses import replace

    scen = _tiny(seed=51)
    base = scen.resolved_truth()
    omega, gamma = base.arch.split(base.values)
    omega = omega.copy()
    omega[2] = 0.0
    want = ParamVector.from_parts(base.arch, omega, gamma)
    direct = run_scenario(replace(scen, true_theta=want,
                                  seed=derive_seed(51, 0, 0, 2)))
    (point,) = run_grid(scen, effect=[0.0])
    assert point.mp_rate(2) == direct.mp_rate(2)
    assert point.sp_rate(2, 1) == direct.sp_rate(2, 1)
    assert overview_csv(point) == overview_csv(direct)


def test_pd_study_grid_order_and_fields():
    cells = run_grid(SimScenario(q=2, nz_pattern="5-1", n=50, replicates=4,
                                 restarts=1, seed=61),
                     lam=[0.0, 0.01], n=[50, 80])
    assert len(cells) == 4
    assert [(c.scenario.lam, c.scenario.n) for c in cells] == [
        (0.0, 50), (0.0, 80), (0.01, 50), (0.01, 80)]
    for c in cells:
        assert isinstance(c, SimReport)
        assert 0.0 <= c.pd_rate <= 1.0
        assert c.n_total == 4
        assert c.scenario.q == 2 and c.scenario.nz_pattern == "5-1"
        assert c.scenario.true_theta is None


def test_pd_study_cell_seeds():
    """Cell (li, ni) is the scenario run seeded derive_seed(seed, li, ni, 2)."""
    cells = run_grid(SimScenario(q=2, nz_pattern="3-3", n=40, noise_sd=0.5,
                                 replicates=2, restarts=1, seed=81),
                     lam=[0.0, 0.01], n=[40, 60])
    for li, lam in enumerate([0.0, 0.01]):
        for ni, n in enumerate([40, 60]):
            want = run_scenario(SimScenario(
                q=2, nz_pattern="3-3", n=n, lam=lam, noise_sd=0.5,
                replicates=2, restarts=1, seed=derive_seed(81, li, ni, 2)))
            assert (overview_csv(cells[2 * li + ni])
                    == overview_csv(want)), (li, ni)


def test_grid_cells_lambda_n_effect_order():
    """Cells run lambda-major, then n, then effect; a missing axis keeps
    the scenario's value, and effect cells share their (lambda, n) seed."""
    scen = _tiny(n=30, replicates=1, restarts=1, seed=91, lam=0.5)
    cells = run_grid(scen, n=[30, 40], effect=[0.0, 0.3])
    assert [(c.scenario.lam, c.scenario.n, c.effect) for c in cells] == [
        (0.5, 30, 0.0), (0.5, 30, 0.3), (0.5, 40, 0.0), (0.5, 40, 0.3)]
    assert [c.scenario.seed for c in cells] == [
        derive_seed(91, 0, ni, 2) for ni in (0, 0, 1, 1)]
    (bare,) = run_grid(scen)
    assert bare.scenario == dataclasses.replace(scen,
                                                seed=derive_seed(91, 0, 0, 2))


def test_grid_runs_all_cells_in_one_task_pool(monkeypatch):
    """Every replicate of every cell goes through one _run_tasks call, so
    a parallel grid starts its workers once, not once per cell."""
    from statnn import simgen

    calls = []
    real = simgen._run_tasks

    def counting(task_fn, args_list, n_jobs):
        calls.append(len(args_list))
        return real(task_fn, args_list, n_jobs)

    monkeypatch.setattr(simgen, "_run_tasks", counting)
    cells = run_grid(_tiny(n=30, replicates=2, restarts=1, seed=95),
                     lam=[0.0, 0.01], n=[30, 40])
    assert calls == [8]
    assert [c.n_total for c in cells] == [2, 2, 2, 2]


def test_pd_study_deterministic():
    scen = SimScenario(q=2, nz_pattern="5-1", n=60, lam=0.01, replicates=4,
                       restarts=1, seed=71)
    first, second = (run_grid(scen, lam=[0.01], n=[60]) for _ in range(2))
    assert pd_csv(first) == pd_csv(second)
    assert [c.iterations for c in first] == [c.iterations for c in second]
