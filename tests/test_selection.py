"""Model-selection tests: OLS baseline, BIC, cross-validation, sweep."""

import csv
import json
import math
import pathlib

import numpy as np
import pytest

from statnn.exceptions import DataError, FitError
from statnn.fit import FitConfig, fit
from statnn.likelihood import penalty
from statnn.model import Architecture, ColumnMeta, Dataset, forward_batch
from statnn.selection import (CvResult, SelectionSweep, SweepEntry, bic,
                              cross_validate, fit_linear, linear_bic, sweep)


def _linear_data(seed=100, n=80, p=3, sd=0.5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    beta = np.array([1.5] + [((-1) ** j) * (j + 1) * 0.5 for j in range(p)])
    y = beta[0] + x @ beta[1:] + sd * rng.normal(size=n)
    metas = tuple(ColumnMeta(f"x{j + 1}", kind="continuous", mean=0.0, sd=1.0)
                  for j in range(p))
    return Dataset(x=x, y=y, column_meta=metas,
                   response_meta=ColumnMeta("y", "continuous", 0.0, 1.0)), beta


def test_ols_matches_normal_equations():
    """Pivoted-QR solution equals the closed-form normal-equation solve."""
    data, _ = _linear_data()
    linear = fit_linear(data)
    x1 = np.column_stack([np.ones(data.n), data.x])
    beta_ne = np.linalg.solve(x1.T @ x1, x1.T @ data.y)
    np.testing.assert_allclose(linear.beta, beta_ne, rtol=1e-10)
    res = data.y - x1 @ beta_ne
    assert linear.rss == pytest.approx(float(res @ res), rel=1e-10)
    k = x1.shape[1]
    sigma_sq = linear.rss / (data.n - k)
    assert linear.sigma_sq == pytest.approx(sigma_sq, rel=1e-12)
    cov = sigma_sq * np.linalg.inv(x1.T @ x1)
    np.testing.assert_allclose(linear.se, np.sqrt(np.diag(cov)), rtol=1e-9)


def test_ols_recovers_coefficients():
    data, beta = _linear_data(sd=0.05, n=400)
    linear = fit_linear(data)
    np.testing.assert_allclose(linear.beta, beta, atol=0.02)
    assert linear.names[0] == "intercept"
    assert linear.names[1:] == ("x1", "x2", "x3")


def test_ols_p_values_two_sided_normal():
    data, _ = _linear_data()
    linear = fit_linear(data)
    for b, s, p in zip(linear.beta, linear.se, linear.p_values):
        want = math.erfc(abs(b / s) / math.sqrt(2.0))
        assert p == pytest.approx(want, rel=1e-12)


def test_ols_loglik_value():
    data, _ = _linear_data()
    linear = fit_linear(data)
    n = data.n
    sigma_mle = linear.rss / n
    want = -0.5 * n * (math.log(2 * math.pi) + math.log(sigma_mle) + 1.0)
    assert linear.loglik == pytest.approx(want, rel=1e-12)


def test_ols_rejects_collinear_design():
    rng = np.random.default_rng(101)
    x = rng.normal(size=(50, 2))
    x = np.column_stack([x, x[:, 0] * 2.0])  # exact copy up to scale
    data = Dataset(x=x, y=rng.normal(size=50),
                   column_meta=tuple(ColumnMeta(f"x{j + 1}") for j in range(3)))
    with pytest.raises(DataError, match="collinear"):
        fit_linear(data)


def test_ols_needs_more_rows_than_columns():
    data = Dataset(x=np.eye(3), y=np.zeros(3),
                   column_meta=tuple(ColumnMeta(f"x{j}") for j in range(3)))
    with pytest.raises(DataError):
        fit_linear(data)


def test_bic_formula():
    """BIC strips the ridge term and counts r + 1 parameters (Gaussian)."""
    data, _ = _linear_data(n=120)
    arch = Architecture(p=3, q=2)
    lam = 0.05
    result = fit(arch, data, lam, FitConfig(n_restarts=2, seed=5))
    unpen = result.loglik + penalty(result.theta_hat, result.lam)
    want = -2.0 * unpen + (arch.r + 1) * math.log(data.n)
    assert bic(result, data.n) == pytest.approx(want, rel=1e-12)


def test_linear_bic_formula():
    data, _ = _linear_data(n=90)
    linear = fit_linear(data)
    want = -2.0 * linear.loglik + (len(linear.beta) + 1) * math.log(data.n)
    assert linear_bic(linear) == pytest.approx(want, rel=1e-12)


def test_bic_prefers_true_linear_model():
    """On linear data the q = 0 baseline should beat a width-2 network."""
    data, _ = _linear_data(seed=102, n=150, sd=0.3)
    result = sweep(data, [0, 2], "gaussian", 0.01,
                   FitConfig(n_restarts=3, seed=6), cv=False)
    assert result.best_bic().q == 0


def test_cv_deterministic_given_seed():
    data, _ = _linear_data(seed=103, n=60)
    lam = 0.01
    arch = Architecture(p=3, q=1)
    config = FitConfig(n_restarts=2, seed=7)
    a = cross_validate(arch, data, lam, config, folds=4)
    b = cross_validate(arch, data, lam, config, folds=4)
    assert a.fold_rmses == b.fold_rmses
    assert a.rmse == b.rmse and a.se == b.se


def test_cv_statistics_derive_from_folds():
    data, _ = _linear_data(seed=104, n=60)
    res = cross_validate(None, data, 0.0, FitConfig(seed=8), folds=5)
    assert len(res.fold_rmses) == 5
    assert res.rmse == pytest.approx(float(np.mean(res.fold_rmses)), rel=1e-12)
    assert res.se == pytest.approx(
        float(np.std(res.fold_rmses, ddof=1)) / math.sqrt(5), rel=1e-12)


def test_cv_scores_on_original_response_scale():
    """Standardizing the stored response must not change the reported RMSE."""
    data, _ = _linear_data(seed=105, n=60, sd=0.4)
    my, sy = float(np.mean(data.y)), float(np.std(data.y, ddof=1))
    std = Dataset(x=data.x, y=(data.y - my) / sy, column_meta=data.column_meta,
                  response_meta=ColumnMeta("y", "continuous", my, sy))
    lam = 0.0
    a = cross_validate(None, data, lam, FitConfig(seed=9), folds=4)
    b = cross_validate(None, std, lam, FitConfig(seed=9), folds=4)
    assert a.rmse == pytest.approx(b.rmse, rel=1e-9)


def test_cv_baseline_close_to_noise_level():
    data, _ = _linear_data(seed=106, n=200, sd=0.5)
    res = cross_validate(None, data, 0.0, FitConfig(seed=10), folds=5)
    assert res.rmse == pytest.approx(0.5, rel=0.25)


def test_cv_fold_count_validation():
    data, _ = _linear_data(n=10)
    with pytest.raises(ValueError):
        cross_validate(None, data, 0.0, folds=1)
    with pytest.raises(DataError):
        cross_validate(None, data, 0.0, folds=11)


def test_sweep_entries_and_orders():
    data, _ = _linear_data(seed=107, n=120, sd=0.3)
    result = sweep(data, [0, 1, 2], "gaussian", 0.01,
                   FitConfig(n_restarts=2, seed=11), folds=4)
    assert isinstance(result, SelectionSweep)
    assert [e.q for e in result.entries] == [0, 1, 2]
    for e in result.entries:
        assert e.error is None
        assert e.bic is not None and e.cv_rmse is not None and e.cv_se is not None
    best = result.best_cv()
    assert best.cv_rmse == min(e.cv_rmse for e in result.entries)


def test_sweep_without_cv():
    data, _ = _linear_data(seed=108, n=80)
    result = sweep(data, [0, 1], "gaussian", 0.01,
                   FitConfig(n_restarts=2, seed=12), cv=False)
    for e in result.entries:
        assert e.cv_rmse is None and e.cv_se is None
        assert e.bic is not None
    with pytest.raises(FitError):
        result.best_cv()


def test_sweep_negative_width_rejected():
    data, _ = _linear_data(n=40)
    with pytest.raises(ValueError):
        sweep(data, [-1], "gaussian", 0.0, cv=False)


def test_sweep_checks_family_and_lambda_before_any_candidate():
    """The linear baseline alone builds no network, so the sweep checks
    the family and the ridge penalty itself."""
    data, _ = _linear_data(n=40)
    with pytest.raises(ValueError, match="family"):
        sweep(data, [0], "poisson", 0.0, cv=False)
    with pytest.raises(ValueError, match="ridge penalty"):
        sweep(data, [0], "gaussian", float("nan"), cv=False)


def _forbid_fits(monkeypatch):
    """Make every network or OLS fit the sweep starts fail the test."""
    import statnn.selection as selection

    def fitted(*args, **kwargs):
        raise AssertionError("the sweep fitted before refusing its input")

    monkeypatch.setattr(selection, "fit", fitted)
    monkeypatch.setattr(selection, "fit_linear", fitted)


def test_sweep_refuses_a_non_binary_bernoulli_response_before_any_fit(
        monkeypatch):
    """A response the family cannot model is the data's error, named
    with its row, not a failure of every candidate."""
    _forbid_fits(monkeypatch)
    data, _ = _linear_data(n=40)
    y = np.where(data.y > 0.0, 1.0, 0.0)
    y[6] = 0.5
    data = Dataset(data.x, y, data.column_meta, data.response_meta)
    with pytest.raises(DataError, match=r"'y' must be 0/1.* row 7 holds 0\.5"):
        sweep(data, [0, 1, 2], "bernoulli", 0.01, FitConfig(n_restarts=1),
              folds=3)


def test_sweep_refuses_a_bernoulli_baseline_alone_before_any_fit(
        monkeypatch):
    """The linear baseline has no BIC beside Bernoulli networks, so a
    Bernoulli sweep of width 0 alone has nothing to rank."""
    _forbid_fits(monkeypatch)
    data, _ = _linear_data(n=40)
    data = Dataset(data.x, np.where(data.y > 0.0, 1.0, 0.0),
                   data.column_meta, data.response_meta)
    for cv in (False, True):
        with pytest.raises(DataError, match="width >= 1"):
            sweep(data, [0], "bernoulli", 0.01, cv=cv, folds=3)


def test_sweep_records_candidate_failure():
    """A failing candidate is recorded in its entry, not raised: here the
    collinear design sinks the OLS baseline while the network survives."""
    rng = np.random.default_rng(109)
    base = rng.normal(size=(40, 2))
    x = np.column_stack([base, 2.0 * base[:, 0]])
    data = Dataset(x=x, y=rng.normal(size=40),
                   column_meta=(ColumnMeta("x1"), ColumnMeta("x2"),
                                ColumnMeta("x3")),
                   response_meta=ColumnMeta("y"))
    result = sweep(data, [0, 1], "gaussian", 0.01,
                   FitConfig(n_restarts=1, seed=13), cv=False)
    assert result.entries[0].error is not None
    assert "collinear" in result.entries[0].error
    assert result.entries[0].bic is None
    assert result.entries[1].error is None
    assert result.best_bic().q == 1


def test_sweep_keeps_the_bic_when_cv_fails(monkeypatch):
    """A failure in a candidate's cross-validation costs it its CV score
    and is recorded, but its BIC stands; the bernoulli baseline's note on
    its missing BIC stays beside the CV failure."""
    import statnn.selection as selection

    def fail(*args, **kwargs):
        raise FitError("cross-validation fold 1 failed: all restarts failed")

    monkeypatch.setattr(selection, "cross_validate", fail)
    rng = np.random.default_rng(111)
    x = rng.normal(size=(40, 2))
    meta = (ColumnMeta("x1"), ColumnMeta("x2"))
    data = Dataset(x=x, y=rng.normal(size=40), column_meta=meta,
                   response_meta=ColumnMeta("y"))
    result = sweep(data, [0, 1], "gaussian", 0.01,
                   FitConfig(n_restarts=1, seed=13), folds=4)
    for entry in result.entries:
        assert entry.bic is not None and np.isfinite(entry.bic)
        assert entry.cv_rmse is None and entry.cv_se is None
        assert "fold 1 failed" in entry.error
    binary = Dataset(x=x, y=(x[:, 0] + rng.normal(size=40) > 0).astype(float),
                     column_meta=meta, response_meta=ColumnMeta("y"))
    linear, net = sweep(binary, [0, 1], "bernoulli", 0.01,
                        FitConfig(n_restarts=1, seed=13), folds=4).entries
    assert linear.bic is None
    assert linear.error.startswith("no BIC") and "fold 1 failed" in linear.error
    assert net.bic is not None and "fold 1 failed" in net.error


def test_sweep_checks_fold_preprocessing_before_any_fit(monkeypatch):
    """A column constant on one fold's training rows fails every width
    alike, so the sweep raises before it fits anything."""
    import statnn.selection as selection

    calls = []
    monkeypatch.setattr(selection, "fit",
                        lambda *args, **kwargs: calls.append(args))
    x = np.column_stack([[1.0, 1.0, 1.0, 2.0, 1.0],
                         [0.5, -1.0, 2.0, 0.1, -0.4]])
    meta = (ColumnMeta("x", mean=1.2, sd=0.4), ColumnMeta("z"))
    data = Dataset(x=(x - [1.2, 0.0]) / [0.4, 1.0],
                   y=np.array([1.2, 0.3, 2.1, 0.9, -0.5]), column_meta=meta,
                   response_meta=ColumnMeta("y"))
    with pytest.raises(DataError, match="cross-validation fold .*'x'"):
        sweep(data, [1, 2], "gaussian", 0.01, FitConfig(n_restarts=2),
              folds=5)
    assert calls == []


def test_sweep_nonlinear_data_prefers_network():
    """A genuinely nonlinear surface puts the baseline behind the nets."""
    from statnn.model import ParamVector

    rng = np.random.default_rng(110)
    arch = Architecture(p=2, q=2)
    truth = (ParamVector.zeros(arch)
             .with_omega(0, 1, 1.7).with_omega(1, 1, 1.2)
             .with_omega(2, 1, -0.8)
             .with_omega(0, 2, -1.5).with_omega(1, 2, -0.9)
             .with_omega(2, 2, 1.1)
             .with_gamma(0, 0.3).with_gamma(1, 4.5).with_gamma(2, -4.0))
    x = rng.normal(size=(300, 2))
    mu = forward_batch(truth, Dataset(x=x, y=np.zeros(300)))
    y = mu + 0.2 * rng.normal(size=300)
    data = Dataset(x=x, y=y,
                   column_meta=(ColumnMeta("x1", "continuous", 0.0, 1.0),
                                ColumnMeta("x2", "continuous", 0.0, 1.0)),
                   response_meta=ColumnMeta("y", "continuous", 0.0, 1.0))
    result = sweep(data, [0, 2], "gaussian", 0.01,
                   FitConfig(n_restarts=4, seed=14), cv=False)
    assert result.best_bic().q == 2


def test_sweep_bernoulli_baseline_has_no_bic():
    """The OLS baseline's log-likelihood is Gaussian, so it is not ranked
    against Bernoulli network BICs; its CV RMSE still is, and the entry
    says why the BIC is missing."""
    from statnn.report import sweep_csv

    rng = np.random.default_rng(111)
    x = rng.normal(size=(90, 2))
    y = (rng.uniform(size=90) < 1.0 / (1.0 + np.exp(-2.0 * x[:, 0])))
    data = Dataset(x=x, y=y.astype(float),
                   column_meta=(ColumnMeta("x1"), ColumnMeta("x2")),
                   response_meta=ColumnMeta("y", "dummy"))
    result = sweep(data, [0, 1], "bernoulli", 0.01,
                   FitConfig(n_restarts=2, seed=15), folds=3)
    baseline, net = result.entries
    assert baseline.bic is None
    assert "Gaussian" in baseline.error and "bernoulli" in baseline.error
    assert baseline.cv_rmse is not None and baseline.cv_se is not None
    assert net.bic is not None and net.error is None
    assert result.best_bic().q == 1
    row = sweep_csv(result).splitlines()[1].split(",")
    assert row[:2] == ["0", "NA"] and row[2] != "NA"


def test_cv_folds_repeat_the_fits_preprocessing(tmp_path, monkeypatch):
    """A schema passthrough column and response reach every fold's fit
    in CSV units, as they reach ``fit``; only the standardized column is
    re-standardized, with training-fold statistics."""
    import statnn.selection as selection
    from statnn.preprocess import ingest

    rng = np.random.default_rng(112)
    n = 60
    x1 = 50.0 + 10.0 * rng.normal(size=n)
    x4 = 100.0 + 30.0 * rng.normal(size=n)
    y = 0.05 * x1 - 0.02 * x4 + 0.5 * rng.normal(size=n)
    path = tmp_path / "table.csv"
    path.write_text("x1,x4,y\n" + "".join(
        f"{a:.6f},{b:.6f},{c:.6f}\n" for a, b, c in zip(x1, x4, y)))
    schema = {"columns": {"x4": "passthrough"},
              "response_action": "passthrough"}
    data, _plan = ingest(str(path), "y", schema)
    x1_meta, x4_meta = data.column_meta
    assert (x4_meta.mean, x4_meta.sd) == (0.0, 1.0)
    x1_raw = data.x[:, 0] * x1_meta.sd + x1_meta.mean

    seen = []
    real_fit, real_linear = selection.fit, selection.fit_linear

    def spy_fit(arch, train, lam, config):
        seen.append(train)
        return real_fit(arch, train, lam, config)

    def spy_linear(train):
        seen.append(train)
        return real_linear(train)

    monkeypatch.setattr(selection, "fit", spy_fit)
    monkeypatch.setattr(selection, "fit_linear", spy_linear)
    config = FitConfig(n_restarts=1, seed=16)
    lam = 0.01
    for arch in (None, Architecture(p=2, q=1)):
        seen.clear()
        cross_validate(arch, data, lam, config, folds=3)
        assert len(seen) == 3
        for train, test_idx in zip(seen, selection._fold_indices(
                n, 3, config.seed)):
            rows = np.setdiff1d(np.arange(n), test_idx)
            np.testing.assert_array_equal(train.x[:, 1], data.x[rows, 1])
            np.testing.assert_array_equal(train.y, data.y[rows])
            assert train.column_meta[1] == x4_meta
            assert train.response_meta == data.response_meta
            meta = train.column_meta[0]
            assert meta.mean == float(np.mean(x1_raw[rows]))
            assert meta.sd == float(np.std(x1_raw[rows], ddof=1))
            np.testing.assert_allclose(train.x[:, 0] * meta.sd + meta.mean,
                                       x1_raw[rows], rtol=1e-12)


def test_raw_scale_columns_start_in_their_own_units(tmp_path, monkeypatch):
    """Restarts start in the fit's own column units, so columns passed
    through in CSV units do not stall the search.  On a perfbench table
    with x4 (sd 30, mean 100) and y passed through, two restarts per fold
    find the q = 2 fit (CV RMSE 0.5314, as with 10 restarts; 0.7947 and
    a best CV width of 1 with starts drawn in CSV units), and ten
    full-data restarts reach the -209.92 optimum and converge (the
    profiled search from starts in CSV units never reached it: its best
    was -312.05, gradient max-norm 1e-2)."""
    from statnn.cli import main
    from statnn.preprocess import ingest

    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from inputs import write_table

    table, schema_path = tmp_path / "t.csv", tmp_path / "schema.json"
    sweep_path = tmp_path / "sweep.csv"
    write_table(table, 300, 7)
    schema = {"columns": {"x4": "passthrough"},
              "response_action": "passthrough"}
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    assert main(["select", str(table), "--response", "y", "--q-max", "2",
                 "--folds", "3", "--restarts", "2", "--seed", "0",
                 "--schema", str(schema_path), "--out",
                 str(sweep_path)]) == 0
    with open(sweep_path, encoding="utf-8") as fh:
        rmse = {int(row["q"]): float(row["cv_rmse"])
                for row in csv.DictReader(fh)}
    assert rmse[2] == pytest.approx(0.531394, rel=1e-5)
    assert min(rmse, key=rmse.get) == 2
    data, _ = ingest(str(table), "y", schema)
    result = fit(Architecture(p=data.p, q=2), data, 0.01,
                 FitConfig(n_restarts=10, seed=0))
    assert result.loglik == pytest.approx(-209.918279, rel=1e-8)
    assert result.converged
