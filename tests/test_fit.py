"""Optimizer tests: recovery, stationarity, determinism, restart choice,
evaluate_at."""

import importlib
import pathlib

import numpy as np
import pytest

from statnn import seeds
from statnn.canonical import canonicalize
from statnn.exceptions import DataError, FitError
from statnn.fit import (POLISH_TOL, RESTART_CONFIRMATIONS, THETA_TOL,
                        TIE_RTOL, FitConfig, evaluate_at, fit, initialize)
from statnn.likelihood import _Evaluator, gradient, log_likelihood
from statnn.model import Architecture, Dataset, ParamVector, forward_batch
from statnn.simgen import SimScenario, _replicate_task, generate

# The package rebinds the name ``statnn.fit`` to the function.
fit_module = importlib.import_module("statnn.fit")


def _gaussian_data(arch, theta, n, seed, noise_sd=0.05):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, arch.p))
    mu = forward_batch(theta, Dataset(x=x, y=np.zeros(n)))
    y = mu + noise_sd * rng.normal(size=n)
    return Dataset(x=x, y=y)


def _true_theta(arch, seed=7):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.5, 1.5, arch.r)
    # keep output weights well away from zero so nodes are identified
    for k in range(1, arch.q + 1):
        idx = arch.gamma_index(k)
        values[idx] = (2.0 + k) * (1 if k % 2 else -1)
    return canonicalize(ParamVector(arch, values))


def test_fit_recovers_generating_function():
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 400, seed=40)
    lam = 0.0
    result = fit(arch, data, lam, FitConfig(n_restarts=6, seed=1))
    assert result.converged
    fitted = forward_batch(result.theta_hat, data)
    target = forward_batch(truth, data)
    rmse = float(np.sqrt(np.mean((fitted - target) ** 2)))
    assert rmse < 0.05  # function recovered to well under the noise level
    assert result.sigma_sq_hat == pytest.approx(0.05 ** 2, rel=0.5)


def test_fit_satisfies_stationarity():
    """Reported grad_max is a true profile-gradient max-norm at the optimum."""
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 150, seed=41)
    lam = 0.01
    result = fit(arch, data, lam, FitConfig(n_restarts=4, seed=2))
    g = gradient(result.theta_hat, data, lam, sigma_sq=1.0)
    assert np.max(np.abs(g)) == pytest.approx(result.grad_max, rel=1e-8)
    assert result.grad_max <= POLISH_TOL


def test_fit_returns_canonical_theta():
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 150, seed=42)
    result = fit(arch, data, lam=0.01, config=FitConfig(n_restarts=3, seed=3))
    np.testing.assert_array_equal(canonicalize(result.theta_hat).values,
                                  result.theta_hat.values)


def test_fit_deterministic_given_seed():
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 120, seed=43)
    lam = 0.01
    a = fit(arch, data, lam, FitConfig(n_restarts=5, seed=9))
    b = fit(arch, data, lam, FitConfig(n_restarts=5, seed=9))
    np.testing.assert_array_equal(a.theta_hat.values, b.theta_hat.values)
    assert a.loglik == b.loglik
    assert a.restart_logliks == b.restart_logliks


def test_fit_seed_changes_start_points():
    arch = Architecture(p=2, q=2)
    x = np.random.default_rng(2).normal(size=(20, 2))
    a = initialize(arch, np.random.default_rng(0), x)
    b = initialize(arch, np.random.default_rng(1), x)
    assert not np.array_equal(a.values, b.values)


def test_start_reads_the_draw_in_standardized_units():
    """The hidden net inputs at the start are the draw's on the
    standardized columns, whatever the columns' units; a constant column
    is centred with sd 1, so it adds nothing at the start."""
    arch = Architecture(p=3, q=2)
    rng = np.random.default_rng(3)
    x = np.column_stack([50.0 + 10.0 * rng.normal(size=40),
                         np.full(40, 7.0),
                         -3.0 + 0.01 * rng.normal(size=40)])
    start = initialize(arch, np.random.default_rng(4), x)
    draw = np.random.default_rng(4).uniform(-0.5, 0.5, arch.r)
    sd = x.std(axis=0)
    sd[1] = 1.0
    z = (x - x.mean(axis=0)) / sd
    w = draw[:(arch.p + 1) * arch.q].reshape(arch.p + 1, arch.q)
    np.testing.assert_allclose(
        np.hstack([np.ones((40, 1)), x]) @ start.omega_matrix(),
        np.hstack([np.ones((40, 1)), z]) @ w, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(start.gamma_vector(),
                                  draw[(arch.p + 1) * arch.q:])


def test_fit_starts_where_initialize_starts(monkeypatch):
    """``fit`` computes the start scaling once for all its restarts;
    each restart still starts bit for bit where ``initialize`` called
    directly with that restart's generator starts."""
    arch = Architecture(p=3, q=2)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(90, 3)) * [30.0, 0.01, 1.0] + [5.0, -2.0, 0.0]
    data = Dataset(x=x, y=rng.normal(size=90))
    starts = []
    run_restart = fit_module._run_restart

    def spy(obj, x0):
        starts.append(x0.copy())
        return run_restart(obj, x0)

    monkeypatch.setattr(fit_module, "_run_restart", spy)
    fit(arch, data, 0.01, FitConfig(n_restarts=4, seed=9))
    assert len(starts) == 4
    for i, x0 in enumerate(starts):
        np.testing.assert_array_equal(
            x0, initialize(arch, seeds.rng(9, i), data.x).values)


def _cho_reference(hess, rhs):
    """``_solve_damped`` as ``scipy.linalg.cho_factor`` and ``cho_solve``
    with the same jitter schedule: the reference it must equal bitwise."""
    import scipy.linalg

    scale = max(1.0, float(np.trace(hess)) / hess.shape[0])
    mu = 0.0
    for _ in range(9):
        try:
            c = scipy.linalg.cho_factor(
                hess + mu * np.eye(hess.shape[0]) if mu else hess)
            return scipy.linalg.cho_solve(c, rhs)
        except scipy.linalg.LinAlgError:
            mu = 1e-10 * scale if mu == 0.0 else mu * 100.0
    return None


def test_damped_solve_equals_the_cholesky_reference_bitwise():
    """On positive definite matrices of every size a fit meets (r up to
    31) and on matrices that need jitter, the one-call solve gives the
    reference's bits, or None where the reference gives up."""
    solve = fit_module._solve_damped
    rng = np.random.default_rng(12)
    for case in range(400):
        r = int(rng.integers(1, 32))
        b = rng.normal(size=(r, r)) * 10.0 ** rng.uniform(-3, 3, size=r)
        hess = b @ b.T + 10.0 ** rng.uniform(-12, 0) * np.eye(r)
        rhs = rng.normal(size=r)
        np.testing.assert_array_equal(solve(hess, rhs),
                                      _cho_reference(hess, rhs))
    # rank one: the first try fails and the jitter path decides the bits
    v = rng.normal(size=5)
    singular = np.outer(v, v)
    rhs = rng.normal(size=5)
    assert _cho_reference(singular.copy(), rhs) is not None
    np.testing.assert_array_equal(solve(singular, rhs),
                                  _cho_reference(singular, rhs))
    # indefinite beyond the largest jitter: both give up, and never look
    # at the right-hand side
    indefinite = np.diag([1.0, -1e9, 2.0])
    for b in (rhs[:3], np.array([1.0, np.inf, 0.0])):
        assert _cho_reference(indefinite, b) is None
        assert solve(indefinite, b) is None


@pytest.mark.parametrize("bad", ["hess nan", "hess inf", "rhs inf"])
def test_damped_solve_refuses_non_finite_input(bad):
    """As ``cho_factor`` and ``cho_solve`` did, a non-finite Hessian or
    right-hand side raises, which fails the restart; ``dposv`` alone
    returns NaNs and the polish would go on."""
    hess, rhs = np.eye(3) * 2.0, np.ones(3)
    if bad == "rhs inf":
        rhs[1] = np.inf
    else:
        hess[0, 2] = hess[2, 0] = np.nan if bad == "hess nan" else np.inf
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        fit_module._solve_damped(hess, rhs)


def test_restart_records_and_chosen_restart(monkeypatch):
    """A fit configured with ``confirmations`` stops at that many restarts
    tied with the best so far and never earlier; a fit of at most that
    many restarts, or one without ``confirmations``, runs them all.  The
    records hold the restarts that ran, and the winner's value and work
    are the reported ``loglik`` and ``iterations``."""
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 120, seed=44)
    for n in range(1, RESTART_CONFIRMATIONS + 1):
        result = fit(arch, data, 0.01, FitConfig(
            n_restarts=n, seed=4, confirmations=RESTART_CONFIRMATIONS))
        assert len(result.restart_logliks) == n
        assert len(result.restart_iterations) == n
        assert all(k > 0 for k in result.restart_iterations)
        best = max(result.restart_logliks)
        assert result.loglik == result.restart_logliks[result.chosen_restart]
        assert best - result.loglik <= TIE_RTOL * max(1.0, abs(best))
        assert (result.iterations
                == result.restart_iterations[result.chosen_restart])

    # Restart 4 makes four ties at a lower optimum, restart 6 three ties
    # at the best: neither stops the fit.  Restart 7 is the fourth tie
    # with the best.  Without ``confirmations`` all ten run.
    best = truth.values
    low = best.copy()
    low[arch.gamma_index(1)] *= 0.5
    obj = _Evaluator(arch, data, 0.01)
    assert obj.profile(low)[0] < obj.profile(best)[0]
    order = [low, low, low, best, low, best, best, best, best, best]
    for cap, confirmations, ran in ((10, RESTART_CONFIRMATIONS, 8),
                                    (7, RESTART_CONFIRMATIONS, 7),
                                    (10, None, 10)):
        _scripted_restarts(monkeypatch, [(x, 10 + i)
                                         for i, x in enumerate(order)])
        result = fit(arch, data, 0.01, FitConfig(
            n_restarts=cap, seed=0, confirmations=confirmations))
        monkeypatch.undo()
        assert result.restart_iterations == tuple(range(10, 10 + ran))
        assert len(result.restart_logliks) == ran
        assert result.chosen_restart == 3
        assert result.loglik == result.restart_logliks[3]
        assert result.iterations == result.restart_iterations[3] == 13
        np.testing.assert_array_equal(
            result.theta_hat.values, canonicalize(ParamVector(arch, best)).values)


def test_stopped_fit_matches_a_scan_of_every_restart():
    """A headline-cell replicate whose restarts 0, 1 and 3 agree on an
    optimum 158.6 below the best, which restarts 4-9 reach.  The fit
    stops after restart 7, the fourth tie with the best, and returns
    restart 4's estimate, bitwise the winner of an independent scan of
    all ten restarts.  Stopping at three ties would return restart 0's.
    The study's own replicate stops there too; a fit without
    ``confirmations`` runs all ten to the same estimate."""
    sc = SimScenario(q=2, nz_pattern="5-1", n=1000, lam=0.01, replicates=12,
                     restarts=10, seed=3524660374939341111)
    data = generate(sc, 9)
    seed = seeds.derive_seed(sc.seed, 9, 1)
    obj = _Evaluator(sc.arch, data, sc.lam)
    scan = []
    for i in range(sc.restarts):
        x0 = initialize(sc.arch, seeds.rng(seed, i), data.x).values
        x_hat, nit = fit_module._run_restart(obj, x0)
        theta = canonicalize(ParamVector(sc.arch, x_hat))
        scan.append((obj.profile(theta.values)[0], theta.values, nit))
    ll_best = max(ll for ll, _, _ in scan)
    tied = [i for i, (ll, theta, _) in enumerate(scan)
            if ll_best - ll <= 1e-9 * abs(ll_best)
            and np.max(np.abs(theta - scan[4][1])) <= 1e-9]
    assert tied == [4, 5, 6, 7, 8, 9]
    assert ll_best - scan[0][0] == pytest.approx(158.63, abs=0.01)

    result = fit(sc.arch, data, sc.lam, FitConfig(
        n_restarts=sc.restarts, seed=seed,
        confirmations=RESTART_CONFIRMATIONS))
    np.testing.assert_array_equal(result.theta_hat.values, scan[4][1])
    assert result.chosen_restart == 4
    assert result.restart_logliks == tuple(ll for ll, _, _ in scan[:8])
    assert result.restart_iterations == tuple(n for _, _, n in scan[:8])
    assert (_replicate_task((sc, 9)).iterations
            == sum(n for _, _, n in scan[:8]))

    full = fit(sc.arch, data, sc.lam,
               FitConfig(n_restarts=sc.restarts, seed=seed))
    np.testing.assert_array_equal(full.theta_hat.values, scan[4][1])
    assert full.restart_iterations == tuple(n for _, _, n in scan)


def _scripted_restarts(monkeypatch, outcomes):
    """Make restart i return outcomes[i]: (x, iterations), or an exception
    to raise."""
    calls = iter(outcomes)

    def run(obj, x0):
        outcome = next(calls)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(fit_module, "_run_restart", run)


def _uphill_pair(arch, data, lam, base):
    """Two points a hair apart around ``base``, lower penalized
    log-likelihood first: theta within THETA_TOL, values within TIE_RTOL."""
    obj = _Evaluator(arch, data, lam)
    _, g = obj.value_grad(base)
    step = 1e-12 * max(1.0, float(np.max(np.abs(base)))) * g / np.max(np.abs(g))
    low, high = base + step, base - step
    ll_low, ll_high = obj.profile(low)[0], obj.profile(high)[0]
    assert 0.0 < ll_high - ll_low < TIE_RTOL * abs(ll_high)
    assert np.max(np.abs(high - low)) < THETA_TOL * np.max(np.abs(base))
    return low, high


def test_tied_restarts_go_to_the_lowest_index(monkeypatch):
    """A later restart at the same theta whose value is higher only by
    rounding-sized amounts does not displace an earlier one."""
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 150, seed=50)
    lam = 0.01
    low, high = _uphill_pair(arch, data, lam, truth.values)
    _scripted_restarts(monkeypatch, [(low, 7), (high, 11)])
    result = fit(arch, data, lam, FitConfig(n_restarts=2, seed=0))
    assert result.restart_logliks[1] > result.restart_logliks[0]
    np.testing.assert_array_equal(result.theta_hat.values,
                                  canonicalize(ParamVector(arch, low)).values)
    assert result.loglik == result.restart_logliks[0]
    assert result.chosen_restart == 0
    assert result.iterations == 7
    assert result.restart_iterations == (7, 11)


def test_near_tie_at_a_different_theta_keeps_the_best(monkeypatch):
    """An earlier restart whose value is within TIE_RTOL of the best but
    whose theta differs is not a tie: the best value wins."""
    arch = Architecture(p=2, q=1)
    rng = np.random.default_rng(51)
    x = rng.normal(size=(150, 2))
    x[:, 1] = 0.0       # covariate 2's weight changes nothing at lam = 0
    truth = canonicalize(ParamVector(arch, np.array([0.3, 1.2, 0.0, 2.5, 3.0])))
    mu = forward_batch(truth, Dataset(x=x, y=np.zeros(150)))
    data = Dataset(x=x, y=mu + 0.05 * rng.normal(size=150))
    lam = 0.0
    low, high = _uphill_pair(arch, data, lam, truth.values)
    elsewhere = high.copy()
    elsewhere[arch.omega_index(2, 1)] = 0.7
    _scripted_restarts(monkeypatch, [(low, 7), (elsewhere, 11)])
    result = fit(arch, data, lam, FitConfig(n_restarts=2, seed=0))
    assert result.restart_logliks[1] == _Evaluator(arch, data, lam).profile(
        high)[0]
    assert result.chosen_restart == 1
    assert result.iterations == 11
    assert result.loglik == max(result.restart_logliks)
    np.testing.assert_array_equal(
        result.theta_hat.values,
        canonicalize(ParamVector(arch, elsewhere)).values)


def test_failed_restart_records_no_work(monkeypatch):
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 100, seed=52)
    _scripted_restarts(monkeypatch, [FitError("boom"), (truth.values, 5)])
    result = fit(arch, data, 0.01, FitConfig(n_restarts=2, seed=0))
    assert result.restart_logliks[0] == float("-inf")
    assert result.restart_iterations == (0, 5)
    assert result.chosen_restart == 1


def _bernoulli_data(arch, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, arch.p))
    mu = forward_batch(_true_theta(arch), Dataset(x=x, y=np.zeros(n)))
    return Dataset(x=x, y=(rng.uniform(size=n) < mu).astype(float))


def test_start_point_is_evaluated_once(monkeypatch):
    """In each family the searched objective is evaluated once at the
    start's searched coordinates, by the optimizer itself: the input
    weights on the profiled objective for a Gaussian fit, all of theta
    on ``value_grad`` for a Bernoulli one."""
    for family, name in (("gaussian", "profiled"),
                         ("bernoulli", "value_grad")):
        arch = Architecture(p=2, q=2, family=family)
        data = (_gaussian_data(arch, _true_theta(arch), 100, seed=53)
                if family == "gaussian" else _bernoulli_data(arch, 100, 53))
        points = []
        method = getattr(_Evaluator, name)

        def recording(self, values, method=method, points=points):
            points.append(np.array(values, dtype=float))
            return method(self, values)

        monkeypatch.setattr(_Evaluator, name, recording)
        fit(arch, data, 0.01, FitConfig(n_restarts=1, seed=5))
        monkeypatch.undo()
        x0 = initialize(arch, seeds.rng(5, 0), data.x).values
        searched = x0[:(arch.p + 1) * arch.q] if family == "gaussian" else x0
        assert sum(np.array_equal(p, searched) for p in points) == 1, family


def test_bernoulli_fit_never_profiles(monkeypatch):
    """Only the Gaussian family has gamma in closed form."""
    def refuse(self, omega):
        raise AssertionError("profiled objective called")

    monkeypatch.setattr(_Evaluator, "profiled", refuse)
    arch = Architecture(p=2, q=2, family="bernoulli")
    result = fit(arch, _bernoulli_data(arch, 200, 55), 0.01,
                 FitConfig(n_restarts=2, seed=1))
    assert result.iterations > 0


def test_gaussian_fit_searches_the_profiled_objective(monkeypatch):
    """A Gaussian fit's quasi-Newton search never evaluates the full
    objective: ``value_grad`` is reached only from the polish, which
    starts at (omega-hat, gamma*(omega-hat))."""
    arch = Architecture(p=2, q=2)
    data = _gaussian_data(arch, _true_theta(arch), 120, seed=56)
    ev = _Evaluator(arch, data, 0.01)
    starts = []
    polish = fit_module._newton_polish

    def spy(obj, x, f, g):
        starts.append((x.copy(), f, g.copy()))
        return polish(obj, x, f, g)

    monkeypatch.setattr(fit_module, "_newton_polish", spy)
    fit(arch, data, 0.01, FitConfig(n_restarts=2, seed=3))
    for x, f, g in starts:
        pq = (arch.p + 1) * arch.q
        f_p, g_p, gamma = ev.profiled(x[:pq])
        np.testing.assert_array_equal(x[pq:], gamma)
        assert f == pytest.approx(f_p, rel=1e-12)
        np.testing.assert_allclose(g[:pq], g_p, rtol=1e-9, atol=1e-9)


def test_non_finite_start_is_reported():
    """A response so large that the residual sum of squares overflows."""
    arch = Architecture(p=2, q=1)
    rng = np.random.default_rng(54)
    y = rng.normal(size=40)
    y[3] = 1e200
    data = Dataset(x=rng.normal(size=(40, 2)), y=y)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FitError,
                          match="objective not finite at the starting point"):
        fit(arch, data, 0.01, FitConfig(n_restarts=2, seed=0))


def _oracle_objective(case, tmp_path, monkeypatch):
    """(objective, start) of one L-BFGS-B run of the oracle test below."""
    if case == "gradient stop":
        scale = np.array([1.0, 2.0])
        return (lambda x: (0.5 * float(x @ (scale * x)), scale * x),
                np.array([3.0, 4.0]))
    from statnn.preprocess import ingest

    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from inputs import write_table

    family = "bernoulli" if case == "bernoulli q=3" else "gaussian"
    q, lam = {"gaussian q=2": (2, 0.01), "bernoulli q=3": (3, 0.01),
              "iteration cap": (2, 0.01), "ftol stop": (3, 0.0)}[case]
    write_table(tmp_path / "t.csv", 300, 7, family)
    data, _ = ingest(str(tmp_path / "t.csv"), "y")
    arch = Architecture(p=data.p, q=q, family=family)
    ev = _Evaluator(arch, data, lam)
    x0 = initialize(arch, seeds.rng(0, 1), data.x).values
    if family == "bernoulli":
        return ev.value_grad, x0
    return (lambda omega: ev.profiled(omega)[:2]), ev.arch.split(x0)[0].ravel()


@pytest.mark.parametrize("case, stop", [
    ("gaussian q=2", "RELATIVE REDUCTION OF F"),
    ("bernoulli q=3", "RELATIVE REDUCTION OF F"),
    ("iteration cap", "ITERATIONS REACHED LIMIT"),
    ("ftol stop", "RELATIVE REDUCTION OF F"),
    ("gradient stop", "NORM OF PROJECTED GRADIENT"),
])
def test_quasi_newton_matches_scipy_minimize(case, stop, tmp_path,
                                             monkeypatch):
    """The fitter drives scipy's L-BFGS-B routine itself; every run ends
    bitwise where ``scipy.optimize.minimize`` with the same options ends,
    so a scipy release that changes the private routine fails here.  The
    runs cover the profiled Gaussian search, the full-theta Bernoulli
    search, the iteration cap and both convergence tests."""
    import scipy.optimize

    objective, start = _oracle_objective(case, tmp_path, monkeypatch)
    if case == "iteration cap":
        monkeypatch.setattr(fit_module, "MAX_ITERS", 5)
    expected = scipy.optimize.minimize(
        objective, start, jac=True, method="L-BFGS-B",
        options={"maxiter": fit_module.MAX_ITERS, "ftol": fit_module.FTOL,
                 "gtol": fit_module.GRAD_TOL, "maxcor": 20})
    assert stop in expected.message
    x, f, g, nit = fit_module._quasi_newton(objective, start)
    assert np.array_equal(x, expected.x)
    assert np.array_equal(f, expected.fun)
    assert np.array_equal(g, expected.jac)
    assert nit == expected.nit
    assert nit == 5 if case == "iteration cap" else nit > 5


def test_non_finite_optimum_is_reported():
    """An objective finite at the start that turns NaN along the search
    (here past x0 = 3): the run ends on a non-finite value."""
    def objective(x):
        if abs(x[0]) > 3.0:
            return np.nan, np.full(2, np.nan)
        return float(x[1] ** 2 - x[0]), np.array([-1.0, 2.0 * x[1]])

    with pytest.raises(FitError,
                       match="optimizer returned a non-finite objective"):
        fit_module._quasi_newton(objective, np.array([0.0, 1.0]))


def test_penalty_shrinks_weights():
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 200, seed=46)
    loose = fit(arch, data, 0.0, FitConfig(n_restarts=4, seed=6))
    tight = fit(arch, data, 5.0, FitConfig(n_restarts=4, seed=6))
    mask = arch.penalized_mask()

    def pen_norm(res):
        return float(np.sum(res.theta_hat.values[mask] ** 2))

    assert pen_norm(tight) < pen_norm(loose)


def test_fit_bernoulli():
    rng = np.random.default_rng(47)
    arch = Architecture(p=2, q=2, family="bernoulli")
    truth = _true_theta(arch)
    x = rng.normal(size=(300, 2))
    mu = forward_batch(truth, Dataset(x=x, y=np.zeros(300)))
    y = (rng.uniform(size=300) < mu).astype(float)
    data = Dataset(x=x, y=y)
    result = fit(arch, data, 0.01, FitConfig(n_restarts=4, seed=7))
    assert result.converged
    assert result.sigma_sq_hat is None
    # fitted probabilities beat the intercept-only model on log-loss
    p_hat = forward_batch(result.theta_hat, data)
    base = np.mean(y)
    ll_base = float(np.sum(y * np.log(base) + (1 - y) * np.log(1 - base)))
    ll_fit = float(np.sum(y * np.log(p_hat) + (1 - y) * np.log(1 - p_hat)))
    assert ll_fit > ll_base


def test_fit_rejects_non_binary_bernoulli_response():
    arch = Architecture(p=1, q=1, family="bernoulli")
    data = Dataset(x=np.zeros((4, 1)), y=np.array([0.0, 1.0, 0.5, 1.0]))
    with pytest.raises(DataError, match="0, 1"):
        fit(arch, data, 0.0, FitConfig(n_restarts=1))


def test_fit_p_mismatch():
    arch = Architecture(p=3, q=1)
    data = Dataset(x=np.zeros((4, 2)), y=np.zeros(4))
    with pytest.raises(Exception):
        fit(arch, data, 0.0, FitConfig(n_restarts=1))


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(n_restarts=0)
    with pytest.raises(ValueError, match="confirmations"):
        FitConfig(confirmations=0)


def test_evaluate_at_matches_fit_conventions():
    """Wrapping theta_hat reproduces the fit's own reported quantities."""
    arch = Architecture(p=2, q=2)
    truth = _true_theta(arch)
    data = _gaussian_data(arch, truth, 150, seed=48)
    lam = 0.01
    fitted = fit(arch, data, lam, FitConfig(n_restarts=3, seed=8))
    wrapped = evaluate_at(fitted.theta_hat, data, lam)
    assert wrapped.loglik == pytest.approx(fitted.loglik, rel=1e-12)
    assert wrapped.sigma_sq_hat == pytest.approx(fitted.sigma_sq_hat,
                                                 rel=1e-12)
    assert wrapped.grad_max == pytest.approx(fitted.grad_max, rel=1e-6,
                                             abs=1e-12)
    assert wrapped.converged  # stationary point passes the looser check
    assert wrapped.iterations == 0
    assert wrapped.restart_iterations == (0,)
    assert wrapped.chosen_restart == 0


def test_evaluate_at_nonstationary_point():
    arch = Architecture(p=1, q=1)
    data = _gaussian_data(arch, _true_theta(arch), 50, seed=49)
    theta = ParamVector(arch, np.full(arch.r, 0.3))
    lam = 0.0
    result = evaluate_at(theta, data, lam)
    assert not result.converged
    assert result.grad_max > 1e-6
    np.testing.assert_array_equal(result.theta_hat.values, theta.values)


def test_evaluate_at_p_mismatch():
    arch = Architecture(p=2, q=1)
    data = Dataset(x=np.zeros((4, 1)), y=np.zeros(4))
    with pytest.raises(ValueError):
        evaluate_at(ParamVector.zeros(arch), data, 0.0)
