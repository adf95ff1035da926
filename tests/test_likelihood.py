"""Likelihood, gradient, and information tests against finite differences."""

import numpy as np
import pytest

from statnn.exceptions import DataError, ShapeError
from statnn.likelihood import (_curvature_correction, _Evaluator,
                               _pred_jacobian, gradient, log_likelihood,
                               observed_information, penalty,
                               prediction_gradient)
from statnn.model import (Architecture, Dataset, ParamVector,
                          _activation_block, design_with_intercept,
                          forward_batch)

from oracles import fd_gradient, fd_hessian


def _instance(seed, p=3, q=2, n=25, family="gaussian"):
    rng = np.random.default_rng(seed)
    arch = Architecture(p=p, q=q, family=family)
    theta = ParamVector(arch, rng.uniform(-1.0, 1.0, arch.r))
    x = rng.normal(size=(n, p))
    if family == "gaussian":
        y = rng.normal(size=n)
    else:
        y = rng.integers(0, 2, size=n).astype(float)
    return arch, theta, Dataset(x=x, y=y)


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_gradient_matches_finite_differences(family, lam):
    arch, theta, data = _instance(10, family=family)
    kw = {"sigma_sq": 1.3} if family == "gaussian" else {}

    def ll(values):
        return log_likelihood(ParamVector(arch, values), data, lam, **kw)

    analytic = gradient(theta, data, lam, **kw)
    numeric = fd_gradient(ll, theta.values.copy())
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-6



def _jacobian_score(arch, theta, data, family):
    """J^T u with J from ``_pred_jacobian`` and an in-test forward pass."""
    p, q = arch.p, arch.q
    x1 = np.hstack([np.ones((data.n, 1)), data.x])
    w = theta.values[:(p + 1) * q].reshape(p + 1, q)
    g = theta.values[(p + 1) * q:]
    h = 1.0 / (1.0 + np.exp(-(x1 @ w)))
    z = g[0] + h @ g[1:]
    fitted = z if family == "gaussian" else 1.0 / (1.0 + np.exp(-z))
    hb = np.vstack([np.ones(data.n), h.T])
    return _pred_jacobian(arch, x1, hb, g).T @ (data.y - fitted)


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_block_score_matches_jacobian_contraction(family, q, lam):
    """The optimizer's gradient and ``gradient`` equal the contraction of
    the explicit Jacobian with the score, plus the ridge term."""
    arch, theta, data = _instance(20 + q, q=q, n=40, family=family)
    ridge = 2.0 * lam * theta.values * arch.penalized_mask()
    jtu = _jacobian_score(arch, theta, data, family)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))

    _, g_opt = _Evaluator(arch, data, lam).value_grad(theta.values)
    close(g_opt, -jtu + ridge)
    kw = {"sigma_sq": 1.0} if family == "gaussian" else {}
    close(gradient(theta, data, lam, **kw), jtu - ridge)
    if family == "gaussian":
        close(gradient(theta, data, lam, sigma_sq=1.7),
              jtu / 1.7 - ridge)


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_optimizer_gradient_matches_finite_differences(family, q, lam):
    arch, theta, data = _instance(30 + q, q=q, n=40, family=family)
    ev = _Evaluator(arch, data, lam)
    _, analytic = ev.value_grad(theta.values)
    numeric = fd_gradient(lambda v: ev.value_grad(v)[0],
                           theta.values.copy())
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-6

@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_profiled_objective_is_value_grad_at_gamma_star(q, lam):
    """At (omega, gamma*(omega)) the profiled value and omega-gradient
    are ``value_grad``'s, and ``value_grad``'s gamma block vanishes: it
    measures at most 2.1e-14 here (n = 60, y standard normal)."""
    arch, theta, data = _instance(40 + q, q=q, n=60)
    ev = _Evaluator(arch, data, lam)
    pq = (arch.p + 1) * q
    omega = theta.values[:pq]
    f, g, gamma = ev.profiled(omega)
    f_full, g_full = ev.value_grad(np.concatenate((omega, gamma)))
    assert f == pytest.approx(f_full, rel=1e-13)
    np.testing.assert_allclose(g, g_full[:pq], rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(g)))
    assert np.max(np.abs(g_full[pq:])) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_profiled_gradient_matches_finite_differences(q, lam):
    arch, theta, data = _instance(50 + q, q=q, n=40)
    ev = _Evaluator(arch, data, lam)
    omega = theta.values[:(arch.p + 1) * q].copy()
    analytic = ev.profiled(omega)[1]
    numeric = fd_gradient(lambda w: ev.profiled(w)[0], omega)
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-6


def test_profiled_objective_is_infinite_at_a_singular_gram():
    """Two identical hidden units leave gamma unidentified at lambda = 0:
    the profiled objective is +inf there, without an exception or NaN.
    The ridge on gamma makes the same point regular."""
    arch, theta, data = _instance(45, q=2, n=60)
    w = arch.split(theta.values)[0].copy()
    w[:, 1] = w[:, 0]
    with np.errstate(all="raise"):
        f, g, gamma = _Evaluator(arch, data, 0.0).profiled(w.ravel())
    assert f == np.inf and gamma is None
    np.testing.assert_array_equal(g, np.zeros(w.size))
    f, g, gamma = _Evaluator(arch, data, 0.01).profiled(w.ravel())
    assert np.isfinite(f) and np.all(np.isfinite(g))
    assert np.all(np.isfinite(gamma))


def _broadcast_jacobian(arch, x1, hb, g):
    """The n x r Jacobian as one n x (p + 1) x q broadcast joined to H^T:
    the reference ``_pred_jacobian``'s blocks must equal bit for bit."""
    h = hb[1:].T
    a_w = x1[:, :, None] * (h * (1.0 - h) * g[1:])[:, None, :]
    return arch.join(a_w, hb.T)


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [50, 1000, 2048, 10000])
def test_jacobian_equals_the_broadcast_bitwise(family, q, n):
    """The units-major fill, in row blocks (one block, several, a
    partial last one), gives the broadcast's bits in C order."""
    arch, theta, data = _instance(70 + q, p=4, q=q, n=n, family=family)
    x1 = design_with_intercept(data.x)
    w, g = arch.split(theta.values)
    hb = _activation_block(x1, w)
    a = _pred_jacobian(arch, x1, hb, g)
    assert a.flags.c_contiguous
    np.testing.assert_array_equal(a, _broadcast_jacobian(arch, x1, hb, g))


def test_information_is_the_gram_of_the_c_contiguous_jacobian():
    """The information's Gauss-Newton part is ``a.T @ a`` (weighted for
    a non-identity link) on the C-contiguous n x r Jacobian.  The same
    product on an F-ordered result, ``jt @ jt.T`` on the r x n block, is
    another BLAS call and changed bits in 139 of 300 cases of this mix,
    so the layout of ``_pred_jacobian``'s result is part of every fit's
    bits."""
    rng = np.random.default_rng(71)
    for case in range(120):
        family = ("gaussian", "bernoulli")[case % 2]
        arch, theta, data = _instance(
            1000 + case, p=int(rng.integers(1, 7)), q=int(rng.integers(1, 6)),
            n=int(rng.integers(20, 400)), family=family)
        ev = _Evaluator(arch, data, 0.0)
        g, hb, _, u, v = ev._terms(theta.values, kernel=True)
        a = np.ascontiguousarray(_broadcast_jacobian(arch, ev.x1, hb, g))
        gauss_newton = a.T @ a if v is None else (a.T * v) @ a
        np.testing.assert_array_equal(
            ev._information(theta.values),
            gauss_newton - _curvature_correction(arch, ev.x1, hb, g, u))


def _curvature_by_views(arch, x1, hb, g, weights):
    """The curvature correction written into per-call views of the r x r
    result, one broadcast per unit: the reference the cached-index
    version must equal bit for bit."""
    c = np.zeros((arch.r, arch.r))
    w_rows, g_rows = (np.moveaxis(v, 0, -1) for v in arch.split(c.T))
    (ww, wg), (gw, _) = arch.split(w_rows), arch.split(g_rows)
    h = hb[1:]
    hp = h * (1.0 - h)
    hpp = hp * (1.0 - 2.0 * h)
    for k in range(arch.q):
        wk = weights * hpp[k] * g[k + 1]
        ww[:, k, :, k] += x1.T @ (wk[:, None] * x1)
        v = x1.T @ (weights * hp[k])
        gw[k + 1, :, k] += v
        wg[:, k, k + 1] += v
    return c


def test_curvature_correction_equals_the_view_reference_bitwise():
    """Cached indices and in-place unit weights give the same bits as
    views of the result and one broadcast per unit, over 200 random
    cases of both families, with scores and V(mu) weights."""
    rng = np.random.default_rng(72)
    for case in range(200):
        family = ("gaussian", "bernoulli")[case % 2]
        arch, theta, data = _instance(
            2000 + case, p=int(rng.integers(1, 7)), q=int(rng.integers(1, 6)),
            n=int(rng.integers(20, 1500)), family=family)
        ev = _Evaluator(arch, data, 0.0)
        g, hb, _, u, v = ev._terms(theta.values * 3.0, kernel=True)
        for weights in (u, u if v is None else v):
            np.testing.assert_array_equal(
                _curvature_correction(arch, ev.x1, hb, g, weights),
                _curvature_by_views(arch, ev.x1, hb, g, weights))


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
def test_information_matches_finite_differences(family):
    arch, theta, data = _instance(11, family=family)
    kw = {"sigma_sq": 0.8} if family == "gaussian" else {}

    def grad(values):
        return gradient(ParamVector(arch, values), data, 0.0, **kw)

    info = observed_information(theta, data, **kw)
    numeric = -fd_hessian(grad, theta.values.copy())
    assert np.max(np.abs(info - numeric)) < 1e-4
    np.testing.assert_allclose(info, info.T, atol=0)


def test_information_ignores_penalty():
    """Observed information excludes the ridge term by definition: it is
    the penalized objective's Hessian less the ridge's diagonal."""
    arch, theta, data = _instance(12)
    info = observed_information(theta, data, sigma_sq=1.0)
    ev = _Evaluator(arch, data, 0.7)
    np.testing.assert_allclose(
        info, ev.hessian(theta.values) - np.diag(ev.ridge_w),
        rtol=1e-12, atol=1e-12 * np.max(np.abs(info)))


def test_penalty_excludes_intercepts():
    arch = Architecture(p=2, q=2)
    w = np.zeros((arch.p + 1, arch.q))
    g = np.zeros(arch.q + 1)
    w[0, :] = 100.0
    g[0] = -50.0
    assert penalty(ParamVector.from_parts(arch, w, g), 3.0) == 0.0
    w[1, 0] = 2.0
    g[2] = 3.0
    assert penalty(ParamVector.from_parts(arch, w, g), 3.0) == pytest.approx(
        3.0 * (4.0 + 9.0), abs=1e-12)


def test_penalty_changes_loglik_and_gradient():
    arch, theta, data = _instance(13)
    ll0 = log_likelihood(theta, data, 0.0, sigma_sq=1.0)
    ll1 = log_likelihood(theta, data, 0.5, sigma_sq=1.0)
    assert ll0 - ll1 == pytest.approx(penalty(theta, 0.5), rel=1e-12)
    g0 = gradient(theta, data, 0.0, sigma_sq=1.0)
    g1 = gradient(theta, data, 0.5, sigma_sq=1.0)
    diff = g0 - g1
    mask = arch.penalized_mask()
    np.testing.assert_allclose(diff[mask], 2.0 * 0.5 * theta.values[mask],
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(diff[~mask], 0.0, atol=1e-12)


def test_gaussian_requires_sigma_sq():
    arch, theta, data = _instance(14)
    with pytest.raises(ValueError):
        log_likelihood(theta, data, 0.0)
    with pytest.raises(ValueError):
        log_likelihood(theta, data, 0.0, sigma_sq=0.0)


def test_bernoulli_requires_binary_response():
    arch = Architecture(p=1, q=1, family="bernoulli")
    theta = ParamVector(arch, np.zeros(arch.r))
    data = Dataset(x=np.zeros((2, 1)), y=np.array([0.0, 0.5]))
    with pytest.raises(DataError):
        log_likelihood(theta, data, 0.0)


@pytest.mark.parametrize("fn", [log_likelihood, gradient,
                                observed_information])
def test_covariate_count_mismatch_raises_shape_error(fn):
    arch, theta, _ = _instance(16, p=3)
    data = Dataset(x=np.zeros((4, 2)), y=np.zeros(4))
    lam = () if fn is observed_information else (0.0,)
    with pytest.raises(ShapeError, match="covariate count"):
        fn(theta, data, *lam, sigma_sq=1.0)


def test_bernoulli_extreme_logits_stay_finite():
    """Saturated probabilities are clamped rather than producing -inf."""
    arch = Architecture(p=1, q=1, family="bernoulli")
    theta = ParamVector.from_parts(arch, np.array([[0.0], [100.0]]),
                                   np.array([0.0, 100.0]))
    # y disagrees with the saturated prediction at x = 1
    data = Dataset(x=np.array([[1.0]]), y=np.array([0.0]))
    ll = log_likelihood(theta, data, 0.0)
    assert np.isfinite(ll)
    assert ll == pytest.approx(np.log(1e-12), rel=1e-6)
    g = gradient(theta, data, 0.0)
    assert np.all(np.isfinite(g))


def test_gaussian_loglik_value():
    """Closed-form check for a one-point dataset at zero parameters."""
    arch = Architecture(p=1, q=1)
    theta = ParamVector(arch, np.zeros(arch.r))
    data = Dataset(x=np.array([[0.0]]), y=np.array([2.0]))
    got = log_likelihood(theta, data, 0.0, sigma_sq=1.0)
    want = -0.5 * np.log(2.0 * np.pi) - 0.5 * 4.0
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("family", [pytest.param("gaussian", id="identity"),
                                    pytest.param("bernoulli", id="logistic")])
def test_prediction_gradient_matches_finite_differences(family):
    rng = np.random.default_rng(15)
    arch = Architecture(p=3, q=2, family=family)
    theta = ParamVector(arch, rng.uniform(-1.0, 1.0, arch.r))
    x = rng.normal(size=(5, 3))
    a = prediction_gradient(theta, x)
    assert a.shape == (5, arch.r)
    h = 1e-6
    for i in range(5):
        def pred(values, row=Dataset(x=x[i:i + 1], y=np.zeros(1))):
            return forward_batch(ParamVector(arch, values), row)[0]

        numeric = fd_gradient(pred, theta.values.copy(), h=h)
        scale = np.maximum(np.abs(numeric), 1.0)
        assert np.max(np.abs(a[i] - numeric) / scale) < 1e-5
