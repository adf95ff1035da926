"""Partial covariate effect tests: values, bands, conditioning, rescaling."""

import numpy as np
import pytest

from statnn.effects import (conditioning_values, effect_grid, pce_curve,
                            to_original_scale)
from statnn.exceptions import DataError, NotPositiveDefiniteError, ShapeError
from statnn.inference import CovarianceEstimate, sandwich_covariance
from statnn.likelihood import observed_information, prediction_gradient
from statnn.model import (Architecture, ColumnMeta, Dataset, ParamVector,
                          forward_batch)
from statnn.special import normal_quantile


def _identity_cov(r, scale=1e-4):
    return CovarianceEstimate(sigma_hat=scale * np.eye(r),
                              a_matrix=np.eye(r))


def _dataset(seed=70, n=60, p=2, dummy_last=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    metas = []
    for j in range(p):
        if dummy_last and j == p - 1:
            x[:, j] = (x[:, j] > 0).astype(float)
            metas.append(ColumnMeta(f"x{j + 1}", kind="dummy"))
        else:
            metas.append(ColumnMeta(f"x{j + 1}", kind="continuous",
                                    mean=10.0 * (j + 1), sd=2.0 * (j + 1)))
    return Dataset(x=x, y=rng.normal(size=n), column_meta=tuple(metas),
                   response_meta=ColumnMeta("y", kind="continuous",
                                            mean=100.0, sd=25.0))


def _theta(arch, seed=71):
    rng = np.random.default_rng(seed)
    return ParamVector(arch, rng.uniform(-1.0, 1.0, arch.r))


def test_disconnected_covariate_has_zero_effect():
    """All-zero incoming weights for x2 make its curve exactly zero."""
    arch = Architecture(p=2, q=2)
    values = _theta(arch).values.copy()
    values[arch.covariate_block(2)] = 0.0
    theta = ParamVector(arch, values)
    data = _dataset()
    cov = _identity_cov(arch.r)
    (curve,) = pce_curve(theta, cov, data, 2)
    for pt in curve.points:
        assert pt.beta_hat == 0.0


def test_zero_step_gives_zero_effect():
    arch = Architecture(p=2, q=2)
    theta = _theta(arch)
    data = _dataset()
    cov = _identity_cov(arch.r)
    (curve,) = pce_curve(theta, cov, data, 1, d=0.0)
    for pt in curve.points:
        assert pt.beta_hat == 0.0
        assert pt.se == 0.0


def test_effect_matches_direct_average_difference():
    """beta(x0) equals the averaged prediction difference computed by hand."""
    arch = Architecture(p=2, q=2)
    theta = _theta(arch)
    data = _dataset()
    cov = _identity_cov(arch.r)
    d = 0.8
    grid = np.array([-0.5, 0.0, 0.7])
    (curve,) = pce_curve(theta, cov, data, 1, d=d, grid=grid)
    for pt, x0 in zip(curve.points, grid):
        x_lo = np.array(data.x)
        x_hi = np.array(data.x)
        x_lo[:, 0] = x0
        x_hi[:, 0] = x0 + d
        want = (np.mean(forward_batch(theta, Dataset(x=x_hi, y=data.y)))
                - np.mean(forward_batch(theta,
                                        Dataset(x=x_lo, y=data.y))))
        assert pt.beta_hat == pytest.approx(float(want), rel=1e-12)


def test_delta_method_gradient_matches_finite_differences():
    """The band SE uses d beta / d theta; check it against forward FD."""
    arch = Architecture(p=2, q=2)
    theta = _theta(arch, seed=72)
    data = _dataset(seed=73)
    rng = np.random.default_rng(74)
    m = rng.normal(size=(arch.r, arch.r))
    sigma = m @ m.T + arch.r * np.eye(arch.r)
    cov = CovarianceEstimate(sigma_hat=sigma, a_matrix=np.eye(arch.r))
    d = 0.6
    x0 = 0.25
    (curve,) = pce_curve(theta, cov, data, 1, d=d, grid=np.array([x0]))
    se = curve.points[0].se

    def beta_at(values):
        th = ParamVector(arch, values)
        x_lo = np.array(data.x)
        x_hi = np.array(data.x)
        x_lo[:, 0] = x0
        x_hi[:, 0] = x0 + d
        return (np.mean(forward_batch(th, Dataset(x=x_hi, y=data.y)))
                - np.mean(forward_batch(th, Dataset(x=x_lo, y=data.y))))

    h = 1e-6
    g = np.empty(arch.r)
    for i in range(arch.r):
        up = theta.values.copy()
        dn = theta.values.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (beta_at(up) - beta_at(dn)) / (2 * h)
    want = float(np.sqrt(g @ sigma @ g))
    assert abs(se - want) / want < 1e-5


def test_confidence_band_geometry():
    arch = Architecture(p=2, q=2)
    theta = _theta(arch)
    data = _dataset()
    cov = _identity_cov(arch.r, scale=0.01)
    (curve,) = pce_curve(theta, cov, data, 1)
    from statnn.special import normal_quantile
    z = normal_quantile(0.975)
    for pt in curve.points:
        assert pt.lo == pytest.approx(pt.beta_hat - z * pt.se, rel=1e-12)
        assert pt.hi == pytest.approx(pt.beta_hat + z * pt.se, rel=1e-12)
        assert pt.se >= 0.0


def test_default_step_is_sample_sd():
    arch = Architecture(p=2, q=1)
    theta = _theta(arch)
    data = _dataset(seed=75)
    cov = _identity_cov(arch.r)
    (curve,) = pce_curve(theta, cov, data, 1)
    assert curve.d == pytest.approx(float(np.std(data.x[:, 0], ddof=1)),
                                    rel=1e-12)
    # default grid spans min(col) .. max(col) - d
    col = data.x[:, 0]
    assert curve.points[0].x == pytest.approx(float(col.min()), rel=1e-12)
    assert curve.points[-1].x == pytest.approx(float(col.max()) - curve.d,
                                               rel=1e-12)


def test_step_spanning_range_gives_one_point_grid():
    arch = Architecture(p=2, q=1)
    data = _dataset(seed=75)
    d = 2.0 * float(np.ptp(data.x[:, 0]))
    (curve,) = pce_curve(_theta(arch), _identity_cov(arch.r), data, 1,
                         d=d)
    assert [pt.x for pt in curve.points] == [float(data.x[:, 0].min())]


def test_negative_step_grid_stays_inside_the_range():
    """A negative step is a decrease: x0 runs from min - d to max, so x0
    and x0 + d both stay in the column's range, and a step spanning the
    range leaves [max].  Positive steps keep their grid."""
    x = np.column_stack([np.linspace(0.0, 10.0, 11), np.zeros(11)])
    data = Dataset(x=x, y=np.zeros(11),
                   column_meta=(ColumnMeta("a"), ColumnMeta("b")))
    assert effect_grid(data, 1, -2.0, points=5).tolist() == [2.0, 4.0, 6.0,
                                                            8.0, 10.0]
    assert effect_grid(data, 1, 2.0, points=5).tolist() == [0.0, 2.0, 4.0,
                                                           6.0, 8.0]
    assert effect_grid(data, 1, -20.0).tolist() == [10.0]
    assert effect_grid(data, 1, 20.0).tolist() == [0.0]


def test_requires_positive_definite_covariance():
    """A band needs a covariance, and with hidden node 2 a copy of node 1
    the penalized sandwich is singular: no covariance, so no curve."""
    arch = Architecture(p=2, q=2)
    values = _theta(arch).values.copy()
    for j in range(arch.p + 1):
        values[arch.omega_index(j, 2)] = values[arch.omega_index(j, 1)]
    values[arch.gamma_index(2)] = values[arch.gamma_index(1)]
    info = observed_information(ParamVector(arch, values), _dataset(),
                                sigma_sq=1.0)
    with pytest.raises(NotPositiveDefiniteError,
                       match="not positive definite"):
        sandwich_covariance(info, lam=0.01)


def test_covariate_index_validation():
    arch = Architecture(p=2, q=1)
    theta = _theta(arch)
    data = _dataset()
    cov = _identity_cov(arch.r)
    with pytest.raises(IndexError):
        pce_curve(theta, cov, data, 0)
    with pytest.raises(IndexError):
        pce_curve(theta, cov, data, 3)
    with pytest.raises(IndexError):
        pce_curve(theta, cov, data, 1, by=3)


def test_curve_refuses_data_with_another_covariate_count():
    """A p = 3 theta on 2-column data is refused by name, as the forward
    pass refuses it, not left to fail inside numpy."""
    arch = Architecture(p=3, q=2)
    with pytest.raises(ShapeError, match="covariate count: expected 3, "
                                         "got 2"):
        pce_curve(_theta(arch), _identity_cov(arch.r), _dataset(p=2), 1)


def test_config_validation():
    arch = Architecture(p=2, q=1)
    theta = _theta(arch)
    data = _dataset()
    cov = _identity_cov(arch.r)
    for kwargs in ({"grid": np.array([1.0, 0.5])}, {"grid": np.array([])},
                   {"grid": np.zeros((2, 2))}, {"d": np.nan},
                   {"d": np.inf}, {"by": 1}):
        with pytest.raises(ValueError):
            pce_curve(theta, cov, data, 1, **kwargs)
    with pytest.raises(ValueError):
        effect_grid(data, 1, points=0)


def test_binary_effect_is_zero_to_one_switch():
    arch = Architecture(p=2, q=2)
    theta = _theta(arch, seed=76)
    data = _dataset(seed=77, dummy_last=True)
    cov = _identity_cov(arch.r)
    (curve,) = pce_curve(theta, cov, data, 2)
    assert curve.d == 1.0 and len(curve.points) == 1
    pt = curve.points[0]
    x0 = np.array(data.x)
    x1 = np.array(data.x)
    x0[:, 1] = 0.0
    x1[:, 1] = 1.0
    want = (np.mean(forward_batch(theta, Dataset(x=x1, y=data.y)))
            - np.mean(forward_batch(theta, Dataset(x=x0, y=data.y))))
    assert pt.beta_hat == pytest.approx(float(want), rel=1e-12)
    assert pt.x == 0.0


def test_binary_effect_refuses_step_other_than_one():
    """A dummy's only effect is the 0 -> 1 switch: step 1 on grid [0],
    whatever grid size is asked for; any other step is refused."""
    arch = Architecture(p=2, q=1)
    theta = _theta(arch)
    data = _dataset(dummy_last=True)
    cov = _identity_cov(arch.r)
    assert effect_grid(data, 2).tolist() == [0.0]
    assert effect_grid(data, 2, 1.0, points=7).tolist() == [0.0]
    for d in (0.5, 2.0, 0.0, -1.0):
        with pytest.raises(DataError):
            pce_curve(theta, cov, data, 2, d=d)
        with pytest.raises(DataError):
            effect_grid(data, 2, d)
    assert (pce_curve(theta, cov, data, 2, d=1.0)
            == pce_curve(theta, cov, data, 2))


def test_conditioning_produces_one_curve_per_value():
    """The pins are the conditioning column's sample mean -/+ one sd."""
    arch = Architecture(p=2, q=2)
    theta = _theta(arch)
    data = _dataset()
    cov = _identity_cov(arch.r)
    curves = pce_curve(theta, cov, data, 1, by=2)
    col = data.x[:, 1]
    mean = col.sum() / col.size
    sd = np.sqrt(((col - mean) ** 2).sum() / (col.size - 1))
    assert len(curves) == 2
    assert [c.condition_label for c in curves] == [
        f"x2={mean - sd:.6g}", f"x2={mean + sd:.6g}"]


def test_conditioning_pins_covariate():
    """A pinned curve equals the unconditioned curve on data whose
    conditioning column is constant at the pin."""
    arch = Architecture(p=2, q=2)
    theta = _theta(arch, seed=78)
    data = _dataset(seed=79)
    cov = _identity_cov(arch.r)
    grid = np.array([-0.3, 0.4])
    curves = pce_curve(theta, cov, data, 1, d=0.5, grid=grid, by=2)
    pins = conditioning_values(data, 2)
    assert len(curves) == len(pins) == 2
    for curve, pin in zip(curves, pins):
        pinned_x = np.array(data.x)
        pinned_x[:, 1] = pin
        pinned = Dataset(x=pinned_x, y=data.y, column_meta=data.column_meta,
                         response_meta=data.response_meta)
        (direct,) = pce_curve(theta, cov, pinned, 1, d=0.5, grid=grid)
        for a, b in zip(curve.points, direct.points):
            assert a.beta_hat == pytest.approx(b.beta_hat, rel=1e-12)
            assert a.se == pytest.approx(b.se, rel=1e-12)


def test_no_interaction_when_additive():
    """With one hidden node per covariate and no cross connections the
    conditional curves coincide exactly."""
    arch = Architecture(p=2, q=2)
    theta = ParamVector.from_parts(arch, np.array([[0.2, -0.4],
                                                   [1.3, 0.0],    # x1: node 1
                                                   [0.0, 0.9]]),  # x2: node 2
                                   np.array([0.5, 2.0, -1.5]))
    data = _dataset(seed=80)
    cov = _identity_cov(arch.r)
    lo, hi = pce_curve(theta, cov, data, 1, by=2)
    for a, b in zip(lo.points, hi.points):
        assert abs(a.beta_hat - b.beta_hat) <= 1e-12


def test_interaction_screen_separates_when_coupled():
    arch = Architecture(p=2, q=2)
    w, g = (a.copy() for a in arch.split(_theta(arch, seed=81).values))
    # couple both inputs strongly into both nodes
    w[1:] = [[-2.0, 2.0], [2.0, -2.0]]
    g[1:] = [3.0, -3.0]
    theta = ParamVector.from_parts(arch, w, g)
    data = _dataset(seed=82)
    cov = _identity_cov(arch.r)
    lo, hi = pce_curve(theta, cov, data, 1, by=2)
    gap = max(abs(a.beta_hat - b.beta_hat)
              for a, b in zip(lo.points, hi.points))
    assert gap > 0.01


def test_interaction_screen_dummy_conditioner_uses_levels():
    arch = Architecture(p=2, q=2)
    theta = _theta(arch, seed=83)
    data = _dataset(seed=84, dummy_last=True)
    cov = _identity_cov(arch.r)
    curves = pce_curve(theta, cov, data, 1, by=2)
    assert [c.condition_label for c in curves] == ["x2=0", "x2=1"]


def test_to_original_scale_continuous():
    arch = Architecture(p=2, q=2)
    theta = _theta(arch, seed=85)
    data = _dataset(seed=86)
    cov = _identity_cov(arch.r, scale=0.01)
    (std,) = pce_curve(theta, cov, data, 1, d=0.5,
                       grid=np.array([-1.0, 0.0, 1.0]))
    orig = to_original_scale(std, data)
    meta = data.column_meta[0]
    sy = data.response_meta.sd
    assert orig.scale == "original"
    assert orig.d == pytest.approx(0.5 * meta.sd, rel=1e-12)
    for a, b in zip(std.points, orig.points):
        assert b.x == pytest.approx(a.x * meta.sd + meta.mean, rel=1e-12)
        assert b.beta_hat == pytest.approx(a.beta_hat * sy, rel=1e-12)
        assert b.se == pytest.approx(a.se * sy, rel=1e-12)
        assert b.lo == pytest.approx(a.lo * sy, rel=1e-12)
        assert b.hi == pytest.approx(a.hi * sy, rel=1e-12)


def test_to_original_scale_dummy_keeps_grid():
    arch = Architecture(p=2, q=2)
    theta = _theta(arch, seed=87)
    data = _dataset(seed=88, dummy_last=True)
    cov = _identity_cov(arch.r)
    (std,) = pce_curve(theta, cov, data, 2)
    orig = to_original_scale(std, data)
    assert orig.points[0].x == 0.0
    assert orig.d == 1.0
    assert orig.points[0].beta_hat == pytest.approx(
        std.points[0].beta_hat * data.response_meta.sd, rel=1e-12)


def test_to_original_scale_rejects_double_application():
    arch = Architecture(p=2, q=1)
    theta = _theta(arch)
    data = _dataset()
    cov = _identity_cov(arch.r)
    (std,) = pce_curve(theta, cov, data, 1)
    orig = to_original_scale(std, data)
    with pytest.raises(DataError):
        to_original_scale(orig, data)


def test_sandwich_end_to_end_band_positive():
    """Realistic pipeline: fitted covariance gives strictly positive SEs."""
    from statnn.fit import FitConfig, fit

    rng = np.random.default_rng(89)
    arch = Architecture(p=2, q=2)
    truth = _theta(arch, seed=90)
    x = rng.normal(size=(150, 2))
    y = forward_batch(truth, Dataset(x=x, y=np.zeros(150)))
    y = y + 0.2 * rng.normal(size=150)
    data = Dataset(x=x, y=y)
    lam = 0.01
    result = fit(arch, data, lam, FitConfig(n_restarts=4, seed=91))
    info = observed_information(result.theta_hat, data,
                                sigma_sq=result.sigma_sq_hat)
    cov = sandwich_covariance(info, lam=0.01)
    (curve,) = pce_curve(result.theta_hat, cov, data, 1)
    assert all(pt.se > 0.0 for pt in curve.points)
    assert all(pt.lo < pt.beta_hat < pt.hi for pt in curve.points)


# ---------------------------------------------------------------------------
# Equivalence with the per-point definition
# ---------------------------------------------------------------------------

def _per_point_oracle(arch, theta, sigma, data, j, d, grid, pin=None):
    """(x, beta, se, lo, hi) per grid point, one point at a time: the
    averaged prediction difference and the averaged n x r prediction
    gradients from ``prediction_gradient``."""
    x_lo = np.array(data.x)
    if pin is not None:
        x_lo[:, pin[0] - 1] = pin[1]
    x_hi = x_lo.copy()
    z = normal_quantile(0.975)
    rows = []
    for x0 in grid:
        x_lo[:, j - 1] = x0
        x_hi[:, j - 1] = x0 + d
        beta = float(np.mean(forward_batch(theta, Dataset(x_hi, data.y)))
                     - np.mean(forward_batch(theta, Dataset(x_lo, data.y))))
        g = (prediction_gradient(theta, x_hi).mean(axis=0)
             - prediction_gradient(theta, x_lo).mean(axis=0))
        se = float(np.sqrt(max(float(g @ sigma @ g), 0.0)))
        rows.append((float(x0), beta, se, beta - z * se, beta + z * se))
    return np.array(rows)


def _random_cov(r, seed):
    m = np.random.default_rng(seed).normal(size=(r, r))
    sigma = m @ m.T / r + 0.1 * np.eye(r)
    return CovarianceEstimate(sigma_hat=sigma, a_matrix=np.eye(r))


def _as_rows(points):
    return np.array([(pt.x, pt.beta_hat, pt.se, pt.lo, pt.hi)
                     for pt in points])


def _assert_matches_oracle(points, want):
    """Every field to 1e-10 relative.  Not bitwise: the batched pass
    sums the averaged gradient in a different order."""
    got = _as_rows(points)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[:, 0], want[:, 0])
    np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=1e-10, atol=0)


@pytest.mark.parametrize("family", [pytest.param("gaussian", id="identity"),
                                    pytest.param("bernoulli", id="logistic")])
def test_batched_curve_matches_per_point_oracle(family):
    arch = Architecture(p=3, q=2, family=family)
    theta = _theta(arch, seed=92)
    data = _dataset(seed=93, n=80, p=3)
    cov = _random_cov(arch.r, seed=94)
    (curve,) = pce_curve(theta, cov, data, 2, d=0.7)
    want = _per_point_oracle(arch, theta, cov.sigma_hat, data, 2, 0.7,
                             np.array([pt.x for pt in curve.points]))
    _assert_matches_oracle(curve.points, want)


def test_batched_conditioned_curve_matches_per_point_oracle():
    arch = Architecture(p=3, q=3, family="bernoulli")
    theta = _theta(arch, seed=95)
    data = _dataset(seed=96, n=70, p=3, dummy_last=True)
    cov = _random_cov(arch.r, seed=97)
    grid = np.linspace(-1.5, 1.2, 9)
    curves = pce_curve(theta, cov, data, 1, d=0.4, grid=grid, by=3)
    assert len(curves) == 2
    for curve, pin in zip(curves, (0.0, 1.0)):
        want = _per_point_oracle(arch, theta, cov.sigma_hat, data, 1, 0.4,
                                 grid, pin=(3, pin))
        _assert_matches_oracle(curve.points, want)


def test_batched_binary_effect_matches_per_point_oracle():
    arch = Architecture(p=2, q=2)
    theta = _theta(arch, seed=98)
    data = _dataset(seed=99, dummy_last=True)
    cov = _random_cov(arch.r, seed=100)
    pt = pce_curve(theta, cov, data, 2)[0].points[0]
    want = _per_point_oracle(arch, theta, cov.sigma_hat, data, 2, 1.0,
                             np.array([0.0]))
    _assert_matches_oracle((pt,), want)


def test_batched_curve_over_several_chunks_matches_per_point_oracle():
    from statnn.effects import _CHUNK_ELEMENTS

    arch = Architecture(p=3, q=3)
    theta = _theta(arch, seed=101)
    data = _dataset(seed=102, n=2000, p=3)
    cov = _random_cov(arch.r, seed=103)
    (curve,) = pce_curve(theta, cov, data, 3)
    assert len(curve.points) == 101
    assert 101 * data.n * arch.q > 5 * _CHUNK_ELEMENTS
    want = _per_point_oracle(arch, theta, cov.sigma_hat, data, 3, curve.d,
                             np.array([pt.x for pt in curve.points]))
    _assert_matches_oracle(curve.points, want)
