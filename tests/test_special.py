"""Scalar special-function checks against independent oracles.

The scipy comparisons use scipy only as an oracle: the package computes
these functions itself so that a query never imports scipy.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaincc, ndtri

from statnn.inference import Z_95
from statnn.special import chi_square_survival, normal_quantile

from oracles import survival_by_quadrature


def test_df2_closed_form():
    """With two degrees of freedom the survival function is exp(-x/2)."""
    assert abs(chi_square_survival(4.0, 2.0) - math.exp(-2.0)) < 1e-10
    for x in (0.1, 1.0, 7.5, 30.0):
        assert abs(chi_square_survival(x, 2.0) - math.exp(-x / 2.0)) < 1e-12


def test_df1_critical_value():
    """The 5% critical value of chi-square(1) is 3.841459."""
    assert abs(chi_square_survival(3.841459, 1.0) - 0.05) < 1e-6


def test_against_quadrature_oracle():
    """Series and continued-fraction branches agree with direct integration."""
    for x, df in [(0.5, 1.0), (3.0, 1.0), (2.0, 3.0), (10.0, 4.0),
                  (1.7, 2.6), (12.0, 6.0), (25.0, 10.0)]:
        oracle = survival_by_quadrature(x, df)
        assert abs(chi_square_survival(x, df) - oracle) < 1e-8, (x, df)


def test_against_erfc_for_df1():
    """For df = 1 the survival function reduces to erfc(sqrt(x/2))."""
    for x in (0.2, 1.0, 3.84, 9.0, 28.0):
        oracle = math.erfc(math.sqrt(x / 2.0))
        assert abs(chi_square_survival(x, 1.0) - oracle) < 1e-13


@pytest.mark.parametrize("df", [0.25, 0.5, 0.9, 1.0, 1.37, 2.0, 2.6, 5.0,
                                13.3, 40.0])
def test_against_scipy_gammaincc(df):
    """Q(df/2, x/2) from scipy, across fractional df below 1, both sides
    of the series / continued-fraction switch at x/2 = df/2 + 1, and far
    tails down to Q ~ 1e-290."""
    a = df / 2.0
    switch = 2.0 * (a + 1.0)
    xs = [1e-12, 1e-6, 0.01, 0.3, 1.0, 3.84, 9.0, 28.0, 100.0, 400.0, 1000.0,
          1300.0]
    xs += [switch * (1.0 + e) for e in (-1e-9, -1e-3, 0.0, 1e-3, 1e-9)]
    checked = 0
    for x in xs:
        oracle = float(gammaincc(a, x / 2.0))
        if oracle <= 1e-290:
            continue
        got = chi_square_survival(x, df)
        assert abs(got - oracle) <= 1e-12 * oracle, (x, df, got, oracle)
        checked += 1
    assert checked >= len(xs) - 1


def test_monotone_decreasing_in_x():
    """Survival probability never increases as the statistic grows."""
    for df in (1.0, 2.0, 2.37, 5.0):
        xs = np.linspace(0.0, 40.0, 1000)
        vals = [chi_square_survival(x, df) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_edge_cases():
    assert chi_square_survival(0.0, 3.0) == 1.0
    assert 0.0 <= chi_square_survival(1e4, 1.0) < 1e-20
    assert chi_square_survival(math.inf, 0.5) == 0.0
    with pytest.raises(ValueError):
        chi_square_survival(-1.0, 3.0)
    with pytest.raises(ValueError):
        chi_square_survival(1.0, 0.0)
    with pytest.raises(ValueError):
        chi_square_survival(1.0, -2.0)


def test_normal_quantile_matches_erfc_inverse():
    """Quantile then survival round-trips through math.erfc."""
    for p in (0.001, 0.025, 0.05, 0.5, 0.8, 0.975, 0.999):
        z = normal_quantile(p)
        # Phi(z) should equal p; Phi via erfc for an independent check.
        phi = 0.5 * math.erfc(-z / math.sqrt(2.0))
        assert abs(phi - p) < 1e-12, p


def test_normal_quantile_95():
    assert abs(normal_quantile(0.975) - 1.959963984540054) < 1e-9
    # Bands at level 0.95 use exactly the module constant.
    assert Z_95 == normal_quantile(0.5 + 0.95 / 2)


def test_normal_quantile_against_scipy_ndtri():
    """ndtri from scipy over p in [1e-300, 1 - 1e-12], both tails."""
    ps = np.concatenate([np.logspace(-300, -1, 600),
                         np.linspace(0.02, 0.98, 97),
                         0.5 + np.array([-1e-9, 1e-12, 1e-6]),
                         1.0 - np.logspace(-12, -1, 200)])
    for p in ps:
        oracle = float(ndtri(p))
        got = normal_quantile(float(p))
        assert abs(got - oracle) <= 2e-15 * abs(oracle), p


def test_normal_quantile_rejects_bad_p():
    for p in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            normal_quantile(p)
