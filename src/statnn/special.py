"""Scalar special functions used by the testing machinery.

These live here rather than being taken from :mod:`scipy.special`
because importing that package costs about 300 ms of every cold
``import statnn``, while a one-shot ``statnn summary`` does about 15 ms
of work; see ``tests/test_special.py`` for the scipy oracles they are
checked against.

The chi-square survival function is the regularized upper incomplete
gamma function Q(df / 2, x / 2), computed with the classical series /
continued-fraction split: the lower-tail series for x < a + 1 and a
modified Lentz continued fraction otherwise.  Both branches are accurate
to close to machine precision, including for the non-integer degrees of
freedom that ridge-shrunk effective parameter counts produce.

The standard-normal quantile is :meth:`statistics.NormalDist.inv_cdf`
(Wichura's AS241 algorithm), accurate to double precision.
"""

from __future__ import annotations

import math
from statistics import NormalDist

_MAX_ITER = 500
_EPS = 1e-15
_TINY = 1e-300

_STANDARD_NORMAL = NormalDist()


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by series, for x < a + 1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by a modified Lentz
    continued fraction, for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi_square_survival(x: float, df: float) -> float:
    """P(X > x) for X ~ chi-square with ``df`` degrees of freedom.

    ``df`` may be non-integer (effective degrees of freedom from a
    ridge-penalized fit are generically fractional).  Monotone
    decreasing in ``x`` with survival(0, df) = 1.
    """
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if x < 0.0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    a, half_x = df / 2.0, x / 2.0
    if half_x == 0.0:
        return 1.0
    if half_x == math.inf:
        return 0.0
    if half_x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, half_x)
    return _upper_gamma_cf(a, half_x)


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF, accurate to double precision.

    Used for symmetric confidence-band multipliers; normal_quantile(0.975)
    returns 1.959964 to the printed precision.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)
