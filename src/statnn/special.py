"""Scalar special functions used by the testing machinery.

Thin checked wrappers over :mod:`scipy.special`: the chi-square survival
function is the regularized upper incomplete gamma function
Q(df / 2, x / 2), and the standard-normal quantile is ``ndtri``.  Both
are accurate to close to machine precision, including for the
non-integer degrees of freedom that ridge-shrunk effective parameter
counts produce.
"""

from __future__ import annotations

from scipy import special


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
    return float(special.gammaincc(df / 2.0, x / 2.0))


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF, accurate to double precision.

    Used for symmetric confidence-band multipliers; normal_quantile(0.975)
    returns 1.959964 to the printed precision.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p}")
    return float(special.ndtri(p))
