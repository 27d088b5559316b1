"""Dilogarithm and trilogarithm on [0, 1], plus the constants they pin down.

The evaluators target a relative accuracy of 1e-13 in binary64 (absolute
1e-15 near zero).  Direct power series are used where the terms shrink
geometrically by at least 2x per step; elsewhere the argument is first
reduced through standard reflection identities so that every series the
code actually sums has ratio <= 2/3.
"""

from __future__ import annotations

import math

from .core import EPS, DomainError, EvalResult, adaptive_quad

__all__ = ["dilog", "trilog", "zeta3", "dilog_integral_oracle", "PI2_OVER_6", "ZETA3"]

#: pi^2 / 6, the dilogarithm at 1.
PI2_OVER_6 = math.pi * math.pi / 6.0

#: Apery's constant, the trilogarithm at 1 (zeta(3) = 1.2020569031595942854...).
ZETA3 = 1.2020569031595942854

#: Relative accuracy contract of dilog/trilog on [0, 1].
REL_ACCURACY = 1e-13

_MAX_TERMS = 10_000


def _check_unit_interval(x: float) -> float:
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"polylogarithm argument must lie in [0, 1], got {x}")
    return x


def _power_series(x: float, s: int) -> tuple[float, float, bool]:
    """Sum x^k / k^s for k >= 1; |x| must be bounded away from 1.

    Returns (value, tail_estimate, converged).  Terms are added until one
    falls below unit roundoff relative to the partial sum; the term cap is
    a safety net that cannot bind for |x| <= 2/3 and flags non-convergence
    if it somehow does.
    """
    total = 0.0
    term = x
    ax = abs(x)
    k = 1
    while k <= _MAX_TERMS:
        t = term / k**s
        total += t
        if abs(t) <= EPS * abs(total):
            # geometric tail bound plus a rounding allowance that grows with
            # the summation length, as in `legendre_p`
            tail = abs(t) * ax / (1.0 - ax) if ax < 1.0 else abs(t)
            return total, tail + EPS * abs(total) * (1.0 + math.sqrt(k)), True
        term *= x
        k += 1
    return total, abs(term), False


def dilog(x: float) -> EvalResult:
    """Dilogarithm: sum of x^k / k^2 over k >= 1.

    Parameters
    ----------
    x : float
        Argument in [0, 1].

    Returns
    -------
    EvalResult
        Li2(x) with an absolute error estimate.  dilog(0) is exactly 0 and
        dilog(1) is exactly the stored pi^2/6 constant.

    Raises
    ------
    DomainError
        If x lies outside [0, 1].

    Notes
    -----
    For x > 1/2 the argument is reduced through the Euler reflection
    Li2(x) + Li2(1-x) = pi^2/6 - ln(x) ln(1-x), so the series is only ever
    summed at arguments <= 1/2.
    """
    x = _check_unit_interval(x)
    if x == 0.0:
        return EvalResult(0.0, 0.0, True)
    if x == 1.0:
        return EvalResult(PI2_OVER_6, EPS * PI2_OVER_6, True)
    if x <= 0.5:
        value, est, ok = _power_series(x, 2)
        return EvalResult(value, est, ok)
    y = 1.0 - x
    series, est, ok = _power_series(y, 2)
    cross = math.log(x) * math.log1p(-x)
    value = PI2_OVER_6 - cross - series
    return EvalResult(value, est + 2.0 * EPS * (PI2_OVER_6 + abs(cross)), ok)


def trilog(x: float) -> EvalResult:
    """Trilogarithm: sum of x^k / k^3 over k >= 1.

    Same domain, accuracy contract, and result conventions as `dilog`;
    trilog(1) is exactly the stored zeta(3) constant.

    Notes
    -----
    Arguments above 1/2 are reduced by two standard identities chosen so
    every summed series has ratio <= 2/3:

    * x in (1/2, 2/3):  duplication,  Li3(x) = Li3(x^2)/4 - Li3(-x);
    * x in (2/3, 1):    Landen three-term,
      Li3(x) + Li3(1-x) + Li3(1-1/x)
      = zeta(3) + ln(x)^3/6 + (pi^2/6) ln(x) - ln(x)^2 ln(1-x) / 2,
      whose auxiliary arguments lie in [-1/2, 1/3].
    """
    x = _check_unit_interval(x)
    if x == 0.0:
        return EvalResult(0.0, 0.0, True)
    if x == 1.0:
        return EvalResult(ZETA3, EPS * ZETA3, True)
    if x <= 0.5:
        value, est, ok = _power_series(x, 3)
        return EvalResult(value, est, ok)
    if x < 2.0 / 3.0:
        sq, est_sq, ok_sq = _power_series(x * x, 3)
        neg, est_neg, ok_neg = _power_series(-x, 3)
        value = 0.25 * sq - neg
        return EvalResult(value, 0.25 * est_sq + est_neg + 2.0 * EPS * abs(value), ok_sq and ok_neg)
    lx = math.log(x)
    l1mx = math.log1p(-x)
    known = ZETA3 + lx**3 / 6.0 + PI2_OVER_6 * lx - 0.5 * lx * lx * l1mx
    s_a, est_a, ok_a = _power_series(1.0 - x, 3)
    s_b, est_b, ok_b = _power_series(1.0 - 1.0 / x, 3)
    value = known - s_a - s_b
    est = est_a + est_b + 4.0 * EPS * (ZETA3 + abs(PI2_OVER_6 * lx) + abs(lx * lx * l1mx))
    return EvalResult(value, est, ok_a and ok_b)


def zeta3() -> float:
    """Riemann zeta at 3 (Apery's constant) to full binary64 precision."""
    return ZETA3


def dilog_integral_oracle(x: float, tol: float) -> EvalResult:
    """Dilogarithm from its defining integral of -ln(1-t)/t over [0, x].

    Evaluated by adaptive quadrature to absolute tolerance ``tol``.  This
    path shares no code with the series evaluator in `dilog` and exists to
    cross-check it.

    Parameters
    ----------
    x : float
        Upper integration limit in [0, 1).
    tol : float
        Absolute quadrature tolerance, > 0.
    """
    x = float(x)
    if not (0.0 <= x < 1.0):
        raise DomainError(f"integral oracle requires x in [0, 1), got {x}")
    if x == 0.0:
        return EvalResult(0.0, 0.0, True)

    def integrand(t: float) -> float:
        if t == 0.0:
            return 1.0  # limit of -ln(1-t)/t as t -> 0
        return -math.log1p(-t) / t

    return adaptive_quad(integrand, 0.0, x, tol)
