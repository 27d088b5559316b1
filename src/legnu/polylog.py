"""Dilogarithm and trilogarithm on [0, 1], plus the constants they pin down.

The evaluators target a relative accuracy of 1e-13 in binary64 (absolute
1e-15 near zero).  Both sum a fixed Bernoulli series in t = -ln(1-x) by
Horner's rule; above x = 1/2 the argument is first reduced through a
reflection identity, so the series is only summed at |t| <= ln 2, where
20 terms reach full binary64 precision.
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

#: Li2(x) = sum_n B_n t^(n+1) / (n+1)! with t = -ln(1-x) and B_1 = -1/2
#: ('t Hooft & Veltman 1979; DLMF 25.12); entry n is B_n / (n+1)!.
_LI2 = (
    1.0, -0.25, 0.027777777777777776, 0.0, -0.0002777777777777778, 0.0, 4.72411186696901e-06,
    0.0, -9.185773074661964e-08, 0.0, 1.8978869988971e-09, 0.0, -4.0647616451442256e-11, 0.0,
    8.921691020456452e-13, 0.0, -1.9939295860721074e-14, 0.0, 4.518980029619918e-16,
)

#: Li3(x) = sum_N c_N t^(N+1), integrated from dLi3/dt = Li2 / (e^t - 1):
#: c_N = (1/(N+1)) sum_{k<=N} B_k B_(N-k) / ((k+1)! (N-k)!).
_LI3 = (
    1.0, -0.375, 0.0787037037037037, -0.008680555555555556, 0.00012962962962962963,
    8.101851851851852e-05, -3.4193571608537595e-06, -1.328656462585034e-06,
    8.660871756109851e-08, 2.52608759553204e-08, -2.144694468364065e-09,
    -5.140110622012979e-10, 5.24958211460083e-11, 1.0887754406636318e-11,
    -1.2779396094493695e-12, -2.369824177308745e-13, 3.104357887965462e-14,
    5.261758629912506e-15, -7.538479549949265e-16, -1.1862322577752286e-16,
)


def _check_unit_interval(x: float) -> float:
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"polylogarithm argument must lie in [0, 1], got {x}")
    return x


def _t_series(t: float, coeffs: tuple[float, ...]) -> tuple[float, float]:
    """Sum c_n t^(n+1) over a coefficient table by Horner's rule.

    Returns (value, error bound) for |t| <= ln 2.  There every table has
    sum_n |c_n| (ln 2)^n <= 1.31.  Horner's rule rounds term n at most
    2n + 2 times and t carries up to one ulp, which costs under 3.3 EPS |t|
    in all, and the terms past the table sum to less than 1e-19 |t|.
    """
    total = 0.0
    for c in reversed(coeffs):
        total = total * t + c
    return total * t, 6.0 * EPS * abs(t)


def dilog(x: float) -> EvalResult:
    """Dilogarithm: sum of x^k / k^2 over k >= 1.

    Parameters
    ----------
    x : float
        Argument in [0, 1].

    Returns
    -------
    EvalResult
        Li2(x) with an absolute error bound.  dilog(0) is exactly 0 and
        dilog(1) is exactly the stored pi^2/6 constant.

    Raises
    ------
    DomainError
        If x lies outside [0, 1].

    Notes
    -----
    Summed as the Bernoulli series in t = -ln(1-x), 19 fixed terms.  For
    x > 1/2 the argument is first reduced through the Euler reflection
    Li2(x) + Li2(1-x) = pi^2/6 - ln(x) ln(1-x), where Li2(1-x) has
    t = -ln(x); so |t| <= ln 2 wherever the series is summed.
    """
    x = _check_unit_interval(x)
    if x == 0.0:
        return EvalResult(0.0, 0.0, True)
    if x == 1.0:
        return EvalResult(PI2_OVER_6, EPS * PI2_OVER_6, True)
    if x <= 0.5:
        value, est = _t_series(-math.log1p(-x), _LI2)
        return EvalResult(value, est, True)
    lx = math.log(x)
    series, est = _t_series(-lx, _LI2)
    cross = lx * math.log1p(-x)
    value = PI2_OVER_6 - cross - series
    return EvalResult(value, est + 2.0 * EPS * (PI2_OVER_6 + abs(cross)), True)


def trilog(x: float) -> EvalResult:
    """Trilogarithm: sum of x^k / k^3 over k >= 1.

    Same domain, accuracy contract, and result conventions as `dilog`;
    trilog(1) is exactly the stored zeta(3) constant.

    Notes
    -----
    Summed as the Bernoulli series in t = -ln(1-x), 20 fixed terms.  For
    x > 1/2 the argument is first reduced by the Landen three-term identity
    Li3(x) + Li3(1-x) + Li3(1-1/x)
    = zeta(3) + ln(x)^3/6 + (pi^2/6) ln(x) - ln(x)^2 ln(1-x) / 2,
    whose auxiliary arguments have t = -ln(x) and t = ln(x); so |t| <= ln 2
    wherever the series is summed.
    """
    x = _check_unit_interval(x)
    if x == 0.0:
        return EvalResult(0.0, 0.0, True)
    if x == 1.0:
        return EvalResult(ZETA3, EPS * ZETA3, True)
    if x <= 0.5:
        value, est = _t_series(-math.log1p(-x), _LI3)
        return EvalResult(value, est, True)
    lx = math.log(x)
    l1mx = math.log1p(-x)
    known = ZETA3 + lx**3 / 6.0 + PI2_OVER_6 * lx - 0.5 * lx * lx * l1mx
    s_a, est_a = _t_series(-lx, _LI3)
    s_b, est_b = _t_series(lx, _LI3)
    value = known - s_a - s_b
    est = est_a + est_b + 4.0 * EPS * (ZETA3 + abs(PI2_OVER_6 * lx) + abs(lx * lx * l1mx))
    return EvalResult(value, est, True)


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
