"""Dilogarithm and trilogarithm on [0, 1], plus the constants they pin down.

The evaluators target a relative accuracy of 1e-13 in binary64 (absolute
1e-15 near zero).  Each sums one short fixed series by Horner's rule, with
no reflection or Landen step: at or below x = 1/2 the Bernoulli series in
t = -ln(1-x), above it the expansion about x = 1 in mu = ln(x).  Both
variables stay within ln 2 in size, where at most 20 terms reach full
binary64 precision.

Each branch is compiled whole, once, at import, by `core._compile` into one
function of its own variable, its tables written as Horner expressions of the
floats' reprs: bit for bit the loop over them.  Results skip the named
tuple's Python-level ``__new__`` via `core._result`.  `legendre.d3p_dnu3_0`
calls Li3's two branches and the branch of its own first integral.
"""

from __future__ import annotations

import math

from .core import EPS, DomainError, EvalResult, _compile, _result, adaptive_quad

__all__ = ["dilog", "trilog", "zeta3", "dilog_integral_oracle", "PI2_OVER_6", "ZETA3"]

#: pi^2 / 6, the dilogarithm at 1.
PI2_OVER_6 = math.pi * math.pi / 6.0

#: Apery's constant, the trilogarithm at 1 (zeta(3) = 1.2020569031595942854...).
ZETA3 = 1.2020569031595942854


def _horner(coeffs: tuple[float, ...]) -> str:
    """Source of sum c_k y^k by Horner's rule from the top term, in the
    floats' reprs, which round-trip: bit for bit the loop."""
    body = repr(coeffs[-1])
    for c in coeffs[-2::-1]:
        body = f"({body}) * y + {c!r}"
    return body


#: Li2(x) = t - t^2/4 + sum_k B_(2k+2) t^(2k+3) / (2k+3)! with t = -ln(1-x)
#: ('t Hooft & Veltman 1979; DLMF 25.12): the odd Bernoulli numbers past B_1
#: vanish, so entry k is B_(2k+2) / (2k+3)!, the coefficient of t^(2k+3).
_LI2_ODD = (
    0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06,
    -9.185773074661964e-08, 1.8978869988971e-09, -4.0647616451442256e-11,
    8.921691020456452e-13, -1.9939295860721074e-14, 4.518980029619918e-16,
)
#: The same terms integrated once more, for d3's first integral (`_li2_ratio_integral`):
#: entry k is B_(2k+2) / ((2k+4) (2k+3)!), the coefficient of S^(2k+4).
_LI2_INTEGRAL = tuple(c / (2 * k + 4) for k, c in enumerate(_LI2_ODD))

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

#: Li2(e^mu) and Li3(e^mu) expanded about x = 1 in mu = ln(x) (DLMF 25.12;
#: Wood, "The Computation of Polylogarithms", 1992; see `dilog`, `trilog`),
#: convergent for |mu| < 2 pi.  zeta vanishes at the even negative integers;
#: entry j is the coefficient zeta(-1-2j) / (2j+3)! of mu^(2j+3) in Li2 and
#: zeta(-1-2j) / (2j+4)! of mu^(2j+4) in Li3, zeta(-m) = -B_(m+1) / (m+1).
_LI2_NEAR1 = (
    -0.013888888888888888, 6.944444444444444e-05, -7.873519778281683e-07,
    1.1482216343327455e-08, -1.8978869988971e-10, 3.387301370953521e-12,
    -6.372636443183181e-14, 1.2462059912950672e-15,
)
_LI3_NEAR1 = (
    -0.003472222222222222, 1.1574074074074073e-05, -9.841899722852104e-08,
    1.1482216343327454e-09, -1.5815724990809165e-11, 2.4195009792525154e-13,
    -3.982897776989488e-15,
)

#: The branches, each compiled whole as one function of its own variable: Li2
#: and Li3 from t = -ln(1-x) for x <= 1/2 and from mu = ln(x) for 1/2 < x < 1,
#: which `dilog` and `trilog` call, and d3's first integral from S (6 times the
#: integral of Li2(t)/(1-t) over [0, w], S = -ln(1-w); see `legendre.d3p_dnu3_0`).
_li2_t = _compile(
    "t", "y = t * t", f"return t * (1.0 - t * (0.25 - t * ({_horner(_LI2_ODD)})))")
_li2_mu = _compile(
    "mu", "y = mu * mu",
    f"return {PI2_OVER_6!r} + mu * (1.0 - log(-mu) - mu * (0.25 - mu * ({_horner(_LI2_NEAR1)})))",
    log=math.log)
_li3_t = _compile("y", f"return y * ({_horner(_LI3)})")
_li3_mu = _compile(
    "mu", "y = mu * mu",
    f"return {ZETA3!r} + mu * ({PI2_OVER_6!r} + mu * (0.75 - 0.5 * log(-mu)"
    f" - mu * ({1.0 / 12.0!r} - mu * ({_horner(_LI3_NEAR1)}))))", log=math.log)
_li2_ratio_integral = _compile(
    "s", "y = s * s", f"return y * (3.0 - s * (0.5 - 6.0 * s * ({_horner(_LI2_INTEGRAL)})))")

# Error bounds, with EPS one ulp of 1.  At or below 1/2, 0 <= t <= ln 2 and
# sum_n |c_n| (ln 2)^n <= 1.31 over the coefficient c_n of t^(n+1) in either
# t-series.  Horner's rule rounds term n at most 2n + 2 times (also when Li2
# is summed in t^2) and t carries up to one ulp: under 3.3 EPS t in all.
_BELOW_HALF_ERR = 6.0 * EPS  # times t
# Above 1/2, -ln 2 <= mu < 0.  The terms are at most zeta(2), 0.95, 0.12 and
# 0.005 (Li2) and zeta(3), 1.14, 0.45, 0.03 and 0.001 (Li3) in size; mu and
# ln(-mu) carry up to one ulp each, an error in mu moves Li2 by -ln(1-x) and
# Li3 by Li2(x) times it, and mu ln(-mu), mu^2 ln(-mu) stay below 0.37.  All
# roundings, maximised over the branch, come to under 2.9 EPS (Li2) and
# 2.5 EPS (Li3).  Past every table the terms sum below 1e-19 (times t in t).
_ABOVE_HALF_ERR = 4.0 * EPS


def _check_unit_interval(x: float) -> float:
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"polylogarithm argument must lie in [0, 1], got {x}")
    return x + 0.0  # -0.0 becomes +0.0: Li(0) is exactly 0


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
    For x <= 1/2, the Bernoulli series in t = -ln(1-x) <= ln 2, summed over
    its nonzero terms: t - t^2/4 + t^3 times 9 fixed terms in t^2.  Above
    1/2, the expansion about x = 1 in mu = ln(x), |mu| <= ln 2:
    zeta(2) + mu (1 - ln(-mu)) - mu^2/4 + mu^3 times 8 fixed terms in mu^2.
    abs_err_est is 6 EPS t at or below 1/2 and 4 EPS above, with EPS one
    ulp of 1; `_BELOW_HALF_ERR` and `_ABOVE_HALF_ERR` derive both bounds.
    """
    x = _check_unit_interval(x)
    if x <= 0.5:
        t = -math.log1p(-x)
        return _result((_li2_t(t), _BELOW_HALF_ERR * t, True))
    if x == 1.0:
        return _result((PI2_OVER_6, EPS * PI2_OVER_6, True))
    return _result((_li2_mu(math.log(x)), _ABOVE_HALF_ERR, True))


def trilog(x: float) -> EvalResult:
    """Trilogarithm: sum of x^k / k^3 over k >= 1.

    Same domain, accuracy contract, and result conventions as `dilog`;
    trilog(1) is exactly the stored zeta(3) constant.

    Notes
    -----
    For x <= 1/2, the series in t = -ln(1-x) <= ln 2, 20 fixed terms.  Above
    1/2, the expansion about x = 1 in mu = ln(x), |mu| <= ln 2:
    zeta(3) + zeta(2) mu + (3/4 - ln(-mu)/2) mu^2 - mu^3/12 + mu^4 times
    7 fixed terms in mu^2.  Error bounds as for `dilog`.
    """
    x = _check_unit_interval(x)
    if x <= 0.5:
        t = -math.log1p(-x)
        return _result((_li3_t(t), _BELOW_HALF_ERR * t, True))
    if x == 1.0:
        return _result((ZETA3, EPS * ZETA3, True))
    return _result((_li3_mu(math.log(x)), _ABOVE_HALF_ERR, True))


def zeta3() -> float:
    """Riemann zeta at 3 (Apery's constant) to full binary64 precision."""
    return ZETA3


def dilog_integral_oracle(x: float, tol: float) -> EvalResult:
    """Dilogarithm from its defining integral of -ln(1-t)/t over [0, x].

    Evaluated by adaptive quadrature to absolute tolerance ``tol``, in
    s = -ln(1-t): the integral of s/(e^s - 1) over [0, -ln(1-x)], which is
    smooth where the integrand in t has a log singularity at t = 1.  This
    path shares no code with the series evaluator in `dilog` and exists to
    cross-check it.

    Parameters
    ----------
    x : float
        Upper integration limit in [0, 1).
    tol : float
        Absolute quadrature tolerance, positive and finite, else `DomainError`.

    Returns
    -------
    EvalResult
        `adaptive_quad`'s result; exactly (0.0, 0.0, True) at x = +-0.0.
    """
    x = float(x)
    if not (0.0 <= x < 1.0):
        raise DomainError(f"integral oracle requires x in [0, 1), got {x}")

    def integrand(s: float) -> float:
        if s == 0.0:
            return 1.0  # limit of s/(e^s - 1) as s -> 0
        return s / math.expm1(s)

    return adaptive_quad(integrand, 0.0, -math.log1p(-x), tol)
