"""Legendre function of the first kind for real degree, and its
degree-derivatives at degree zero.

P_nu(z) is evaluated on z in (-1, 1] through the Gauss hypergeometric
series in u = (1-z)/2, whose convergence region u < 1 matches the
supported interval exactly.  The first three derivatives with respect to
the degree, taken at degree 0, have closed forms in logarithms, the
dilogarithm and the trilogarithm; a Richardson-extrapolated central
finite-difference oracle is provided to check them independently.

Supported envelope: z in (-1, 1] and |nu| <= 5.  As z -> -1 the first
degree-derivative diverges while the second tends to the finite limit
-pi^2/3; the endpoint itself is outside the domain.
"""

from __future__ import annotations

import math

from .core import EPS, DomainError, EvalResult
from .polylog import _LI2_ODD, ZETA3, _horner, dilog, trilog

__all__ = [
    "legendre_p",
    "dp_dnu0",
    "d2p_dnu2_0",
    "d3p_dnu3_0",
    "maclaurin_p",
    "nu_derivative_oracle",
]

#: Largest |degree| accepted by the series evaluator.
DEGREE_ENVELOPE = 5.0

#: Series term cap; at the default tolerance it is reached for 1 + z below
#: about 4e-4 (3e-4 fails, 4e-4 converges).
MAX_TERMS = 100_000

#: Accuracy contract of the oracle per derivative order: results whose
#: tableau error estimate exceeds these are flagged as non-converged.
ORACLE_ERR_CAP = {1: 1e-8, 2: 1e-7, 3: 1e-5}

_ORACLE_LEVELS = 4  # base step plus three halvings
_ORACLE_STEP = 0.02  # base step in the degree

# Central stencils about degree 0, error O(h^2): order -> (multiple of the
# step, weight) pairs, the sum of weight * P_nu at those degrees being
# h^order times the derivative.  Sum |weight| scales the rounding floor.
_STENCILS = {
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
}

# Li2's odd Bernoulli terms integrated once more: entry k is B_(2k+2) / ((2k+4) (2k+3)!),
# the coefficient of s^(2k+4)
_LI2_INTEGRAL = tuple(c / (2 * k + 4) for k, c in enumerate(_LI2_ODD))


def _check_argument(z: float) -> float:
    z = float(z)
    if not (-1.0 < z <= 1.0):
        raise DomainError(f"argument must lie in (-1, 1], got {z}")
    return z


def _check_degree(nu: float) -> float:
    nu = float(nu)
    if not (abs(nu) <= DEGREE_ENVELOPE):
        raise DomainError(f"degree must satisfy |nu| <= {DEGREE_ENVELOPE}, got {nu}")
    return nu


def legendre_p(nu: float, z: float, tol: float = 1e-14) -> EvalResult:
    """Legendre function of the first kind, P_nu(z), for real degree.

    Sums c_k u^k with u = (1-z)/2, c_0 = 1 and
    c_{k+1} = c_k (k - nu)(k + nu + 1) / (k + 1)^2, stopping once two
    consecutive terms fall below ``tol`` relative to the partial sum.
    For integer degree the series terminates and the usual polynomials
    are recovered exactly; P_nu(1) = 1 for every degree.

    Parameters
    ----------
    nu : float
        Degree, |nu| <= 5.
    z : float
        Argument in (-1, 1].
    tol : float
        Relative truncation tolerance, positive and finite.

    Returns
    -------
    EvalResult
        converged is False when the term cap is reached (at the default
        tolerance, for 1 + z below about 4e-4); the value is then the
        partial sum, with no error bound: abs_err_est is inf.
    """
    nu = _check_degree(nu)
    z = _check_argument(z)
    if not (0.0 < tol < math.inf):
        raise DomainError(f"series tolerance must be positive and finite, got {tol}")
    u = 0.5 * (1.0 - z)
    total = 1.0
    abs_total = 1.0
    coeff = 1.0
    upow = 1.0
    small_run = 0
    for k in range(MAX_TERMS):
        coeff *= (k - nu) * (k + nu + 1.0) / ((k + 1.0) * (k + 1.0))
        upow *= u
        term = coeff * upow
        total += term
        abs_total += abs(term)
        if abs(term) <= tol * abs(total):
            small_run += 1
            if small_run >= 2:
                # tail is geometric-ish with ratio u; add a rounding
                # allowance that grows with the summation length
                tail = abs(term) * u / (1.0 - u)
                est = tail + EPS * abs_total * (1.0 + math.sqrt(k + 1.0))
                return EvalResult(total, est, True)
        else:
            small_run = 0
    return EvalResult(total, math.inf, False)


def dp_dnu0(z: float) -> float:
    """First degree-derivative of P_nu(z) at degree 0: ln((z+1)/2)."""
    z = _check_argument(z)
    # log1p((z-1)/2) loses relative accuracy as z -> -1, where z + 1 is exact
    if z < 0.0:
        return math.log(0.5 * (z + 1.0))
    return math.log1p(0.5 * (z - 1.0))


def d2p_dnu2_0(z: float) -> float:
    """Second degree-derivative of P_nu(z) at degree 0: -2 Li2((1-z)/2).

    Non-positive on the whole interval, zero only at z = 1, and tending
    to -pi^2/3 as z -> -1.
    """
    z = _check_argument(z)
    return -2.0 * dilog(0.5 * (1.0 - z)).value + 0.0


def d3p_dnu3_0(z: float) -> float:
    """Third degree-derivative of P_nu(z) at degree 0.

    With v = (z+1)/2:
    12 Li3(v) - 6 ln(v) Li2(v) - pi^2 ln(v) - 12 zeta(3),
    which vanishes at z = 1 where v = 1.  For z <= 1/2 the closed form is
    evaluated through `trilog` and `dilog` at v <= 3/4 (above v = 1/2 both
    sum their expansion about 1).  Its terms cancel as z -> 1, so for
    z > 1/2 the first integral is summed instead: with w = (1-z)/2, 6 times
    the integral of Li2(t)/(1-t) over [0, w].  The substitution
    s = -ln(1-t) turns it into 6 times the integral of Li2's Bernoulli
    series in s, 3 S^2 - S^3/2 + 6 sum_k B_(2k+2) S^(2k+4) /
    ((2k+4) (2k+3)!) with S = -ln(1-w) <= ln(4/3), which is summed over its
    nonzero terms by Horner's rule in S^2, like the kernels.
    """
    z = _check_argument(z)
    if z > 0.5:
        s = -math.log1p(-0.5 * (1.0 - z))
        return s * s * (3.0 - s * (0.5 - 6.0 * s * _horner(s * s, _LI2_INTEGRAL))) + 0.0
    v = 0.5 * (z + 1.0)
    lv = math.log(v)
    return (
        12.0 * trilog(v).value
        - 6.0 * lv * dilog(v).value
        - math.pi * math.pi * lv
        - 12.0 * ZETA3
    ) + 0.0


def _degree_partial_sums(nu: float, d1: float, d2: float,
                         d3: float) -> tuple[float, float, float, float]:
    """Partial sums of the degree expansion about 0 for orders 0 through 3,
    given the first three degree-derivatives at 0 (no domain checks)."""
    s1 = 1.0 + nu * d1
    s2 = s1 + nu * nu / 2.0 * d2
    return 1.0, s1, s2, s2 + nu**3 / 6.0 * d3


def maclaurin_p(nu: float, z: float, order: int = 3) -> float:
    """Degree-expansion approximant of P_nu(z) about degree 0.

    Sums nu^k / k! times the k-th degree-derivative at 0 for k up to
    ``order``, using the closed forms above for the coefficients.  The
    order-3 truncation error scales like nu^4.

    Parameters
    ----------
    order : int
        Truncation order, 0 through 3.
    """
    nu = _check_degree(nu)
    z = _check_argument(z)
    if type(order) is not int or not 0 <= order <= 3:
        raise DomainError(f"truncation order must be an int in 0..3, got {order!r}")
    # coefficients above the order are not evaluated; 0.0 stands in for them
    d1 = dp_dnu0(z) if order >= 1 else 0.0
    d2 = d2p_dnu2_0(z) if order >= 2 else 0.0
    d3 = d3p_dnu3_0(z) if order >= 3 else 0.0
    return _degree_partial_sums(nu, d1, d2, d3)[order]


def nu_derivative_oracle(z: float, order: int) -> EvalResult:
    """Degree-derivative of P_nu(z) at degree 0 by finite differences.

    Applies the central stencil of the requested order to `legendre_p`
    in the degree about 0, at a fixed step of 0.02 and three halvings of
    it, then removes the O(h^2), O(h^4), ... error terms by Richardson
    extrapolation.  Kept free of the closed forms so it can certify them.

    Parameters
    ----------
    z : float
        Argument in (-1, 1].
    order : int
        Derivative order, 1 through 3.

    Returns
    -------
    EvalResult
        abs_err_est combines the extrapolation-tableau disagreement with
        the stencil roundoff floor; converged is False when the estimate
        exceeds the order's accuracy cap (`ORACLE_ERR_CAP`).  If any P_nu
        it evaluates did not converge, the extrapolated value is returned
        with abs_err_est inf and converged False.
    """
    z = _check_argument(z)
    stencil = _STENCILS.get(order) if type(order) is int else None
    if stencil is None:
        raise DomainError(f"oracle derivative order must be an int in {tuple(_STENCILS)}, "
                          f"got {order!r}")

    # The levels share points: degree 0 in the order-2 stencil, and +-2h at
    # one level is +-h at the level before (the steps halve exactly), so
    # each distinct degree is evaluated once.
    results: dict[float, EvalResult] = {}
    row: list[float] = []
    for i in range(_ORACLE_LEVELS):
        h = _ORACLE_STEP / 2.0**i
        total = 0.0
        for multiple, weight in stencil:
            nu = multiple * h
            r = results.get(nu)
            if r is None:
                r = results[nu] = legendre_p(nu, z, tol=1e-15)
            total += weight * r.value
        prev, row = row, [total / h**order]
        for j in range(1, i + 1):
            factor = 4.0**j
            row.append((factor * row[j - 1] - prev[j - 1]) / (factor - 1.0))

    value = row[-1]
    fmax = 1.0
    converged = True
    for r in results.values():
        if abs(r.value) > fmax:
            fmax = abs(r.value)
        converged = converged and r.converged
    if not converged:
        return EvalResult(value, math.inf, False)
    weight_sum = 0.0
    for _, weight in stencil:
        weight_sum += abs(weight)
    noise_floor = 2.0 * weight_sum * EPS * fmax / h**order
    est = max(abs(value - row[-2]), abs(value - prev[-1]), noise_floor)
    return EvalResult(value, est, est <= ORACLE_ERR_CAP[order])
