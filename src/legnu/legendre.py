"""Legendre function of the first kind for real degree, and its
degree-derivatives at degree zero.

P_nu(z) is evaluated on z in (-1, 1] through the Gauss hypergeometric
series in u = (1-z)/2, whose convergence region u < 1 matches the
supported interval exactly.  The first three derivatives with respect to
the degree, taken at degree 0, have closed forms in logarithms, the
dilogarithm and the trilogarithm; an oracle that sums the
degree-differentiated Mehler-Dirichlet integral by adaptive quadrature
checks them independently.

Supported envelope: z in (-1, 1] and |nu| <= 5.  As z -> -1 the first
degree-derivative diverges while the second tends to the finite limit
-pi^2/3; the endpoint itself is outside the domain.
"""

from __future__ import annotations

import math

from .core import EPS, DomainError, EvalResult, _result, adaptive_quad
from .polylog import _LI2_ODD, ZETA3, _compile_horner, dilog, trilog

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

#: Relative truncation tolerance of the series' proven stop (see `_p_series`).
SERIES_TOL = 1e-14

#: Series term cap per argument, in `_p_series` (and so in `legendre_p`); a
#: non-integer degree reaches it for 1 + z below about 4e-4 (3.5e-4 fails).
MAX_TERMS = 100_000

# Li2's odd Bernoulli terms integrated once more: entry k is B_(2k+2) / ((2k+4) (2k+3)!),
# the coefficient of s^(2k+4)
_LI2_INTEGRAL = tuple(c / (2 * k + 4) for k, c in enumerate(_LI2_ODD))
_li2_integral = _compile_horner(_LI2_INTEGRAL)


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


def legendre_p(nu: float, z: float) -> EvalResult:
    """Legendre function of the first kind, P_nu(z), for real degree.

    The one-argument `_p_series`, which documents the series and its stop.
    For integer degree the series terminates and the usual polynomials are
    recovered exactly; P_nu(1) = 1 for every degree.

    Parameters
    ----------
    nu : float
        Degree, |nu| <= 5.
    z : float
        Argument in (-1, 1].

    Returns
    -------
    EvalResult
        converged is False when the term cap is reached (for 1 + z below
        about 4e-4); the value is then the partial sum, with no error
        bound: abs_err_est is inf.
    """
    return _p_series(nu, (z,))[0]


def _p_series(nu: float, zs) -> list[EvalResult]:
    """P_nu(z) for each z in ``zs``, as in `legendre_p`.

    Sums c_k u^k with u = (1-z)/2, c_0 = 1 and c_{j+1} = c_j r_j,
    r_j = (j - nu)(j + nu + 1) / (j + 1)^2 (DLMF 15.2.1), up to its first
    term c_m u^m with m > max(nu, -nu - 1) and |c_m u^m| <= `SERIES_TOL`
    |partial sum|, or `MAX_TERMS` terms.  For j >= m both factors of
    (j - nu)(j + nu + 1) are positive and (j + 1)^2 exceeds their product
    by j + 1 + nu (nu + 1) > 0, so every later r_j lies in (0, 1) and the
    tail is at most |c_m u^m| u / (1 - u): abs_err_est is that bound plus a
    rounding allowance EPS sum|c_k u^k| (1 + sqrt(m)), a heuristic while
    sums near z = -1 run to thousands of terms; the worst case,
    m EPS sum|c_k u^k|, replaces it once they are about 50 terms long.
    With more than one argument the coefficients c_1, c_2, ... are computed
    once: the first sums fill a table that later sums read, extending it
    when they need more terms.  One argument keeps no table, since its sum
    alone can run to the term cap and no later sum would read it.  Each
    result is the same bit for bit whichever arguments precede it."""
    nu = _check_degree(nu)
    zs = [_check_argument(z) for z in zs]
    past = max(nu, -nu - 1.0)  # r_j lies in (0, 1) for every j > past
    keep = len(zs) > 1
    table: list[float] = []  # table[k] is c_(k+1)
    out = []
    for z in zs:
        u = 0.5 * (1.0 - z)
        total = abs_total = upow = coeff = 1.0
        n = len(table)  # c_1 .. c_n are read; later ones run the recurrence
        for k in range(MAX_TERMS):
            if k < n:
                coeff = table[k]
            else:
                coeff *= (k - nu) * (k + nu + 1.0) / ((k + 1.0) * (k + 1.0))
                if keep:
                    table.append(coeff)
            upow *= u
            term = coeff * upow  # c_m u^m with m = k + 1
            total += term
            abs_total += abs(term)
            if abs(term) <= SERIES_TOL * abs(total) and k + 1 > past:
                tail = abs(term) * u / (1.0 - u)
                out.append(EvalResult(
                    total, tail + EPS * abs_total * (1.0 + math.sqrt(k + 1.0)), True))
                break
        else:
            out.append(EvalResult(total, math.inf, False))
    return out


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
        return s * s * (3.0 - s * (0.5 - 6.0 * s * _li2_integral(s * s))) + 0.0
    v = 0.5 * (z + 1.0)
    lv = math.log(v)
    return (
        12.0 * trilog(v).value
        - 6.0 * lv * dilog(v).value
        - math.pi * math.pi * lv
        - 12.0 * ZETA3
    ) + 0.0


#: d_k, the k-th degree-derivative of P_nu at nu = 0, for k = 0 .. 3.  Each
#: entry looks its closed form up in this module's globals when called, never
#: binding the function object, so wrappers installed there are seen.
_NU_DERIVATIVES = (
    lambda z: 1.0,
    lambda z: dp_dnu0(z),
    lambda z: d2p_dnu2_0(z),
    lambda z: d3p_dnu3_0(z),
)


#: 1 .. n for each truncation order n, a table since a range per call costs more
_UP_TO = ((), (1,), (1, 2), (1, 2, 3))


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
    return _maclaurin(nu, z, order, {})[order]


def _maclaurin(nu: float, z: float, order: int, known: dict) -> list[float]:
    """`maclaurin_p` at orders 0 .. ``order``, each the sum below it plus its own term
    (so rounded the same whatever ``order``), d_k read from ``known[k]`` where there."""
    nu = _check_degree(nu)
    z = _check_argument(z)
    if type(order) is not int or not 0 <= order <= 3:
        raise DomainError(f"truncation order must be an int in 0..3, got {order!r}")
    s = 1.0
    sums = [s]
    for k, c in zip(_UP_TO[order], (nu, nu * nu / 2.0, nu**3 / 6.0)):
        s += c * (known[k] if k in known else _NU_DERIVATIVES[k](z))
        sums.append(s)
    return sums


def nu_derivative_oracle(z: float, order: int) -> EvalResult:
    """Degree-derivative of P_nu(z) at degree 0 by quadrature.

    Differentiates the Mehler-Dirichlet integral (DLMF 14.12.1) under the
    integral sign: with z = cos(theta),
    d_n(z) = (sqrt(2)/pi) * integral over [0, theta] of
    phi^n cos(phi/2 + n pi/2) / sqrt(cos(phi) - cos(theta)) dphi.
    The substitution phi = theta - t^2, with
    cos(phi) - cos(theta) = 2 sin(theta - t^2/2) sin(t^2/2), makes the
    integrand bounded on t in [0, sqrt(theta)]; `adaptive_quad` sums it.
    For z < 0 the angle is taken from 1 + z, theta = pi - delta, and
    sin(theta - t^2/2) is evaluated as sin(delta + t^2/2), so nothing
    cancels near z = -1 or z = 1.  Shares no code with the series, the
    closed forms or the polylogarithm kernels, so it can certify them.

    Parameters
    ----------
    z : float
        Argument in (-1, 1].
    order : int
        Derivative order, 1 through 3.

    Returns
    -------
    EvalResult
        abs_err_est is sqrt(2)/pi times the quadrature's estimate, asked of
        it to 1e-12 max(1, theta^n), a tolerance scale: since |cos| <= 1 and
        the kernel is positive, |d_n| <= theta^n P_(-1/2)(z), not theta^n
        alone (|d3(-0.99)| = 38.1 > theta^3 = 27.0); converged is the
        quadrature's flag.  At z = 1 the interval is empty: the result is
        exactly (0.0, 0.0, True).
    """
    z = _check_argument(z)
    if type(order) is not int or order not in (1, 2, 3):
        raise DomainError(f"oracle derivative order must be an int in (1, 2, 3), got {order!r}")
    sin, sqrt = math.sin, math.sqrt
    if z >= 0.0:
        theta = 2.0 * math.asin(sqrt(0.5 * (1.0 - z)))
        base, step = theta, -1.0  # sin(base + step u) is sin((phi + theta) / 2)
    else:
        delta = 2.0 * math.asin(sqrt(0.5 * (1.0 + z)))
        theta = math.pi - delta
        base, step = delta, 1.0  # the same sine as sin(delta + u)
    # 2 cos(x + n pi/2) for n = 0 .. 3, with x = phi/2
    trig, sign = ((math.cos, 2.0), (sin, -2.0), (math.cos, -2.0), (sin, 2.0))[order]

    # dphi / sqrt(cos(phi) - cos(theta)) in t; G10-K21 never samples t = 0,
    # where it tends to 2 / sqrt(sin(theta)) dt
    def integrand(t: float) -> float:
        u = 0.5 * t * t  # (theta - phi) / 2
        phi = theta - t * t
        return sign * phi**order * trig(0.5 * phi) * t / sqrt(2.0 * sin(base + step * u) * sin(u))

    q = adaptive_quad(integrand, 0.0, math.sqrt(theta), 1e-12 * max(1.0, theta**order))
    scale = math.sqrt(2.0) / math.pi
    return _result((scale * q.value, scale * q.abs_err_est, q.converged))
