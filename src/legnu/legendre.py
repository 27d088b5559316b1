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
from copy import copy
from itertools import tee

from .core import EPS, DomainError, EvalResult, _result, adaptive_quad
from .polylog import ZETA3, _li2_ratio_integral, _li3_mu, _li3_t, dilog

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

#: Relative truncation tolerance of the series' proven stop (see `legendre_p`).
SERIES_TOL = 1e-14

#: Series term cap per argument: the length of `_coefficients`' stream, so of every
#: sum; a non-integer degree reaches it for 1 + z below about 4e-4 (3.5e-4 fails).
MAX_TERMS = 100_000


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

    Sums c_k u^k with u = (1-z)/2 and c_0 = 1 over `_coefficients` up to
    its first term c_m u^m with m > max(nu, -nu - 1) and
    |c_m u^m| <= `SERIES_TOL` |partial sum|, or `MAX_TERMS` terms.  For
    j >= m both factors of (j - nu)(j + nu + 1) are positive and (j + 1)^2
    exceeds their product by j + 1 + nu (nu + 1) > 0, so every later ratio
    r_j = c_(j+1) / c_j lies in (0, 1) and the tail is at most
    |c_m u^m| u / (1 - u): abs_err_est is that bound plus a rounding
    allowance EPS sum|c_k u^k| (1 + sqrt(m)), a heuristic while sums near
    z = -1 run to thousands of terms; the worst case, m EPS sum|c_k u^k|,
    replaces it once they are about 50 terms long.  The sum keeps no
    coefficient table: a call at the term cap peaks under 1 KiB.  For
    integer degree the series terminates and the usual polynomials are
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
    nu = _check_degree(nu)
    z = _check_argument(z)
    past = max(nu, -nu - 1.0)  # r_j lies in (0, 1) for every j > past
    u = 0.5 * (1.0 - z)
    total = abs_total = upow = 1.0
    m = 0.0
    for coeff in _coefficients(nu):
        m += 1.0
        upow *= u
        term = coeff * upow
        total += term
        abs_total += abs(term)
        if abs(term) <= SERIES_TOL * abs(total) and m > past:
            break
    else:
        return _result((total, math.inf, False))
    tail = abs(term) * u / (1.0 - u)
    return _result((total, tail + EPS * abs_total * (1.0 + math.sqrt(m)), True))


def _coefficients(nu: float):
    """c_1, c_2, ... of P_nu's series in u = (1-z)/2, up to `MAX_TERMS` values:
    c_0 = 1 and c_(j+1) = c_j (j - nu)(j + nu + 1) / (j + 1)^2 (DLMF 15.2.1).
    j is carried as a float, exact below 2^53, which saves a conversion per term."""
    coeff, j = 1.0, 0.0
    for _ in range(MAX_TERMS):
        coeff *= (j - nu) * (j + nu + 1.0) / ((j + 1.0) * (j + 1.0))
        j += 1.0
        yield coeff


def _p_series_du(nu: float, zs) -> list[tuple[float, float, float, float, float, float]]:
    """P_nu and its first two derivatives in u = (1-z)/2, for each z in
    ``zs``, from the series' term-wise derivatives.

    Each entry is (P, P_u, P_uu, A0, A1, A2): the sums of the terms c_k u^k,
    k c_k u^(k-1) and k (k-1) c_k u^(k-2) of `legendre_p`'s series, and the
    sums of those terms' sizes; a sum cut short at `MAX_TERMS` gives six
    NaNs.  The three terms share the sign of c_k, so each sum is kept as its
    positive and its negative part: their sum is its value, their difference
    its sum of sizes.  Every argument but the last reads its own copy of one
    tee of `_coefficients`, and the last the tee itself: each coefficient is
    computed once, none past the longest sum's need, and each is freed once
    the last argument reads past it (a term-cap argument followed by others
    still holds them all until then).  Each sum stops at its first term with
    k > max(past, (1+u)/(1-u)), past as in `legendre_p`, and
    |k (k-1) c_k u^(k-2)| <= `SERIES_TOL` A2.  For j >= k the ratios of
    consecutive terms, r_j u, r_j u (j+1)/j and r_j u (j+1)/(j-1), lie in
    (0, q] with q = u (k+1)/(k-1) < 1, since r_j lies in (0, 1) there and
    (j+1)/(j-1) falls with j.  So each tail is at most its sum's last term
    times q/(1-q), and the last P and P_u terms are u^2/(k (k-1)) and
    u/(k-1) times the last P_uu term."""
    nu = _check_degree(nu)
    zs = [_check_argument(z) for z in zs]
    past = max(nu, -nu - 1.0)
    tol = SERIES_TOL
    stream = tee(_coefficients(nu), 1)[0]  # advanced by the last argument only
    out = []
    for n, z in enumerate(zs, 1):
        u = 0.5 * (1.0 - z)
        after = max(past, (1.0 + u) / (1.0 - u)) if u < 1.0 else math.inf
        pos0, pos1, pos2 = 1.0, 0.0, 0.0
        neg0 = neg1 = neg2 = 0.0
        low, mid = 0.0, 1.0  # u^(k-2) and u^(k-1); k (k-1) is 0 at k = 1
        k = 0.0
        for coeff in stream if n == len(zs) else copy(stream):
            k += 1.0
            kc = k * coeff
            t1 = kc * mid
            t2 = (k - 1.0) * kc * low
            low = mid
            mid *= u
            t0 = coeff * mid
            if coeff > 0.0:
                pos0 += t0
                pos1 += t1
                pos2 += t2
                size = t2
            else:
                neg0 += t0
                neg1 += t1
                neg2 += t2
                size = -t2
            if size <= tol * (pos2 - neg2) and k > after:
                out.append((pos0 + neg0, pos1 + neg1, pos2 + neg2,
                            pos0 - neg0, pos1 - neg1, pos2 - neg2))
                break
        else:
            out.append((math.nan,) * 6)
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

    With v = (z+1)/2: 12 Li3(v) - 6 ln(v) Li2(v) - pi^2 ln(v) - 12 zeta(3),
    which vanishes at z = 1 where v = 1.  For z <= 1/2 the closed form is
    evaluated at v <= 3/4: Li2 by `dilog`, and Li3 by `trilog`'s own branch
    series in the variable d3 holds, mu = ln v above v = 1/2 (the ln v of the
    closed form; `trilog` would take it again) and t = -ln(1-v) at or below.
    Its terms cancel as z -> 1, so for
    z > 1/2 the first integral is summed instead: with w = (1-z)/2, 6 times
    the integral of Li2(t)/(1-t) over [0, w].  The substitution
    s = -ln(1-t) turns it into 6 times the integral of Li2's Bernoulli
    series in s, 3 S^2 - S^3/2 + 6 sum_k B_(2k+2) S^(2k+4) /
    ((2k+4) (2k+3)!) with S = -ln(1-w) <= ln(4/3), which `polylog`'s compiled
    branch sums over its nonzero terms by Horner's rule in S^2.  That series is
    the closed form's own expansion in mu = ln v = -S, with the cancelling
    zeta(3), pi^2 mu and ln(-mu) terms removed.
    """
    z = _check_argument(z)
    if z > 0.5:
        return _li2_ratio_integral(-math.log1p(-0.5 * (1.0 - z))) + 0.0
    v = 0.5 * (z + 1.0)
    lv = math.log(v)
    li3 = _li3_mu(lv) if v > 0.5 else _li3_t(-math.log1p(-v))
    return (
        12.0 * li3
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
    for k, c in enumerate((nu, nu * nu / 2.0, nu**3 / 6.0)[:order], 1):
        s += c * (known[k] if k in known else _NU_DERIVATIVES[k](z))
        sums.append(s)
    return sums


# the oracle's factors: sqrt(2)/pi, and 2 cos(x + n pi/2) as (trig, sign) for
# n = 1 .. 3 at index n - 1, with x = phi/2
_ORACLE_SCALE = math.sqrt(2.0) / math.pi
_ORACLE_TRIG = ((math.sin, -2.0), (math.cos, -2.0), (math.sin, 2.0))


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
    trig, sign = _ORACLE_TRIG[order - 1]

    # dphi / sqrt(cos(phi) - cos(theta)) in t; G10-K21 never samples t = 0,
    # where it tends to 2 / sqrt(sin(theta)) dt
    def integrand(t: float) -> float:
        u = 0.5 * t * t  # (theta - phi) / 2
        phi = theta - t * t
        return sign * phi**order * trig(0.5 * phi) * t / sqrt(2.0 * sin(base + step * u) * sin(u))

    q = adaptive_quad(integrand, 0.0, math.sqrt(theta), 1e-12 * max(1.0, theta**order))
    return _result((_ORACLE_SCALE * q.value, _ORACLE_SCALE * q.abs_err_est, q.converged))
