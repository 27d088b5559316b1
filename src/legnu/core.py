"""Shared result type, domain error, and adaptive Gauss-Kronrod quadrature.

Everything in this package is a pure function of its arguments; there is no
shared mutable state, so concurrent calls are safe by construction.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from operator import mul
from typing import Callable

__all__ = ["DomainError", "EvalResult", "adaptive_quad"]

#: Machine epsilon of binary64, 2^-52; it scales error bounds and rounding floors.
EPS = math.ulp(1.0)

#: Hard cap on quadrature subintervals.
QUAD_SUBINTERVAL_CAP = 10_000


class DomainError(ValueError):
    """Raised when an argument lies outside a function's supported domain."""


def _check_tolerance(label: str, tol: float) -> None:
    """Raise `DomainError`, its message led by ``label``, unless ``tol`` is
    positive and finite."""
    if not (0.0 < tol < math.inf):
        raise DomainError(f"{label} tolerance must be positive and finite, got {tol}")


class EvalResult(namedtuple("EvalResult", ("value", "abs_err_est", "converged"))):
    """A numeric value with an a-posteriori error estimate.

    A named tuple: immutable, iterable as (value, abs_err_est, converged),
    equal to a plain tuple of the same three items, and convertible with
    ``_asdict()``.

    Attributes
    ----------
    value : float
        The computed value (possibly partial if not converged).
    abs_err_est : float
        Estimated absolute error of ``value``.
    converged : bool
        False when an iteration cap or tolerance target was not met; the
        value is then a best effort and must not be trusted silently.
    """

    __slots__ = ()


# QUADPACK's 15-point Kronrod rule and its embedded 7-point Gauss rule on
# [-1, 1] (Piessens et al., QUADPACK, 1983, routine qk15): the nonnegative
# nodes in descending order with their Kronrod weights, and the Gauss weights
# of the nodes 0.949..., 0.741..., 0.405... and 0.
_XK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
# the whole rule, nodes ascending; the Gauss nodes sit at the odd positions
_X15 = tuple(-x for x in _XK[:-1]) + _XK[::-1]
_W15 = _WK + _WK[-2::-1]
_W7 = _WG + _WG[-2::-1]


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float]:
    """The 15-point Kronrod value of the integral over [a, b], QUADPACK's
    qk15 error estimate for it, and the rounding floor 50 EPS resabs below
    which that estimate is never put."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = [f(c + h * x) for x in _X15]
    kronrod = sum(map(mul, _W15, fv))
    err = abs(h * (kronrod - sum(map(mul, _W7, fv[1::2]))))
    mean = 0.5 * kronrod
    resasc = abs(h) * sum(map(mul, _W15, [abs(y - mean) for y in fv]))
    resabs = abs(h) * sum(map(mul, _W15, map(abs, fv)))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # max keeps a NaN err because it comes first
    floor = 50.0 * EPS * resabs
    return h * kronrod, max(err, floor), floor


def adaptive_quad(f: Callable[[float], float], a: float, b: float, tol: float) -> EvalResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Global adaptive bisection over QUADPACK's 15-point Gauss-Kronrod rule:
    each step halves the subinterval with the largest error estimate, until
    the estimates sum to at most ``tol`` or there are
    ``QUAD_SUBINTERVAL_CAP`` subintervals.  A subinterval whose estimate is
    at its rounding floor is set aside unhalved, because halving does not
    lower the floor's sum; once all are, the loop stops.  The value and the
    estimate are the ``math.fsum`` of the subintervals' values and
    estimates.  Non-convergence, including a NaN estimate, is reported
    through the result flag, never raised.
    """
    _check_tolerance("quadrature", tol)
    if a == b:
        return EvalResult(0.0, 0.0, True)
    value, err, floor = _gk15(f, a, b)
    heap = [(-err, a, b, value, floor)]  # largest estimate first
    done = []  # subintervals set aside at their floor
    # a running total steers the loop, and a NaN ends it; it is summed
    # afresh whenever it reaches tol, so the stop and the flag agree
    total = err
    while total > tol and heap and len(heap) + len(done) < QUAD_SUBINTERVAL_CAP:
        item = heapq.heappop(heap)
        neg_err, lo, hi, _, floor = item
        if -neg_err <= floor:
            done.append(item)
            continue
        mid = 0.5 * (lo + hi)
        for sub in ((lo, mid), (mid, hi)):
            value, err, floor = _gk15(f, *sub)
            heapq.heappush(heap, (-err, *sub, value, floor))
            total += err
        total += neg_err
        if total <= tol:
            total = math.fsum(-item[0] for item in heap + done)
    err = math.fsum(-item[0] for item in heap + done)
    return EvalResult(math.fsum(item[3] for item in heap + done), err, err <= tol)
