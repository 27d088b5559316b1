"""Shared result type, domain error, compiler and adaptive Gauss-Kronrod
quadrature.

Everything in this package is a pure function of its arguments; there is no
shared mutable state, so concurrent calls are safe by construction.

`_compile` is the package's one way to build straight-line code: the
quadrature's 21-point rule here and every `polylog` series branch are
compiled through it once, at import.  The rule's sums run left to right, so
its bits do not depend on the interpreter's ``sum()``, which sums floats
compensated since Python 3.12.
"""

from __future__ import annotations

import heapq
import math
import types
from collections import namedtuple
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


#: ``_result((value, abs_err_est, converged))``: the `EvalResult`, made in C
#: without the named tuple's Python-level ``__new__``; the hot kernels use it.
#: A bound method calls ``tuple.__new__`` faster than a ``functools.partial``.
_result = types.MethodType(tuple.__new__, EvalResult)


def _compile(params: str, *lines: str, **names):
    """``def f(params)`` with body ``lines`` over the globals ``names``, as
    `namedtuple` writes its methods; floats written by their reprs round-trip."""
    exec(f"def f({params}):\n    " + "\n    ".join(lines), names)
    return names["f"]


# QUADPACK's 21-point Kronrod rule and its embedded 10-point Gauss rule on
# [-1, 1] (Piessens et al., QUADPACK, 1983, routine qk21): the nonnegative
# nodes in descending order with their Kronrod weights, and the Gauss weights
# of the nodes 0.973..., 0.865..., 0.679..., 0.433... and 0.148...
_XK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the whole rule, nodes ascending; the Gauss nodes sit at the odd positions
_X21 = tuple(-x for x in _XK[:-1]) + _XK[::-1]
_W21 = _WK + _WK[-2::-1]
_W10 = _WG + _WG[::-1]


def _compile_gk21():
    """Build ``_gk21(f, a, b)``: the 21-point Kronrod value of the integral
    over [a, b], QUADPACK's qk21 error estimate for it, and the rounding
    floor 50 EPS resabs below which that estimate is never put.

    The code calls f at the ascending nodes, then writes each sum out as
    0 + w_0 f_0 + w_1 f_1 + ... with the weights' reprs, which is the order
    of ``sum()`` before Python 3.12."""
    fs = [f"f{i}" for i in range(21)]

    def dot(weights, terms):
        return "0" + "".join(f" + {w!r} * {t}" for w, t in zip(weights, terms))

    lines = [
        "c, h = 0.5 * (a + b), 0.5 * (b - a)",
        *(f"{y} = f(c + h * {x!r})" for y, x in zip(fs, _X21)),
        f"kronrod = {dot(_W21, fs)}",
        f"err = abs(h * (kronrod - ({dot(_W10, fs[1::2])})))",
        "mean = 0.5 * kronrod",
        f"resasc = abs(h) * ({dot(_W21, [f'abs({y} - mean)' for y in fs])})",
        f"resabs = abs(h) * ({dot(_W21, [f'abs({y})' for y in fs])})",
        "if resasc != 0.0 and err != 0.0:",
        "    err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)",
        "floor = 50.0 * EPS * resabs",
        "return h * kronrod, max(err, floor), floor",  # max keeps a NaN err: it comes first
    ]
    return _compile("f, a, b", *lines, EPS=EPS)


_gk21 = _compile_gk21()


def adaptive_quad(f: Callable[[float], float], a: float, b: float, tol: float) -> EvalResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Global adaptive bisection over QUADPACK's 21-point Gauss-Kronrod rule:
    each step halves the subinterval with the largest error estimate, until
    the estimates sum to at most ``tol`` or there are
    ``QUAD_SUBINTERVAL_CAP`` subintervals.  A subinterval whose estimate is
    at its rounding floor is set aside unhalved, because halving does not
    lower the floor's sum; once all are, the loop stops.  The value and the
    estimate are the ``math.fsum`` of the subintervals' values and
    estimates, so a call whose first rule meets ``tol`` returns that rule's
    value and estimate, a -0.0 value as +0.0.  Non-convergence, including a
    NaN estimate, is reported through the result flag, never raised.
    """
    _check_tolerance("quadrature", tol)
    if a == b:
        return EvalResult(0.0, 0.0, True)
    value, err, floor = _gk21(f, a, b)
    if err <= tol:  # what the loop would give: + 0.0 makes -0.0 +0.0, as fsum does
        return _result((value + 0.0, err, True))
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
            value, err, floor = _gk21(f, *sub)
            heapq.heappush(heap, (-err, *sub, value, floor))
            total += err
        total += neg_err
        if total <= tol:
            total = math.fsum(-item[0] for item in heap + done)
    err = math.fsum(-item[0] for item in heap + done)
    return _result((math.fsum(item[3] for item in heap + done), err, err <= tol))
