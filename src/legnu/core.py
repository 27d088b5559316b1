"""Shared result type, domain error, and the adaptive quadrature wrapper.

Everything in this package is a pure function of its arguments; there is no
shared mutable state, so concurrent calls are safe by construction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

__all__ = ["DomainError", "EvalResult", "adaptive_quad"]

#: Unit roundoff of binary64, used as the generic series stopping threshold.
EPS = math.ulp(1.0)

#: Hard cap on quadrature subintervals.
QUAD_SUBINTERVAL_CAP = 10_000


class DomainError(ValueError):
    """Raised when an argument lies outside a function's supported domain."""


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


def adaptive_quad(f: Callable[[float], float], a: float, b: float, tol: float) -> EvalResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Thin wrapper over adaptive Gauss-Kronrod quadrature with interval
    bisection (QUADPACK), capped at ``QUAD_SUBINTERVAL_CAP`` subintervals.
    Non-convergence is reported through the result flag, never raised.
    """
    if not (0.0 < tol < math.inf):
        raise DomainError(f"quadrature tolerance must be positive and finite, got {tol}")
    if a == b:
        return EvalResult(0.0, 0.0, True)
    # imported here: scipy.integrate costs most of `import legnu`, and only
    # the quadrature checks and the integral oracle need it
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=tol, epsrel=0.0, limit=QUAD_SUBINTERVAL_CAP, full_output=1)
    value, err_est = float(out[0]), float(out[1])
    ok = len(out) == 3 and err_est <= tol  # a 4th element is QUADPACK's failure message
    return EvalResult(value, err_est, ok)
