"""Numerical certification of the identities behind the closed forms.

Six independent checks, each producing an `IdentityReport` over a sample
grid:

* ``ode_base``               -- P_nu satisfies the Legendre equation;
* ``ode_deriv2``             -- the order-2 closed form satisfies the
                                equation differentiated twice in nu;
* ``ode_deriv3``             -- same for the order-3 closed form;
* ``euler_reflection``       -- Li2(x) + Li2(1-x) = pi^2/6 - ln(x) ln(1-x);
* ``dilog_antiderivative``   -- integral of Li2 matches its antiderivative;
* ``li2_over_1mz_integral``  -- integral of Li2(t)/(1-t) matches d3(1-2t)/6
                                (reduced form, the order-3 first integral)
                                and its log-form antiderivative.

The three ODE checks take grids within [-0.9, 0.9].  ``ode_base`` sums
P_nu and its first two derivatives term by term over P_nu's own series and
scores the Legendre equation's residual L[P_nu] + nu (nu+1) P_nu,
L = (1-z^2) D^2 - 2z D, relative to the sum of its three terms' sizes.
Differentiating the equation k times in nu at nu = 0 gives
L[d_k] + k d_(k-1) + k (k-1) d_(k-2) = 0 for the closed forms d_k, with
d_0 = 1; the source terms come from that recurrence over `legendre`'s
table of closed forms, and L from 5-point central stencils of one step,
6e-4, so those two residuals are finite-difference noise, not identity
violations, and meet 1e-6.  Every sample, the log-form spot intervals
too, is held to its report's tolerance, so
``passed == (max_residual <= tolerance)`` always holds.

All checks are deterministic and side-effect-free; a run repeated on the
same grid reproduces residual statistics bit for bit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from types import MappingProxyType
from typing import Iterable, Mapping

from .core import DomainError, _check_tolerance, adaptive_quad
from .legendre import _NU_DERIVATIVES, _p_series_du, d3p_dnu3_0
from .polylog import PI2_OVER_6, dilog, trilog

__all__ = [
    "GridSpec",
    "IdentityReport",
    "IDENTITY_IDS",
    "DEFAULT_TOLERANCES",
    "check_ode_base",
    "check_ode_deriv2",
    "check_ode_deriv3",
    "check_euler_reflection",
    "check_dilog_antiderivative",
    "check_li2_over_1mz_integral",
    "dilog_antiderivative_residual",
    "li2_ratio_antiderivative_residual",
    "run_all",
    "report_lines",
]

#: identity id -> (default tolerance, the check on its default grid at a
#: given tolerance).  Each entry looks its check up when called, never
#: binding the function object, so wrappers installed on the module globals
#: are seen.  The base ODE degree is non-polynomial on purpose.
_SUITE = {
    "ode_base": (1e-12, lambda tol: check_ode_base(0.5, GridSpec(-0.9, 0.9, 101), tol)),
    "ode_deriv2": (1e-6, lambda tol: check_ode_deriv2(GridSpec(-0.9, 0.9, 101), tol)),
    "ode_deriv3": (1e-6, lambda tol: check_ode_deriv3(GridSpec(-0.9, 0.9, 101), tol)),
    "euler_reflection":
        (1e-12, lambda tol: check_euler_reflection(GridSpec(0.001, 0.999, 101), tol)),
    "dilog_antiderivative":
        (1e-10, lambda tol: check_dilog_antiderivative(GridSpec(0.0, 0.99, 11), tol)),
    "li2_over_1mz_integral":
        (1e-9, lambda tol: check_li2_over_1mz_integral(GridSpec(0.05, 0.95, 11), tol)),
}

IDENTITY_IDS = tuple(_SUITE)
DEFAULT_TOLERANCES = MappingProxyType({name: tol for name, (tol, _) in _SUITE.items()})

# Stencil step of the ode_deriv2 and ode_deriv3 checks: coarse enough for
# rounding in d2 and d3, fine enough for the order-3 closed form's truncation
# near z = -0.9.
_ODE_STEP = 6e-4

# ODE grids are bounded away from +-1 to avoid 1/(1-z^2) amplification.
_ODE_GRID_LIMIT = 0.9

_LOG_FORM_SPOT_INTERVALS = ((0.2, 0.5), (0.3, 0.7), (0.25, 0.75))


class GridSpec(namedtuple("GridSpec", ("start", "end", "count", "spacing"))):
    """An inclusive sampled range with at least two points.

    With n = count - 1, "uniform" spacing gives i * step + start with
    step = (end - start) / n (i / n * (end - start) + start for a
    subnormal span, where step is 0); "chebyshev" gives Chebyshev-Lobatto
    points mid - half * cos(pi i / n), with mid = start/2 + end/2 and
    half = (end - start) / 2, clustered toward the endpoints.  Both are
    numpy's ``linspace`` and ``cos`` values bit for bit, ascending, with
    the endpoints hit exactly.  A named tuple, like `EvalResult`,
    validated on construction, by ``_make`` and by ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, start: float, end: float, count: int, spacing: str = "uniform"):
        if not (start < end):
            raise DomainError(f"grid requires start < end, got [{start}, {end}]")
        if not (end - start < math.inf):
            raise DomainError(
                f"grid requires start < end a finite distance apart, got [{start}, {end}]")
        if type(count) is not int or count < 2:
            raise DomainError(f"grid requires an int count >= 2, got {count!r}")
        if spacing not in ("uniform", "chebyshev"):
            raise DomainError(f"unknown grid spacing {spacing!r}")
        return super().__new__(cls, start, end, count, spacing)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def points(self) -> list[float]:
        start, end, n = self.start, self.end, self.count - 1
        if self.spacing == "uniform":
            step = (end - start) / n
            if step == 0:  # a subnormal span: scale before multiplying
                return [i / n * (end - start) + start for i in range(n)] + [end]
            return [i * step + start for i in range(n)] + [end]
        mid, half = 0.5 * start + 0.5 * end, 0.5 * (end - start)
        return [start] + [mid - half * math.cos(math.pi * i / n) for i in range(1, n)] + [end]


class IdentityReport(namedtuple("IdentityReport", (
        "identity_id", "samples", "max_residual", "mean_residual", "argmax_location",
        "tolerance", "passed"))):
    """Residual statistics of one identity over one sample grid (a named
    tuple, like `EvalResult`)."""

    __slots__ = ()


def _tolerance(identity_id: str, value: float | None) -> float:
    """The identity's default tolerance for None; otherwise ``value``, which
    must be positive and finite."""
    if value is None:
        return DEFAULT_TOLERANCES[identity_id]
    _check_tolerance(f"{identity_id}:", value)
    return value


def _report(identity_id: str, samples: Iterable[tuple[float, float]],
            tolerance: float) -> IdentityReport:
    """Statistics of (location, residual) samples.  The worst residual is
    the first NaN, else the first maximum, so a NaN fails the identity; the
    mean is ``math.fsum`` over the count."""
    locations, res = zip(*samples)
    nans = [i for i, r in enumerate(res) if math.isnan(r)]
    imax = nans[0] if nans else res.index(max(res))
    try:
        mean = math.fsum(res) / len(res)
    except OverflowError:  # the sum is past the float range, so the mean is too
        mean = math.inf
    worst = res[imax]
    return IdentityReport(identity_id, len(res), worst, mean, locations[imax],
                          float(tolerance), worst <= tolerance)


# ---------------------------------------------------------------------------
# the Legendre-equation residuals

def _ode_source(order: int, z: float) -> float:
    """The source term k d_(k-1) + k (k-1) d_(k-2) at z; L[d_k] plus it is 0."""
    return (order * _NU_DERIVATIVES[order - 1](z)
            + order * (order - 1) * _NU_DERIVATIVES[order - 2](z))


def _ode_points(grid: GridSpec) -> list[float]:
    """The grid's points, once the grid is checked to lie within the ODE window."""
    if grid.start < -_ODE_GRID_LIMIT or grid.end > _ODE_GRID_LIMIT:
        raise DomainError(
            f"ODE residual grids must lie within [-{_ODE_GRID_LIMIT}, {_ODE_GRID_LIMIT}], "
            f"got [{grid.start}, {grid.end}]"
        )
    return grid.points()


def _check_ode(order: int, grid: GridSpec, tolerance: float) -> IdentityReport:
    """|(1-z^2) d_k'' - 2z d_k' + `_ode_source`(k, z)| for k = ``order`` over
    the grid, the derivatives by 5-point stencils of step `_ODE_STEP`."""
    points, h, f = _ode_points(grid), _ODE_STEP, _NU_DERIVATIVES[order]

    def residual(z):
        fm2, fm1, f0, fp1, fp2 = (f(z + k * h) for k in (-2, -1, 0, 1, 2))
        d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
        d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
        return abs((1.0 - z * z) * d2 - 2.0 * z * d1 + _ode_source(order, z))

    return _report(f"ode_deriv{order}", ((z, residual(z)) for z in points), tolerance)


# ---------------------------------------------------------------------------
# the six checks

def check_ode_base(nu: float, grid: GridSpec, tolerance: float | None = None) -> IdentityReport:
    """Scaled residual of the Legendre equation on P_nu over the grid.

    At each grid point `legendre._p_series_du` sums P, P_u and P_uu term by
    term over P_nu's series in u = (1 - z)/2.  With P' = -P_u/2 and
    P'' = P_uu/4 the residual (1-z^2) P'' - 2z P' + nu(nu+1) P is divided by
    the sum of its three terms' sizes, (1-z^2)/4 sum|P_uu terms| +
    |z| sum|P_u terms| + |nu(nu+1)| sum|P terms|.  That scale is 0 only for
    nu = 0 or -1, where the residual is exactly 0 and is reported so.  Nothing
    is differenced, so an error in the series' coefficients shows at its own
    relative size.  A sum that did not converge enters as NaN, so the
    identity fails; within [-0.9, 0.9], where u <= 0.95, none is expected.
    A bad tolerance fails first, then the grid, then the degree, which
    `_p_series_du` checks before any series work.
    """
    tolerance = _tolerance("ode_base", tolerance)
    points = _ode_points(grid)
    sums = _p_series_du(nu, points)
    weight = nu * (nu + 1.0)

    def residual(z, p, pu, puu, a0, a1, a2):
        w = 0.25 * (1.0 - z * z)
        r = abs(w * puu + z * pu + weight * p)
        scale = w * a2 + abs(z) * a1 + abs(weight) * a0
        return r / scale if scale else r

    return _report("ode_base", ((z, residual(z, *s)) for z, s in zip(points, sums)), tolerance)


def check_ode_deriv2(grid: GridSpec, tolerance: float | None = None) -> IdentityReport:
    """Residual of the twice-degree-differentiated equation on the order-2
    closed form: L[d2] + 2 d1 + 2 = 0."""
    return _check_ode(2, grid, _tolerance("ode_deriv2", tolerance))


def check_ode_deriv3(grid: GridSpec, tolerance: float | None = None) -> IdentityReport:
    """Residual of the thrice-degree-differentiated equation on the order-3
    closed form: L[d3] + 3 d2 + 6 d1 = 0."""
    return _check_ode(3, grid, _tolerance("ode_deriv3", tolerance))


def check_euler_reflection(grid: GridSpec, tolerance: float | None = None) -> IdentityReport:
    """Residual of Li2(x) + Li2(1-x) - pi^2/6 + ln(x) ln(1-x) over the grid."""
    tolerance = _tolerance("euler_reflection", tolerance)
    if grid.start <= 0.0 or grid.end >= 1.0:
        raise DomainError(f"reflection grid must lie within (0, 1), got [{grid.start}, {grid.end}]")
    return _report("euler_reflection", (
        (x, abs(dilog(x).value + dilog(1.0 - x).value
                - PI2_OVER_6 + math.log(x) * math.log1p(-x)))
        for x in grid.points()
    ), tolerance)


# ---------------------------------------------------------------------------
# quadrature-vs-antiderivative checks

#: Quadrature runs this much tighter than the agreement tolerance.
_QUAD_TOL_FRACTION = 0.01


def _li2_antideriv(t: float) -> float:
    """Antiderivative of Li2:  t Li2(t) + (t-1) ln(1-t) - t  (0 at t = 0)."""
    return t * dilog(t).value + (t - 1.0) * math.log1p(-t) - t


def _li2_ratio_antideriv(t: float, form: str) -> float:
    """Antiderivative of Li2(t)/(1-t): d3(1-2t)/6 (reduced) or the log form."""
    if form == "reduced":
        # the paper's first integral d3(z) = 6 times the integral over
        # [0, (1-z)/2], so the library's d3 is what gets checked
        return d3p_dnu3_0(1.0 - 2.0 * t) / 6.0
    # log form: the closed antiderivative in Li3(1-t), Li2 and logarithms,
    # kept as an independent spot-check target
    y = 1.0 - t
    ly = math.log1p(-t)
    return (
        2.0 * trilog(y).value
        - ly * dilog(t).value
        - 2.0 * ly * dilog(y).value
        - math.log(t) * ly * ly
    )


def _quad_vs_antideriv(integrand, antideriv, a: float, b: float, tol: float) -> float:
    """|quadrature - antiderivative difference| on [a, b] in [0, 0.999]; NaN
    where the quadrature did not converge, so the report fails."""
    _check_tolerance("antiderivative", tol)
    for t in (a, b):
        if not (0.0 <= t <= 0.999):
            raise DomainError(f"integration endpoints must lie in [0, 0.999], got {t}")
    q = adaptive_quad(integrand, a, b, max(1e-13, _QUAD_TOL_FRACTION * tol))
    return abs(q.value - (antideriv(b) - antideriv(a))) if q.converged else math.nan


def dilog_antiderivative_residual(
        a: float, b: float,
        tolerance: float = DEFAULT_TOLERANCES["dilog_antiderivative"]) -> float:
    """Quadrature-vs-antiderivative residual for Li2 on [a, b] in [0, 0.999]:
    exactly 0.0 if a == b; `DomainError` unless ``tolerance`` is positive and
    finite."""
    return _quad_vs_antideriv(lambda t: dilog(t).value, _li2_antideriv, a, b, tolerance)


def li2_ratio_antiderivative_residual(
        a: float, b: float,
        tolerance: float = DEFAULT_TOLERANCES["li2_over_1mz_integral"],
        form: str = "reduced") -> float:
    """Quadrature-vs-antiderivative residual for Li2(t)/(1-t) on [a, b].

    ``form`` selects the reduced antiderivative or the log form, which also
    needs both endpoints > 0.  Endpoints above 0.999 are rejected (the
    antiderivative's logarithms degrade there); ``tolerance`` and a == b are as
    for `dilog_antiderivative_residual`.
    """
    if form not in ("reduced", "log"):
        raise DomainError(f"unknown antiderivative form {form!r}")
    if form == "log" and not (a > 0.0 and b > 0.0):
        raise DomainError(f"log-form antiderivative requires endpoints > 0, got [{a}, {b}]")
    return _quad_vs_antideriv(
        lambda t: dilog(t).value / (1.0 - t),
        lambda t: _li2_ratio_antideriv(t, form),
        a, b, tolerance,
    )


def _intervals(identity_id: str, grid: GridSpec) -> list[tuple[float, float]]:
    """Consecutive intervals of a grid within [0, 0.999]."""
    if grid.start < 0.0 or grid.end > 0.999:
        raise DomainError(
            f"{identity_id} grid must lie within [0, 0.999], got [{grid.start}, {grid.end}]"
        )
    pts = grid.points()
    return list(zip(pts[:-1], pts[1:]))


def check_dilog_antiderivative(grid: GridSpec, tolerance: float | None = None) -> IdentityReport:
    """Integral of Li2 over consecutive grid intervals vs its antiderivative."""
    tolerance = _tolerance("dilog_antiderivative", tolerance)
    return _report("dilog_antiderivative", (
        (0.5 * (a + b), dilog_antiderivative_residual(a, b, tolerance))
        for a, b in _intervals("dilog_antiderivative", grid)
    ), tolerance)


def check_li2_over_1mz_integral(grid: GridSpec, tolerance: float | None = None) -> IdentityReport:
    """Integral of Li2(t)/(1-t) over grid intervals vs the reduced
    antiderivative, plus three fixed log-form spot intervals, all at
    ``tolerance``."""
    tolerance = _tolerance("li2_over_1mz_integral", tolerance)
    intervals = _intervals("li2_over_1mz_integral", grid)
    return _report("li2_over_1mz_integral", (
        (0.5 * (a + b), li2_ratio_antiderivative_residual(a, b, tolerance, form=form))
        for form, spans in (("reduced", intervals), ("log", _LOG_FORM_SPOT_INTERVALS))
        for a, b in spans
    ), tolerance)


# ---------------------------------------------------------------------------
# suite driver and serialization

def _resolve_tolerances(tolerances: Mapping[str, float] | None) -> dict[str, float]:
    resolved = dict(DEFAULT_TOLERANCES)
    for key, value in (tolerances or {}).items():
        matches = [key] if key in resolved else [n for n in IDENTITY_IDS if n.startswith(key)]
        if len(matches) > 1:
            raise DomainError(f"ambiguous identity prefix {key!r}: matches {', '.join(matches)}")
        if not matches:
            raise DomainError(
                f"unknown identity {key!r}; expected one of {', '.join(IDENTITY_IDS)} "
                f"or a unique prefix"
            )
        resolved[matches[0]] = float(value)
    # values are checked once every name has resolved, in suite order
    return {name: _tolerance(name, value) for name, value in resolved.items()}


def run_all(tolerances: Mapping[str, float] | None = None) -> list[IdentityReport]:
    """Run every identity check on its default grid.

    ``tolerances`` overrides per-identity tolerances by id or unique id
    prefix (e.g. ``{"euler": 1e-13}``); anything not named keeps its
    default.  Always returns one report per identity, in `IDENTITY_IDS`
    order; a failed identity never aborts the rest.  An unknown or ambiguous
    name, or a tolerance not positive and finite, raises `DomainError`
    before any check runs.
    """
    tols = _resolve_tolerances(tolerances)
    return [check(tols[name]) for name, (_, check) in _SUITE.items()]


def report_lines(reports: Iterable[IdentityReport]) -> list[str]:
    """One fixed-layout text record per report."""
    return [
        f"{r.identity_id:<22s} {'pass' if r.passed else 'FAIL'}  "
        f"samples={r.samples}  max={r.max_residual!r}  mean={r.mean_residual!r}  "
        f"argmax={r.argmax_location!r}  tol={r.tolerance!r}"
        for r in reports
    ]
