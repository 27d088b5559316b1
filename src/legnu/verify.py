"""Numerical certification of the identities behind the closed forms.

Six independent checks, each producing an `IdentityReport` over a sample
grid:

* ``ode_base``               -- P_nu satisfies the Legendre equation;
* ``ode_deriv2``             -- the order-2 closed form satisfies its
                                twice-degree-differentiated equation, and
                                its first integral holds analytically;
* ``ode_deriv3``             -- same for the order-3 closed form;
* ``euler_reflection``       -- Li2(x) + Li2(1-x) = pi^2/6 - ln(x) ln(1-x);
* ``dilog_antiderivative``   -- integral of Li2 matches its antiderivative;
* ``li2_over_1mz_integral``  -- integral of Li2(t)/(1-t) matches d3(1-2t)/6
                                (reduced form) and its log-form antiderivative.

z-derivatives in the ODE checks use 5-point central stencils, so those
residuals are finite-difference noise, not identity violations; the
first-integral checks are stencil-free and tight.  Sub-checks with their
own bound (first integrals at 1e-10, log-form spot intervals at 1e-8) are
folded into the parent report rescaled into report-tolerance units, so
``passed == (max_residual <= tolerance)`` always holds.

All checks are deterministic and side-effect-free; a run repeated on the
same grid reproduces residual statistics bit for bit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .core import DomainError, adaptive_quad
from .legendre import d2p_dnu2_0, d3p_dnu3_0, dp_dnu0, legendre_p
from .polylog import PI2_OVER_6, dilog, trilog

if TYPE_CHECKING:
    import numpy as np

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
    "first_integral_residuals",
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
    "ode_base": (1e-6, lambda tol: check_ode_base(0.5, GridSpec(-0.9, 0.9, 101), tol)),
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
DEFAULT_TOLERANCES = {name: tol for name, (tol, _) in _SUITE.items()}

# Fixed bounds of the folded sub-checks.
FIRST_INTEGRAL_BOUND = 1e-10
LOG_FORM_SPOT_BOUND = 1e-8

# ODE stencil steps; the order-3 closed form needs the finer step to keep
# truncation below 1e-6 near z = -0.9.
_ODE_STEP = 1e-3
_ODE_STEP_DERIV3 = 5e-4

# ODE grids are bounded away from +-1 to avoid 1/(1-z^2) amplification.
_ODE_GRID_LIMIT = 0.95

_LOG_FORM_SPOT_INTERVALS = ((0.2, 0.5), (0.3, 0.7), (0.25, 0.75))


class GridSpec(namedtuple("GridSpec", ("start", "end", "count", "spacing"))):
    """An inclusive sampled range with at least two points.

    spacing may be "uniform" or "chebyshev" (Chebyshev-Lobatto points,
    clustered toward the endpoints); points are always returned ascending
    with the endpoints hit exactly.  A named tuple, like `EvalResult`,
    validated on construction, by ``_make`` and by ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, start: float, end: float, count: int, spacing: str = "uniform"):
        if not (start < end):
            raise DomainError(f"grid requires start < end, got [{start}, {end}]")
        if type(count) is not int or count < 2:
            raise DomainError(f"grid requires an int count >= 2, got {count!r}")
        if spacing not in ("uniform", "chebyshev"):
            raise DomainError(f"unknown grid spacing {spacing!r}")
        return super().__new__(cls, start, end, count, spacing)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def points(self) -> np.ndarray:
        # numpy is imported at the first grid, not with the module: it costs
        # most of `import legnu`, and one-value evaluation never needs it
        import numpy as np

        if self.spacing == "uniform":
            return np.linspace(self.start, self.end, self.count)
        mid = 0.5 * (self.start + self.end)
        half = 0.5 * (self.end - self.start)
        pts = mid - half * np.cos(np.pi * np.arange(self.count) / (self.count - 1))
        pts[0] = self.start
        pts[-1] = self.end
        return pts


_FIRST_INTEGRAL_GRID = GridSpec(-0.95, 0.95, 50)


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
    if not (0.0 < value < math.inf):
        raise DomainError(f"{identity_id}: tolerance must be positive and finite, got {value}")
    return value


def _make_report(identity_id: str, locations: Sequence[float], residuals: Sequence[float],
                 tolerance: float) -> IdentityReport:
    if len(residuals) < 2:
        raise ValueError(f"{identity_id}: need at least 2 residual samples, got {len(residuals)}")
    import numpy as np

    res = np.asarray(residuals, dtype=float)
    imax = int(np.argmax(res))
    return IdentityReport(
        identity_id=identity_id,
        samples=len(res),
        max_residual=float(res[imax]),
        mean_residual=float(np.mean(res)),
        argmax_location=float(locations[imax]),
        tolerance=float(tolerance),
        passed=bool(res[imax] <= tolerance),
    )


# ---------------------------------------------------------------------------
# stencils and analytic derivatives of the closed forms

def _legendre_operator_5pt(values: Sequence[float], z: float, h: float) -> float:
    """(1-z^2) f'' - 2z f' at z from f at z-2h .. z+2h, by 5-point stencils."""
    fm2, fm1, f0, fp1, fp2 = values
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    return (1.0 - z * z) * d2 - 2.0 * z * d1


def _d2p_closed_dz(z: float) -> float:
    """Analytic z-derivative of the order-2 closed form: -2 ln((z+1)/2) / (1-z)."""
    return -2.0 * dp_dnu0(z) / (1.0 - z)


def _d3p_closed_dz(z: float) -> float:
    """Analytic z-derivative of the order-3 closed form."""
    v = 0.5 * (z + 1.0)
    return (6.0 * dilog(v).value + 6.0 * math.log(v) * math.log1p(-v) - math.pi**2) / (2.0 * v)


def first_integral_residuals(order: int, zs: Iterable[float]) -> np.ndarray:
    """Residuals of the once-integrated equations, evaluated analytically.

    order 2:  (1-z^2) d/dz [order-2 form]  =  -2 (z+1) ln((z+1)/2)
    order 3:  (1-z^2) d/dz [order-3 form]  =   6 (z-1) Li2((1-z)/2)

    Both integration constants vanish, pinned by the value 1 at z = 1.
    No finite differences are involved, so residuals sit at rounding level.
    """
    if type(order) is not int or order not in (2, 3):
        raise DomainError(f"first-integral order must be an int, 2 or 3, got {order!r}")
    import numpy as np

    out = []
    for z in zs:
        z = float(z)
        w = 1.0 - z * z
        if order == 2:
            out.append(abs(w * _d2p_closed_dz(z) - (-2.0 * (z + 1.0) * dp_dnu0(z))))
        else:
            out.append(abs(w * _d3p_closed_dz(z) - 6.0 * (z - 1.0) * dilog(0.5 * (1.0 - z)).value))
    return np.asarray(out)


def _check_ode_grid(grid: GridSpec) -> np.ndarray:
    if grid.start < -_ODE_GRID_LIMIT or grid.end > _ODE_GRID_LIMIT:
        raise DomainError(
            f"ODE residual grids must lie within [-{_ODE_GRID_LIMIT}, {_ODE_GRID_LIMIT}], "
            f"got [{grid.start}, {grid.end}]"
        )
    return grid.points()


# ---------------------------------------------------------------------------
# the six checks

def check_ode_base(nu: float, grid: GridSpec, tolerance: float | None = None) -> IdentityReport:
    """Residual of the Legendre equation on P_nu over the grid.

    Points where the series fails to converge are excluded (reflected in
    the report's sample count), never silently included.
    """
    tolerance = _tolerance("ode_base", tolerance)
    pts = _check_ode_grid(grid)
    h = _ODE_STEP
    locations, residuals = [], []
    for z in pts:
        z = float(z)
        evals = [legendre_p(nu, z + k * h, tol=1e-15) for k in (-2, -1, 0, 1, 2)]
        if not all(e.converged for e in evals):
            continue
        vals = [e.value for e in evals]
        resid = _legendre_operator_5pt(vals, z, h) + nu * (nu + 1.0) * vals[2]
        locations.append(z)
        residuals.append(abs(resid))
    return _make_report("ode_base", locations, residuals, tolerance)


def _check_ode_closed_form(identity_id: str, f, rhs, step: float, fi_order: int,
                           grid: GridSpec, tolerance: float) -> IdentityReport:
    pts = _check_ode_grid(grid)
    locations, residuals = [], []
    for z in pts:
        z = float(z)
        vals = [f(z + k * step) for k in (-2, -1, 0, 1, 2)]
        resid = _legendre_operator_5pt(vals, z, step) - rhs(z)
        locations.append(z)
        residuals.append(abs(resid))
    # fold the stencil-free first-integral sub-check, rescaled so that it
    # fails the report exactly when it exceeds its own fixed bound
    scale = tolerance / FIRST_INTEGRAL_BOUND
    fi_points = _FIRST_INTEGRAL_GRID.points()
    for z, r in zip(fi_points, first_integral_residuals(fi_order, fi_points)):
        locations.append(float(z))
        residuals.append(float(r) * scale)
    return _make_report(identity_id, locations, residuals, tolerance)


def check_ode_deriv2(grid: GridSpec, tolerance: float | None = None) -> IdentityReport:
    """Residual of the twice-degree-differentiated equation on the order-2
    closed form, with its first integral checked analytically at 1e-10."""
    tolerance = _tolerance("ode_deriv2", tolerance)
    return _check_ode_closed_form(
        "ode_deriv2",
        d2p_dnu2_0,
        lambda z: -2.0 - 2.0 * dp_dnu0(z),
        _ODE_STEP,
        2,
        grid,
        tolerance,
    )


def check_ode_deriv3(grid: GridSpec, tolerance: float | None = None) -> IdentityReport:
    """Residual of the thrice-degree-differentiated equation on the order-3
    closed form, with its first integral checked analytically at 1e-10."""
    tolerance = _tolerance("ode_deriv3", tolerance)
    return _check_ode_closed_form(
        "ode_deriv3",
        d3p_dnu3_0,
        lambda z: -6.0 * dp_dnu0(z) + 6.0 * dilog(0.5 * (1.0 - z)).value,
        _ODE_STEP_DERIV3,
        3,
        grid,
        tolerance,
    )


def check_euler_reflection(grid: GridSpec, tolerance: float | None = None) -> IdentityReport:
    """Residual of Li2(x) + Li2(1-x) - pi^2/6 + ln(x) ln(1-x) over the grid."""
    tolerance = _tolerance("euler_reflection", tolerance)
    if grid.start <= 0.0 or grid.end >= 1.0:
        raise DomainError(f"reflection grid must lie within (0, 1), got [{grid.start}, {grid.end}]")
    pts = grid.points()
    residuals = [
        abs(dilog(float(x)).value + dilog(1.0 - float(x)).value
            - PI2_OVER_6 + math.log(float(x)) * math.log1p(-float(x)))
        for x in pts
    ]
    return _make_report("euler_reflection", [float(x) for x in pts], residuals, tolerance)


# ---------------------------------------------------------------------------
# quadrature-vs-antiderivative checks

#: Quadrature runs this much tighter than the agreement tolerance.
_QUAD_TOL_FRACTION = 0.01


def _li2_antideriv(t: float) -> float:
    """Antiderivative of Li2:  t Li2(t) + (t-1) ln(1-t) - t  (0 at t = 0)."""
    if t == 0.0:
        return 0.0
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
    """|quadrature - antiderivative difference| on [a, b] in [0, 0.999]; a
    failed quadrature is scored at 10x tolerance so it can never pass
    silently."""
    for t in (a, b):
        if not (0.0 <= t <= 0.999):
            raise DomainError(f"integration endpoints must lie in [0, 0.999], got {t}")
    if a == b:
        return 0.0
    q = adaptive_quad(integrand, a, b, max(1e-13, _QUAD_TOL_FRACTION * tol))
    resid = abs(q.value - (antideriv(b) - antideriv(a)))
    if not q.converged:
        resid = max(resid, 10.0 * tol)
    return resid


def dilog_antiderivative_residual(a: float, b: float, tol: float = 1e-10) -> float:
    """Quadrature-vs-antiderivative residual for Li2 on [a, b] in [0, 0.999]."""
    return _quad_vs_antideriv(lambda t: dilog(t).value, _li2_antideriv, a, b, tol)


def li2_ratio_antiderivative_residual(a: float, b: float, tol: float = 1e-9,
                                      form: str = "reduced") -> float:
    """Quadrature-vs-antiderivative residual for Li2(t)/(1-t) on [a, b].

    ``form`` selects the reduced antiderivative or the log form; the log
    form additionally needs a > 0.  Endpoints above 0.999 are rejected
    (the antiderivative's logarithms degrade there).
    """
    if form not in ("reduced", "log"):
        raise DomainError(f"unknown antiderivative form {form!r}")
    if form == "log" and a <= 0.0:
        raise DomainError("log-form antiderivative requires a > 0")
    return _quad_vs_antideriv(
        lambda t: dilog(t).value / (1.0 - t),
        lambda t: _li2_ratio_antideriv(t, form),
        a, b, tol,
    )


def _interval_check(identity_id: str, grid: GridSpec, tol: float, residual_fn,
                    extra: Sequence[tuple[float, float]] = ()) -> IdentityReport:
    """Residuals over consecutive intervals of a grid within [0, 0.999]."""
    if grid.start < 0.0 or grid.end > 0.999:
        raise DomainError(
            f"{identity_id} grid must lie within [0, 0.999], got [{grid.start}, {grid.end}]"
        )
    pts = grid.points()
    locations, residuals = [], []
    for a, b in zip(pts[:-1], pts[1:]):
        locations.append(0.5 * (float(a) + float(b)))
        residuals.append(residual_fn(float(a), float(b)))
    for loc, r in extra:
        locations.append(loc)
        residuals.append(r)
    return _make_report(identity_id, locations, residuals, tol)


def check_dilog_antiderivative(grid: GridSpec, tol: float | None = None) -> IdentityReport:
    """Integral of Li2 over consecutive grid intervals vs its antiderivative."""
    tol = _tolerance("dilog_antiderivative", tol)
    return _interval_check(
        "dilog_antiderivative", grid, tol,
        lambda a, b: dilog_antiderivative_residual(a, b, tol),
    )


def check_li2_over_1mz_integral(grid: GridSpec, tol: float | None = None) -> IdentityReport:
    """Integral of Li2(t)/(1-t) over grid intervals vs the reduced
    antiderivative, plus three fixed log-form spot intervals at 1e-8."""
    tol = _tolerance("li2_over_1mz_integral", tol)
    scale = tol / LOG_FORM_SPOT_BOUND
    extra = [
        (0.5 * (a + b),
         li2_ratio_antiderivative_residual(a, b, LOG_FORM_SPOT_BOUND, form="log") * scale)
        for a, b in _LOG_FORM_SPOT_INTERVALS
    ]
    return _interval_check(
        "li2_over_1mz_integral", grid, tol,
        lambda a, b: li2_ratio_antiderivative_residual(a, b, tol, form="reduced"),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# suite driver and serialization

def _resolve_tolerances(tolerances: Mapping[str, float] | None) -> dict[str, float]:
    resolved = dict(DEFAULT_TOLERANCES)
    for key, value in (tolerances or {}).items():
        matches = [key] if key in resolved else [n for n in IDENTITY_IDS if n.startswith(key)]
        if len(matches) != 1:
            raise ValueError(
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
    order; a failed identity never aborts the rest.  An unknown name or a
    tolerance that is not positive and finite raises before any check runs.
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
