"""Tests for the identity-verification layer: grids, reports, the six
checks, the suite driver, and report serialization."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import legnu
from legnu import legendre, verify
from legnu.core import DomainError
from legnu.legendre import legendre_p
from legnu.polylog import PI2_OVER_6, dilog
from legnu.verify import (
    DEFAULT_TOLERANCES,
    IDENTITY_IDS,
    GridSpec,
    IdentityReport,
    check_dilog_antiderivative,
    check_euler_reflection,
    check_li2_over_1mz_integral,
    check_ode_base,
    check_ode_deriv2,
    check_ode_deriv3,
    dilog_antiderivative_residual,
    li2_ratio_antiderivative_residual,
    report_lines,
    run_all,
)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(0.5, 0.5, 10)
        with pytest.raises(DomainError):
            GridSpec(0.9, 0.1, 10)
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 1)
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 10, "log")

    @pytest.mark.parametrize("count", [2.5, 3.0, "3", None, True])
    def test_count_must_be_an_int(self, count):
        # 2.5 used to leak numpy's TypeError from points(), "3" a TypeError from <
        with pytest.raises(DomainError, match="int count"):
            GridSpec(0.0, 1.0, count)

    def test_record_contract(self):
        g = GridSpec(-0.5, 1.0, 4)
        assert repr(g) == "GridSpec(start=-0.5, end=1.0, count=4, spacing='uniform')"
        assert g == GridSpec(-0.5, 1.0, 4, "uniform") and hash(g) == hash(GridSpec(-0.5, 1.0, 4))
        assert g != GridSpec(-0.5, 1.0, 5)
        with pytest.raises(AttributeError):
            g.count = 5
        assert g._replace(spacing="chebyshev").spacing == "chebyshev"

    @pytest.mark.parametrize("start, end", [(-0.9, math.inf), (-math.inf, 0.5),
                                            (-1e308, 1e308)])
    def test_span_must_be_finite(self, start, end):
        # an overflowing end - start would make nan points
        with pytest.raises(DomainError, match="start < end"):
            GridSpec(start, end, 3)

    def test_replace_and_make_validate(self):
        with pytest.raises(DomainError, match="int count"):
            GridSpec(0.0, 1.0, 3)._replace(count=1)
        with pytest.raises(DomainError, match="start < end"):
            GridSpec._make((1.0, 0.0, 3, "uniform"))

    def test_uniform_points(self):
        pts = GridSpec(-0.5, 1.0, 4).points()
        assert pts[0] == -0.5 and pts[-1] == 1.0
        assert len(pts) == 4
        assert np.all(np.diff(pts) > 0)

    def test_chebyshev_points(self):
        pts = GridSpec(-0.9, 0.9, 15, "chebyshev").points()
        assert pts[0] == -0.9 and pts[-1] == 0.9
        assert len(pts) == 15
        assert np.all(np.diff(pts) > 0)
        # clustered toward the endpoints
        assert pts[1] - pts[0] < pts[8] - pts[7]


def _numpy_imports(node: ast.AST, scope: str) -> list[str]:
    """Dotted scope of every numpy import below ``node``."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _numpy_imports(child, f"{scope}.{child.name}")
        elif isinstance(child, ast.Import):
            found += [scope for a in child.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(child, ast.ImportFrom):
            found += [scope] if (child.module or "").split(".")[0] == "numpy" else []
        else:
            found += _numpy_imports(child, scope)
    return found


class TestNumpySeam:
    """numpy is a test-only reference: `src/` never imports it, and
    `GridSpec.points` reproduces numpy's grids bit for bit."""

    def test_src_imports_numpy_nowhere(self):
        src = Path(verify.__file__).parents[1]
        found = [scope for path in sorted(src.rglob("*.py"))
                 for scope in _numpy_imports(ast.parse(path.read_text(encoding="utf-8")),
                                             path.stem)]
        assert found == []

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False),
           st.integers(2, 300), st.sampled_from(["uniform", "chebyshev"]))
    @example(0.0, 1.7976931348623157e308, 25, "uniform")
    @example(0.0, 1e-323, 5, "uniform")
    @example(1e308, 1.7e308, 3, "chebyshev")
    @example(-0.9, 1.0, 10000, "uniform")
    @example(-0.9, 1.0, 10000, "chebyshev")
    def test_points_are_numpys_as_python_floats(self, start, end, count, spacing):
        assume(start < end and end - start < math.inf)
        got = GridSpec(start, end, count, spacing).points()
        with np.errstate(over="ignore"):  # numpy warns where i * step passes the float range
            if spacing == "uniform":
                want = np.linspace(start, end, count)
            else:
                mid, half = 0.5 * start + 0.5 * end, 0.5 * (end - start)
                want = mid - half * np.cos(np.pi * np.arange(count) / (count - 1))
                want[0], want[-1] = start, end
        assert type(got) is list and all(type(x) is float for x in got)
        assert np.array(got).tobytes() == want.tobytes()
        assert got[0] == start and got[-1] == end

    @pytest.mark.parametrize("start, end, count", [(1e308, 1.7e308, 3), (-1.7e308, -1e308, 5),
                                                   (0.0, 1.7976931348623157e308, 25)])
    @pytest.mark.parametrize("spacing", ["uniform", "chebyshev"])
    def test_points_near_the_float_limit_are_finite_and_ascending(self, start, end, count,
                                                                   spacing):
        # a midpoint that summed the ends before halving would overflow here
        pts = GridSpec(start, end, count, spacing).points()
        assert all(math.isfinite(x) for x in pts)
        assert all(a < b for a, b in zip(pts, pts[1:]))


def _fake_interval_residuals(monkeypatch, values):
    """Make `check_dilog_antiderivative` on GridSpec(0.1, 0.9, 9) see
    ``values[k]`` as the residual of its k-th interval."""
    monkeypatch.setattr(verify, "dilog_antiderivative_residual",
                        lambda a, b, tol: values[round(10.0 * a) - 1])
    pts = GridSpec(0.1, 0.9, 9).points()
    return [0.5 * (a + b) for a, b in zip(pts[:-1], pts[1:])]


class TestReportStatistics:
    """The worst residual is the first NaN, else the first maximum; a P_nu
    sum that did not converge enters as NaN, so every grid point is a
    sample."""

    def test_nan_closed_form_fails_its_ode_check(self, monkeypatch):
        grid = GridSpec(-0.9, 0.9, 51)
        exact = legendre.d2p_dnu2_0
        monkeypatch.setattr(legendre, "d2p_dnu2_0",
                            lambda z: math.nan if abs(z) < 1e-9 else exact(z))
        r = check_ode_deriv2(grid)
        assert not r.passed and r.samples == 51
        assert math.isnan(r.max_residual) and math.isnan(r.mean_residual)
        assert r.argmax_location == grid.points()[25]

    def test_nan_interval_fails_its_check(self, monkeypatch):
        mids = _fake_interval_residuals(
            monkeypatch, [4e-12, 8e-12, math.nan, 2e-12, 8e-12, 1e-12, math.nan, 3e-12])
        r = check_dilog_antiderivative(GridSpec(0.1, 0.9, 9))
        assert not r.passed and r.samples == 8
        assert math.isnan(r.max_residual) and r.argmax_location == mids[2]

    def test_ties_report_the_first_maximum(self, monkeypatch):
        values = [k * 2.0 ** -45 for k in (3, 7, 1, 7, 2, 7, 0, 5)]
        mids = _fake_interval_residuals(monkeypatch, values)
        r = check_dilog_antiderivative(GridSpec(0.1, 0.9, 9))
        assert r.passed and r.samples == 8
        assert r.max_residual == values[1] and r.argmax_location == mids[1]
        assert r.mean_residual == math.fsum(values) / 8

    def test_sum_past_the_float_range_gives_an_infinite_mean(self, monkeypatch):
        _fake_interval_residuals(monkeypatch, [1e308] * 8)
        r = check_dilog_antiderivative(GridSpec(0.1, 0.9, 9))
        assert not r.passed and r.max_residual == 1e308 and r.mean_residual == math.inf

    def test_nonconverged_samples_fail_as_nan(self, monkeypatch):
        # sums P = v with zero derivatives and sum|P terms| = 1 near the k-th
        # point of a 0.1-step grid give the degree-1 scaled residual |2 v| / 2;
        # None is a sum cut short, six NaNs, which enters as NaN
        values = [3.0, None, 1.0, 5.0, None, 2.0, 5.0, 4.0, 1.0, 0.0,
                  2.0, None, 3.0, 1.0, 4.0, 2.0, 1.0, 3.0, 2.0]

        def fake(z):
            v = values[round(10.0 * z) + 9]
            return (math.nan,) * 6 if v is None else (v, 0.0, 0.0, 1.0, 0.0, 0.0)

        monkeypatch.setattr(verify, "_p_series_du", lambda nu, zs: [fake(z) for z in zs])
        grid = GridSpec(-0.9, 0.9, 19)
        r = check_ode_base(1.0, grid, 100.0)
        assert r.samples == 19 and r.passed is False
        assert math.isnan(r.max_residual) and r.argmax_location == grid.points()[1]
        assert math.isnan(r.mean_residual)

    def test_every_sum_cut_short_fails_the_report(self, monkeypatch):
        # three terms cannot meet the series' stopping rule anywhere
        monkeypatch.setattr(legendre, "MAX_TERMS", 3)
        grid = GridSpec(-0.9, 0.9, 11)
        r = check_ode_base(0.5, grid)
        assert r.samples == 11 and r.passed is False
        assert math.isnan(r.max_residual) and r.argmax_location == grid.points()[0]

    def test_two_point_grid_gives_one_sample(self):
        r = check_dilog_antiderivative(GridSpec(0.1, 0.9, 2))
        resid = dilog_antiderivative_residual(0.1, 0.9)
        assert r == IdentityReport("dilog_antiderivative", 1, resid, resid, 0.5,
                                   DEFAULT_TOLERANCES["dilog_antiderivative"], True)


class TestOdeChecks:
    def test_base_degree_zero_is_exact(self):
        r = check_ode_base(0.0, GridSpec(-0.9, 0.9, 21))
        assert r.max_residual == 0.0
        assert r.passed
        assert r.samples == 21

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 3.0])
    def test_base_fd_limited(self, nu):
        # no finite difference is left: the scaled residual meets 1e-12
        r = check_ode_base(nu, GridSpec(-0.9, 0.9, 51))
        assert r.passed and r.tolerance == 1e-12
        assert r.max_residual <= 1e-12

    def test_base_passes_at_every_integer_degree(self):
        # nu = 0 and nu = -1 have every coefficient past c_0 zero and a zero
        # scale: their residual is exactly 0, not 0/0
        for nu in range(-5, 6):
            r = check_ode_base(float(nu), GridSpec(-0.9, 0.9, 101))
            assert r.passed, nu
            if nu in (0, -1):
                assert r.max_residual == 0.0 and r.mean_residual == 0.0

    def test_base_sees_an_error_in_the_p_sum(self, monkeypatch):
        # a relative error of 1e-10 in P alone moves the scaled residual by
        # about nu (nu + 1) P 1e-10 / scale, far above the 1e-12 gate; a
        # 5-point stencil at h = 6e-4 read about 1e-8 with or without it
        exact = legendre._p_series_du

        def skewed(nu, zs):
            return [(p * (1.0 + 1e-10), *rest) for p, *rest in exact(nu, zs)]

        assert run_all()[0].passed
        monkeypatch.setattr(verify, "_p_series_du", skewed)
        r = run_all()[0]
        assert r.identity_id == "ode_base" and not r.passed
        assert r.max_residual > 1e-11

    def test_base_respects_grid_bound(self):
        with pytest.raises(DomainError):
            check_ode_base(0.5, GridSpec(-0.99, 0.9, 11))

    @pytest.mark.parametrize("nu, grid, tol, match", [
        (6.0, GridSpec(-0.99, 0.9, 11), 0.0, "^ode_base: tolerance"),
        (math.nan, GridSpec(-0.99, 0.9, 11), None, "^ODE residual grids"),
        (6.0, GridSpec(-0.9, 0.9, 11), None, "^degree"),
        (math.nan, GridSpec(-0.9, 0.9, 11), None, "^degree"),
    ])
    def test_base_errors_come_before_any_series_work(self, monkeypatch, nu, grid, tol, match):
        # a bad tolerance first, then a grid outside +-0.9, both before the
        # sums are called; then a bad degree, which the real sums reject
        # before they look at any grid point
        calls = []
        if match == "^degree":
            check = legendre._check_argument
            monkeypatch.setattr(legendre, "_check_argument", lambda z: calls.append(z) or check(z))
        else:
            monkeypatch.setattr(verify, "_p_series_du", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match=match):
            check_ode_base(nu, grid, tol)
        assert calls == []

    @pytest.mark.parametrize("nu", [0.5, 0.0, 3.0, -4.2])
    @pytest.mark.parametrize("grid", [GridSpec(-0.9, 0.9, 101),
                                      GridSpec(-0.9, 0.9, 33, "chebyshev")])
    def test_base_is_per_point_legendre_p(self, nu, grid):
        # the report from one call of the three sums equals one built here
        # from one-argument calls, each with P'' = P_uu / 4, P' = -P_u / 2 and
        # the scale written out, and each sum's P is legendre_p's within
        # legendre_p's error estimate
        res, tol = [], DEFAULT_TOLERANCES["ode_base"]
        for z in grid.points():
            [(p, pu, puu, a0, a1, a2)] = legendre._p_series_du(nu, [z])
            e = legendre_p(nu, z)
            assert e.converged and abs(p - e.value) <= e.abs_err_est
            d1, d2 = -0.5 * pu, 0.25 * puu
            r = abs((1.0 - z * z) * d2 - 2.0 * z * d1 + nu * (nu + 1.0) * p)
            scale = (1.0 - z * z) * 0.25 * a2 + 2.0 * abs(z) * 0.5 * a1 + abs(nu * (nu + 1.0)) * a0
            res.append(r / scale if scale else r)
        worst = max(res)
        want = IdentityReport("ode_base", len(res), worst, math.fsum(res) / len(res),
                              grid.points()[res.index(worst)], tol, worst <= tol)
        assert check_ode_base(nu, grid) == want

    @pytest.mark.parametrize("order, h, check", [(2, verify._ODE_STEP, check_ode_deriv2),
                                                 (3, verify._ODE_STEP, check_ode_deriv3)])
    @pytest.mark.parametrize("grid", [GridSpec(-0.9, 0.9, 101), GridSpec(-0.9, 0.9, 51),
                                      GridSpec(-0.9, 0.9, 33, "chebyshev")])
    def test_closed_form_is_per_point(self, order, h, check, grid):
        # the report equals one built here from per-point closed forms on
        # explicit 5-point stencils, with the source k d_(k-1) + k (k-1) d_(k-2)
        d = (lambda z: 1.0, legendre.dp_dnu0, legendre.d2p_dnu2_0, legendre.d3p_dnu3_0)
        res = []
        for z in grid.points():
            fm2, fm1, f0, fp1, fp2 = (d[order](z + k * h) for k in (-2, -1, 0, 1, 2))
            d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
            d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
            source = order * d[order - 1](z) + order * (order - 1) * d[order - 2](z)
            res.append(abs((1.0 - z * z) * d2 - 2.0 * z * d1 + source))
        worst = max(res)
        want = IdentityReport(f"ode_deriv{order}", len(res), worst, math.fsum(res) / len(res),
                              grid.points()[res.index(worst)], 1e-6, worst <= 1e-6)
        assert check(grid) == want

    def test_deriv2(self):
        r = check_ode_deriv2(GridSpec(-0.9, 0.9, 51))
        assert r.passed
        assert r.max_residual <= 1e-6
        assert r.samples == 51

    def test_deriv3(self):
        r = check_ode_deriv3(GridSpec(-0.9, 0.9, 51))
        assert r.passed
        assert r.max_residual <= 1e-6

    @pytest.mark.parametrize("grid", [GridSpec(-0.9, 0.9, 101),
                                      GridSpec(-0.9, 0.9, 33, "chebyshev"),
                                      GridSpec(-0.9, 0.9, 2)])
    def test_one_step_holds_a_margin_over_the_window(self, grid):
        # one stencil step serves both closed-form checks on all of +-0.9: the
        # worst residual, d3 at z = -0.9, stays 3x below 1e-6; the series
        # sums keep every degree's scaled residual 3x below 1e-12
        margin = DEFAULT_TOLERANCES["ode_base"] / 3.0
        for nu in np.linspace(-5.0, 5.0, 41):
            assert check_ode_base(float(nu), grid).max_residual <= margin
        margin = DEFAULT_TOLERANCES["ode_deriv2"] / 3.0
        assert check_ode_deriv2(grid).max_residual <= margin
        assert check_ode_deriv3(grid).max_residual <= margin

    def test_stencil_sums_converge_over_the_degree_envelope(self):
        # check_ode_base scores a sum that did not converge as NaN; within
        # +-0.9 none arises, since every grid point has u = (1 - z)/2 <= 0.95
        for nu in np.linspace(-5.0, 5.0, 201):
            sums = legendre._p_series_du(float(nu), [-0.9, 0.0, 0.9])
            assert all(math.isfinite(x) for s in sums for x in s), nu

    @pytest.mark.parametrize("check", [lambda g: check_ode_base(0.5, g),
                                       check_ode_deriv2, check_ode_deriv3],
                             ids=["ode_base", "ode_deriv2", "ode_deriv3"])
    @pytest.mark.parametrize("grid", [GridSpec(-0.95, 0.9, 3), GridSpec(-0.9, 0.95, 3),
                                      GridSpec(-0.95, 0.95, 2)])
    def test_grids_past_the_window_raise(self, check, grid):
        # past +-0.9 the stencil's truncation near z = -1 leaves no step that
        # passes correct closed forms; ode_base keeps the same window
        with pytest.raises(DomainError, match="^ODE residual grids must lie within"):
            check(grid)

    def test_reports_are_deterministic(self):
        grid = GridSpec(-0.9, 0.9, 31)
        assert check_ode_deriv2(grid) == check_ode_deriv2(grid)
        assert check_ode_base(0.5, grid) == check_ode_base(0.5, grid)

    @pytest.mark.parametrize("name, check", [
        ("d2p_dnu2_0", check_ode_deriv2), ("d3p_dnu3_0", check_ode_deriv3)])
    def test_skewed_closed_form_fails(self, monkeypatch, name, check):
        # L[z^2] = 2 - 6 z^2, so a 1e-5 z^2 error moves the residual by up to
        # 2e-5, far above the 1e-6 tolerance; the checks read the closed forms
        # through legendre's table of d_k
        exact = getattr(legendre, name)
        monkeypatch.setattr(legendre, name, lambda z: exact(z) + 1e-5 * z * z)
        r = check(GridSpec(-0.9, 0.9, 51))
        assert not r.passed
        assert r.max_residual > 1e-5


class TestFirstIntegrals:
    def test_deriv3_source_term_vanishes_at_boundary(self):
        # 3 d2 + 6 d1 at z = 1, where every d_k with k >= 1 is exactly 0
        assert verify._ode_source(3, 1.0) == 0.0

    def test_source_terms_follow_the_recurrence(self):
        # bit for bit the hand-written source terms -(-2 - 2 d1) and
        # -(-6 d1 + 6 Li2((1-z)/2)), also at z = 1 where the order-2 one is 2
        from legnu.legendre import dp_dnu0

        for z in (-0.9, -0.3, 0.0, 0.4, 0.9, 1.0):
            assert verify._ode_source(2, z) == -(-2.0 - 2.0 * dp_dnu0(z))
            assert verify._ode_source(3, z) == -(-6.0 * dp_dnu0(z)
                                                 + 6.0 * dilog(0.5 * (1.0 - z)).value)

    def test_integral_form_detects_a_skewed_d3(self, monkeypatch):
        # the order-3 first integral d3 = 6 times the integral of Li2(t)/(1-t)
        # over [0, (1-z)/2] sees a 1e-9 z error at the acceptance bound 1e-10:
        # at z = -0.95 the skew moves the integral by 1e-9 (1 + 0.95) / 6
        w = 0.5 * (1.0 + 0.95)
        assert li2_ratio_antiderivative_residual(0.0, w, 1e-10) <= 1e-10
        exact = verify.d3p_dnu3_0
        monkeypatch.setattr(verify, "d3p_dnu3_0", lambda z: exact(z) + 1e-9 * z)
        assert li2_ratio_antiderivative_residual(0.0, w, 1e-10) > 1e-10


class TestEulerReflection:
    def test_default_grid(self):
        r = check_euler_reflection(GridSpec(0.001, 0.999, 200))
        assert r.passed
        assert r.max_residual <= 1e-12

    def test_symmetric_point(self):
        resid = abs(2.0 * dilog(0.5).value - PI2_OVER_6 + math.log(0.5) ** 2)
        assert resid <= 1e-14

    def test_below_noise_floor_fails(self):
        r = check_euler_reflection(GridSpec(0.001, 0.999, 101), tolerance=1e-16)
        assert not r.passed

    def test_tolerance_must_be_positive_and_finite(self):
        for tol in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                check_euler_reflection(GridSpec(0.001, 0.999, 11), tol)

    def test_grid_must_be_interior(self):
        with pytest.raises(DomainError):
            check_euler_reflection(GridSpec(0.0, 0.999, 11))
        with pytest.raises(DomainError):
            check_euler_reflection(GridSpec(0.001, 1.0, 11))


class TestIntegralIdentities:
    def test_interval_residuals(self):
        assert dilog_antiderivative_residual(0.0, 0.0) == 0.0
        assert li2_ratio_antiderivative_residual(0.3, 0.3) == 0.0
        assert li2_ratio_antiderivative_residual(0.5, 0.5, 1e-8, form="log") == 0.0
        assert dilog_antiderivative_residual(0.0, 0.5) <= 1e-10
        assert dilog_antiderivative_residual(0.2, 0.9) <= 1e-10
        assert li2_ratio_antiderivative_residual(0.1, 0.5) <= 1e-9
        assert li2_ratio_antiderivative_residual(0.3, 0.9) <= 1e-9
        # the defaults are the suite's, not copies of them
        for helper, identity_id in ((dilog_antiderivative_residual, "dilog_antiderivative"),
                                    (li2_ratio_antiderivative_residual, "li2_over_1mz_integral")):
            tol = inspect.signature(helper).parameters["tolerance"].default
            assert tol == DEFAULT_TOLERANCES[identity_id]

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("a, b", [(0.2, 0.5), (0.3, 0.3)])
    def test_tolerance_must_be_positive_and_finite(self, a, b, tol):
        msg = "^antiderivative tolerance must be positive and finite, got "
        with pytest.raises(DomainError, match=msg):
            dilog_antiderivative_residual(a, b, tol)
        for form in ("reduced", "log"):
            with pytest.raises(DomainError, match=msg):
                li2_ratio_antiderivative_residual(a, b, tol, form=form)

    def test_unknown_form_is_rejected(self):
        with pytest.raises(DomainError, match="^unknown antiderivative form 'bogus'$"):
            li2_ratio_antiderivative_residual(0.2, 0.5, form="bogus")

    def test_nonconverged_quadrature_scores_nan(self, monkeypatch):
        # an unconverged quadrature is a NaN sample, as an unconverged P_nu sum is
        quad = verify.adaptive_quad
        monkeypatch.setattr(verify, "adaptive_quad",
                            lambda *args: quad(*args)._replace(converged=False))
        assert math.isnan(dilog_antiderivative_residual(0.2, 0.5))
        assert math.isnan(li2_ratio_antiderivative_residual(0.2, 0.5, form="log"))
        grid = GridSpec(0.1, 0.9, 9)
        r = check_dilog_antiderivative(grid)
        assert not r.passed and r.samples == 8
        assert math.isnan(r.max_residual) and math.isnan(r.mean_residual)
        assert r.argmax_location == 0.5 * (grid.points()[0] + grid.points()[1])

    def test_log_form_spots(self):
        for a, b in ((0.2, 0.5), (0.3, 0.7), (0.25, 0.75)):
            assert li2_ratio_antiderivative_residual(a, b, 1e-8, form="log") <= 1e-8

    def test_endpoint_rejection(self):
        with pytest.raises(DomainError):
            dilog_antiderivative_residual(0.0, 0.9995)
        with pytest.raises(DomainError):
            li2_ratio_antiderivative_residual(0.1, 0.9991)
        with pytest.raises(DomainError):
            li2_ratio_antiderivative_residual(0.0, 0.5, form="log")
        with pytest.raises(DomainError, match="^log-form antiderivative requires endpoints > 0"):
            li2_ratio_antiderivative_residual(0.5, 0.0, form="log")  # not log(0)'s ValueError
        with pytest.raises(DomainError):
            check_li2_over_1mz_integral(GridSpec(0.1, 0.9999, 5))

    def test_grid_is_checked_before_any_quadrature(self, monkeypatch):
        calls = []
        original = verify.li2_ratio_antiderivative_residual

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "li2_ratio_antiderivative_residual", counting)
        with pytest.raises(DomainError):
            check_li2_over_1mz_integral(GridSpec(0.1, 0.9999, 5))
        assert calls == []

    def test_checks_pass(self):
        r = check_dilog_antiderivative(GridSpec(0.0, 0.99, 11))
        assert r.passed and r.samples == 10
        r = check_li2_over_1mz_integral(GridSpec(0.05, 0.95, 11))
        assert r.passed and r.samples == 13  # 10 intervals + 3 log-form spots

    @pytest.mark.parametrize("first_integral_branch", [True, False])
    def test_reduced_form_checks_both_branches_of_d3(self, monkeypatch,
                                                     first_integral_branch):
        # the reduced antiderivative is d3(1 - 2t)/6: an error of 1e-6 z in
        # either branch of d3p_dnu3_0 (the switch is at z = 1/2, t = 1/4)
        # moves the default grid's interval residuals well past 1e-9
        exact = verify.d3p_dnu3_0

        def skewed(z):
            return exact(z) + (1e-6 * z if (z > 0.5) == first_integral_branch else 0.0)

        monkeypatch.setattr(verify, "d3p_dnu3_0", skewed)
        assert not check_li2_over_1mz_integral(GridSpec(0.05, 0.95, 11)).passed

    def test_skewed_log_form_fails_at_the_report_tolerance(self, monkeypatch):
        # a 4e-9 t error moves each spot's residual by 4e-9 (b - a) >= 1.2e-9,
        # past the default 1e-9 that the spots are held to
        exact = verify._li2_ratio_antideriv
        monkeypatch.setattr(verify, "_li2_ratio_antideriv",
                            lambda t, form: exact(t, form) + (4e-9 * t if form == "log" else 0.0))
        r = check_li2_over_1mz_integral(GridSpec(0.05, 0.95, 11))
        assert not r.passed and r.max_residual > 1e-9
        assert r.argmax_location in [0.5 * (a + b) for a, b in verify._LOG_FORM_SPOT_INTERVALS]

    def test_refinement_does_not_blow_up(self):
        # residuals are method noise; refining the grid must not reveal an
        # identity violation (allow a one-ulp-scale wiggle at the floor)
        for fn in (check_dilog_antiderivative, check_li2_over_1mz_integral):
            base = fn(GridSpec(0.05, 0.95, 11))
            fine = fn(GridSpec(0.05, 0.95, 21))
            assert fine.max_residual <= 2.0 * base.max_residual + 1e-15


# every default report as (id, samples, passed, and the float.hex of the max,
# the mean and the argmax); ode_base's mean is an fsum over residuals built
# from all 101 of its three-sum evaluations, so a change in the bits of any
# one shows here
_RUN_ALL_BITS = [
    ("ode_base", 101, True,
     "0x1.7025167d33fd7p-44", "0x1.0c4e7641f9fe9p-47", "-0x1.ccccccccccccdp-1"),
    ("ode_deriv2", 101, True,
     "0x1.2690914000000p-28", "0x1.d6e6a81958b68p-31", "-0x1.70a3d70a3d708p-4"),
    ("ode_deriv3", 101, True,
     "0x1.2b46ec0000000p-23", "0x1.20461058b67ecp-27", "-0x1.ccccccccccccdp-1"),
    ("euler_reflection", 101, True,
     "0x1.4000000000000p-52", "0x1.d9958b67ebb90p-54", "0x1.f2ba9d1f60179p-5"),
    ("dilog_antiderivative", 10, True,
     "0x1.4000000000000p-52", "0x1.7d33333333333p-54", "0x1.aed916872b021p-1"),
    ("li2_over_1mz_integral", 13, True,
     "0x1.0000000000000p-50", "0x1.33b13b13b13b1p-52", "0x1.cf5c28f5c28f6p-1"),
]


# each public check with a small grid of its own; every one takes `tolerance`
KEYWORD_CALLS = {
    "ode_base": (check_ode_base, (0.5, GridSpec(-0.5, 0.5, 11))),
    "ode_deriv2": (check_ode_deriv2, (GridSpec(-0.5, 0.5, 11),)),
    "ode_deriv3": (check_ode_deriv3, (GridSpec(-0.5, 0.5, 11),)),
    "euler_reflection": (check_euler_reflection, (GridSpec(0.1, 0.9, 5),)),
    "dilog_antiderivative": (check_dilog_antiderivative, (GridSpec(0.1, 0.9, 5),)),
    "li2_over_1mz_integral": (check_li2_over_1mz_integral, (GridSpec(0.1, 0.9, 5),)),
}


@pytest.mark.parametrize("identity_id", list(KEYWORD_CALLS))
def test_every_check_takes_tolerance_by_keyword(identity_id):
    check, args = KEYWORD_CALLS[identity_id]
    r = check(*args, tolerance=0.25)
    assert r.identity_id == identity_id
    assert r.tolerance == 0.25 and r.passed
    assert r == check(*args, 0.25)


def test_residual_helpers_take_tolerance_by_keyword():
    assert dilog_antiderivative_residual(0.1, 0.5, tolerance=1e-9) \
        == dilog_antiderivative_residual(0.1, 0.5, 1e-9)
    assert li2_ratio_antiderivative_residual(0.1, 0.5, tolerance=1e-8, form="log") \
        == li2_ratio_antiderivative_residual(0.1, 0.5, 1e-8, form="log")
    with pytest.raises(DomainError, match="^antiderivative tolerance must be"):
        dilog_antiderivative_residual(0.1, 0.5, tolerance=0.0)


class TestRunAll:
    def test_default_run_is_pinned_bit_for_bit(self):
        assert [(r.identity_id, r.samples, r.passed, r.max_residual.hex(),
                 r.mean_residual.hex(), r.argmax_location.hex())
                for r in run_all()] == _RUN_ALL_BITS

    def test_default_run(self):
        reports = run_all()
        assert [r.identity_id for r in reports] == list(IDENTITY_IDS)
        assert all(r.passed for r in reports)
        assert all(r.samples >= 2 for r in reports)

    def test_report_invariant(self):
        for r in run_all():
            assert r.passed == (r.max_residual <= r.tolerance)
            assert r.mean_residual <= r.max_residual

    def test_empty_overrides(self):
        reports = run_all({})
        assert len(reports) == 6
        assert all(r.passed for r in reports)

    def test_prefix_override(self):
        reports = run_all({"euler": 1e-16})
        by_id = {r.identity_id: r for r in reports}
        assert not by_id["euler_reflection"].passed
        assert by_id["euler_reflection"].tolerance == 1e-16
        assert sum(not r.passed for r in reports) == 1

    def test_unknown_key(self):
        unknown = "^unknown identity 'spherical'; expected one of "
        with pytest.raises(ValueError, match=unknown) as exc:
            run_all({"spherical": 1e-6})
        assert exc.type is DomainError  # so the CLI's one handler reports it
        with pytest.raises(ValueError, match="^ambiguous identity prefix 'ode': matches "
                                             "ode_base, ode_deriv2, ode_deriv3$") as exc:
            run_all({"ode": 1e-6})
        assert exc.type is DomainError

    def test_deterministic(self):
        assert run_all() == run_all()

    def test_bad_tolerance_fails_before_any_check(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before the tolerances were validated")

        monkeypatch.setattr(verify, "check_ode_base", must_not_run)
        with pytest.raises(DomainError, match="^li2_over_1mz_integral: tolerance must be"):
            run_all({"li2": float("nan")})

    def test_checks_are_looked_up_when_run(self, monkeypatch):
        calls = []
        original = verify.check_euler_reflection

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "check_euler_reflection", counting)
        reports = run_all()
        assert len(calls) == 1
        assert [r.identity_id for r in reports] == list(IDENTITY_IDS)

    def test_closed_forms_are_looked_up_when_run(self, monkeypatch):
        # the ODE checks reach d1-d3 through legendre's globals at call time,
        # so wrappers installed there (as the bench tracer does) see the calls
        calls = {}
        for name in ("dp_dnu0", "d2p_dnu2_0", "d3p_dnu3_0"):
            def counting(z, _name=name, _original=getattr(legendre, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(z)

            monkeypatch.setattr(legendre, name, counting)
        assert all(r.passed for r in run_all())
        assert set(calls) == {"dp_dnu0", "d2p_dnu2_0", "d3p_dnu3_0"}
        assert all(n > 0 for n in calls.values())

    @pytest.mark.parametrize("check, args", [
        (check_ode_base, (0.5, GridSpec(-0.9, 0.9, 5))),
        (check_ode_deriv2, (GridSpec(-0.9, 0.9, 5),)),
        (check_ode_deriv3, (GridSpec(-0.9, 0.9, 5),)),
        (check_dilog_antiderivative, (GridSpec(0.1, 0.9, 5),)),
        (check_li2_over_1mz_integral, (GridSpec(0.1, 0.9, 5),)),
    ])
    def test_every_check_rejects_bad_tolerance(self, check, args):
        for tol in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(DomainError, match="tolerance must be positive and finite"):
                check(*args, tol)


class TestSerialization:
    def test_line_records(self):
        reports = run_all()
        lines = report_lines(reports)
        assert len(lines) == 6
        for line, rep in zip(lines, reports):
            assert line.startswith(rep.identity_id)
            assert ("pass" in line) == rep.passed

    def test_report_record_contract(self):
        r = IdentityReport("euler_reflection", 101, 2e-16, 1e-16, 0.5, 1e-12, True)
        assert repr(r) == (
            "IdentityReport(identity_id='euler_reflection', samples=101, max_residual=2e-16, "
            "mean_residual=1e-16, argmax_location=0.5, tolerance=1e-12, passed=True)"
        )
        assert IdentityReport(**r._asdict()) == r and hash(IdentityReport(*r)) == hash(r)
        with pytest.raises(AttributeError):
            r.passed = False

    def test_default_tolerances_cover_all_identities(self):
        assert set(DEFAULT_TOLERANCES) == set(IDENTITY_IDS)
        # a read-only view of the suite's defaults: no caller can reset a gate
        defaults = {name: tol for name, (tol, _) in verify._SUITE.items()}
        assert legnu.DEFAULT_TOLERANCES is DEFAULT_TOLERANCES
        with pytest.raises(TypeError):
            legnu.DEFAULT_TOLERANCES["ode_base"] = 1.0
        with pytest.raises(TypeError):
            del DEFAULT_TOLERANCES["ode_deriv3"]
        assert DEFAULT_TOLERANCES == defaults and list(DEFAULT_TOLERANCES) == list(IDENTITY_IDS)
        assert [(r.identity_id, r.tolerance) for r in run_all()] == list(defaults.items())
        copy = dict(DEFAULT_TOLERANCES)
        copy["ode_base"] = 1.0
        assert DEFAULT_TOLERANCES["ode_base"] == defaults["ode_base"]
