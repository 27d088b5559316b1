"""Tests for the identity-verification layer: grids, reports, the six
checks, the suite driver, and report serialization."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

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
    """The worst residual is the first NaN, else the first maximum; a
    non-converged sample is left out of the count, the maximum and the mean."""

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

    def test_nonconverged_samples_are_left_out(self, monkeypatch):
        # P_nu = v near the k-th point of a 0.1-step grid has zero stencil
        # derivatives, so the degree-1 residual there is exactly |2 v|; None
        # is a non-converged series with a huge value
        values = [3.0, None, 1.0, 5.0, None, 2.0, 5.0, 4.0, 1.0, 0.0,
                  2.0, None, 3.0, 1.0, 4.0, 2.0, 1.0, 3.0, 2.0]
        template = legendre_p(0.0, 0.0)

        def fake(nu, z, tol=None):
            v = values[round(10.0 * z) + 9]
            return template._replace(value=1e300 if v is None else v, converged=v is not None)

        monkeypatch.setattr(verify, "legendre_p", fake)
        grid = GridSpec(-0.9, 0.9, 19)
        kept = [2.0 * v for v in values if v is not None]
        r = check_ode_base(1.0, grid, 100.0)
        assert r.samples == 16 and r.passed
        assert r.max_residual == 10.0 and r.argmax_location == grid.points()[3]
        assert r.mean_residual == math.fsum(kept) / 16


class TestOdeChecks:
    def test_base_degree_zero_is_exact(self):
        r = check_ode_base(0.0, GridSpec(-0.9, 0.9, 21))
        assert r.max_residual == 0.0
        assert r.passed
        assert r.samples == 21

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 3.0])
    def test_base_fd_limited(self, nu):
        r = check_ode_base(nu, GridSpec(-0.9, 0.9, 51))
        assert r.passed
        assert r.max_residual <= 1e-6

    def test_base_respects_grid_bound(self):
        with pytest.raises(DomainError):
            check_ode_base(0.5, GridSpec(-0.99, 0.9, 11))

    def test_deriv2(self):
        r = check_ode_deriv2(GridSpec(-0.9, 0.9, 51))
        assert r.passed
        assert r.max_residual <= 1e-6
        assert r.samples == 51

    def test_deriv3(self):
        r = check_ode_deriv3(GridSpec(-0.9, 0.9, 51))
        assert r.passed
        assert r.max_residual <= 1e-6

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
        assert dilog_antiderivative_residual(0.0, 0.5) <= 1e-10
        assert dilog_antiderivative_residual(0.2, 0.9) <= 1e-10
        assert li2_ratio_antiderivative_residual(0.1, 0.5) <= 1e-9
        assert li2_ratio_antiderivative_residual(0.3, 0.9) <= 1e-9

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

    def test_refinement_does_not_blow_up(self):
        # residuals are method noise; refining the grid must not reveal an
        # identity violation (allow a one-ulp-scale wiggle at the floor)
        for fn in (check_dilog_antiderivative, check_li2_over_1mz_integral):
            base = fn(GridSpec(0.05, 0.95, 11))
            fine = fn(GridSpec(0.05, 0.95, 21))
            assert fine.max_residual <= 2.0 * base.max_residual + 1e-15


class TestRunAll:
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
        with pytest.raises(ValueError):
            run_all({"spherical": 1e-6})
        with pytest.raises(ValueError):
            run_all({"ode": 1e-6})  # ambiguous prefix

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
