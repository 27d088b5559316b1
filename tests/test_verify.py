"""Tests for the identity-verification layer: grids, reports, the six
checks, the suite driver, and report serialization."""

import math

import numpy as np
import pytest

from legnu import verify
from legnu.core import DomainError
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
    first_integral_residuals,
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
        assert r.samples == 51 + 50  # grid points plus folded first-integral points

    def test_deriv3(self):
        r = check_ode_deriv3(GridSpec(-0.9, 0.9, 51))
        assert r.passed
        assert r.max_residual <= 1e-6

    def test_reports_are_deterministic(self):
        grid = GridSpec(-0.9, 0.9, 31)
        assert check_ode_deriv2(grid) == check_ode_deriv2(grid)
        assert check_ode_base(0.5, grid) == check_ode_base(0.5, grid)


class TestFirstIntegrals:
    def test_residuals_are_tight(self):
        zs = np.linspace(-0.95, 0.95, 50)
        assert first_integral_residuals(2, zs).max() <= 1e-10
        assert first_integral_residuals(3, zs).max() <= 1e-10

    def test_residual_at_origin(self):
        assert float(first_integral_residuals(3, [0.0])[0]) <= 1e-10

    def test_order_validation(self):
        with pytest.raises(DomainError):
            first_integral_residuals(1, [0.0, 0.5])

    @pytest.mark.parametrize("order", [2.0, 3.0, "2", None, np.int64(3)])
    def test_order_must_be_an_int(self, order):
        with pytest.raises(DomainError, match="must be an int"):
            first_integral_residuals(order, [0.0, 0.5])

    def test_deriv3_source_term_vanishes_at_boundary(self):
        # right-hand side of the thrice-differentiated equation at z = 1
        from legnu.legendre import dp_dnu0

        assert -6.0 * dp_dnu0(1.0) + 6.0 * dilog(0.0).value == 0.0


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
