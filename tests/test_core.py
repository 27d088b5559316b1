"""Tests for the shared result record and the adaptive quadrature rule."""

import math
import pickle

import pytest

from legnu import core, verify
from legnu.core import EvalResult, adaptive_quad
from legnu.legendre import nu_derivative_oracle
from legnu.polylog import dilog, dilog_integral_oracle
from legnu.verify import GridSpec


def test_fields_cannot_be_assigned():
    r = EvalResult(1.0, 2e-16, True)
    for name in ("value", "abs_err_est", "converged"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0.0)
    with pytest.raises(AttributeError):
        r.extra = 1  # no instance dict


def test_repr_names_every_field():
    assert repr(EvalResult(0.5, 1e-16, False)) == (
        "EvalResult(value=0.5, abs_err_est=1e-16, converged=False)"
    )


def test_equal_results_compare_and_hash_equal():
    a, b = dilog(0.7), dilog(0.7)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != dilog(0.3)
    assert EvalResult(value=1.0, abs_err_est=0.0, converged=True) == EvalResult(1.0, 0.0, True)


def test_asdict_returns_the_fields_in_order():
    d = EvalResult(0.25, 1e-17, True)._asdict()
    assert list(d.items()) == [("value", 0.25), ("abs_err_est", 1e-17), ("converged", True)]


def test_pickle_round_trip():
    r = dilog(0.9)
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is EvalResult
    assert back == r


# ---------------------------------------------------------------------------
# adaptive_quad: the G10-K21 tables, the error bound, and non-convergence


@pytest.mark.parametrize("weights, nodes, degree", [
    (core._W21, core._X21, 31),
    (core._W10, core._X21[1::2], 19),
], ids=["kronrod21", "gauss10"])
def test_rule_integrates_polynomials_exactly(weights, nodes, degree):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for k in range(degree + 1):
            got = mp.fsum(mp.mpf(w) * mp.mpf(x) ** k for w, x in zip(weights, nodes))
            exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
            assert abs(got - exact) <= 1e-15, f"t^{k}: error {float(got - exact):.3g}"


def _suite_quadratures():
    """(integrand, its mpmath form, a, b, tol) of every quadrature the two
    integral checks of the default suite run; tol is 1 % of the identity's."""
    li2 = (lambda t: dilog(t).value, lambda mp, t: mp.polylog(2, t))
    ratio = (lambda t: dilog(t).value / (1.0 - t), lambda mp, t: mp.polylog(2, t) / (1 - t))

    def intervals(grid):
        pts = grid.points()
        return zip(pts[:-1], pts[1:])

    return ([(*li2, a, b, 1e-12) for a, b in intervals(GridSpec(0.0, 0.99, 11))]
            + [(*ratio, a, b, 1e-11) for a, b in intervals(GridSpec(0.05, 0.95, 11))]
            + [(*ratio, a, b, 1e-10) for a, b in verify._LOG_FORM_SPOT_INTERVALS])


def _assert_estimate_bounds_error(result, exact):
    assert result.converged
    err = abs(result.value - exact)
    assert err <= result.abs_err_est, f"error {err:.3g} > estimate {result.abs_err_est:.3g}"


def test_estimate_bounds_error_on_the_suite_intervals():
    mp = pytest.importorskip("mpmath")
    cases = _suite_quadratures()
    assert len(cases) == 23
    for f, f_mp, a, b, tol in cases:
        with mp.workdps(20):
            exact = mp.quad(lambda t: f_mp(mp, t), [a, b])
        _assert_estimate_bounds_error(adaptive_quad(f, a, b, tol), exact)


@pytest.mark.parametrize("x", [0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.995, 0.999])
def test_estimate_bounds_error_of_the_integral_oracle(x):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        exact = mp.polylog(2, x)
    _assert_estimate_bounds_error(dilog_integral_oracle(x, 1e-12), exact)


@pytest.mark.parametrize("f, exact", [
    (math.exp, lambda mp: mp.e - 1),
    (math.sqrt, lambda mp: mp.mpf(2) / 3),  # unbounded derivative at 0
], ids=["exp", "sqrt"])
def test_estimate_bounds_error_on_the_unit_interval(f, exact):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = exact(mp)
    _assert_estimate_bounds_error(adaptive_quad(f, 0.0, 1.0, 1e-12), ref)


def test_reversed_interval_changes_the_sign():
    forward = adaptive_quad(math.exp, 0.0, 1.0, 1e-12)
    backward = adaptive_quad(math.exp, 1.0, 0.0, 1e-12)
    assert backward.converged and backward.abs_err_est == pytest.approx(forward.abs_err_est)
    assert abs(backward.value + forward.value) <= 4 * math.ulp(forward.value)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (-0.5, 0.25), (0.25, -0.5)])
@pytest.mark.parametrize("f", [math.exp, math.sin, lambda t: 1.0 / (1.0 + t * t)],
                         ids=["exp", "sin", "rational"])
def test_one_rule_returns_what_the_loop_would(f, a, b, rules):
    value, err, _ = core._gk21(f, a, b)
    r = adaptive_quad(f, a, b, 1e-12)
    assert len(rules) == 2  # the rule above and the call's one rule
    assert type(r) is EvalResult
    assert r == (math.fsum([value]), math.fsum([err]), True)


def test_reversed_zero_integral_is_plus_zero():
    r = adaptive_quad(lambda t: 0.0, 1.0, 0.0, 1e-12)
    assert r == (0.0, 0.0, True) and math.copysign(1.0, r.value) == 1.0


def test_empty_interval_is_exactly_zero():
    assert adaptive_quad(math.exp, 0.5, 0.5, 1e-12) == EvalResult(0.0, 0.0, True)


def test_subinterval_cap_is_reported_not_raised():
    calls = []

    def f(t):
        calls.append(t)
        return math.sin(1e5 * t)  # about 16,000 periods, far above the rounding floor

    r = adaptive_quad(f, 0.0, 1.0, 1e-12)
    assert not r.converged
    # one rule on [0, 1], then two per bisection until the cap
    assert len(calls) == len(core._X21) * (2 * core.QUAD_SUBINTERVAL_CAP - 1)
    assert abs(r.value - (1.0 - math.cos(1e5)) / 1e5) <= r.abs_err_est


@pytest.mark.parametrize("quad, exact", [
    (lambda: adaptive_quad(math.sin, 0.0, 1.0, 1e-300), 1.0 - math.cos(1.0)),
    (lambda: dilog_integral_oracle(0.5, 1e-16), math.pi**2 / 12 - math.log(2.0) ** 2 / 2),
], ids=["sin", "oracle"])
def test_tolerance_below_the_rounding_floor_stops_early(quad, exact, rules):
    r = quad()
    assert not r.converged
    # halving stops once every estimate is at its 50 EPS resabs floor
    assert len(rules) < 200
    assert abs(r.value - exact) <= r.abs_err_est


@pytest.mark.parametrize("x", [0.5, 0.9, 0.98, 0.99, 0.999])
def test_integral_oracle_takes_one_rule(x, rules):
    assert dilog_integral_oracle(x, 1e-12).converged
    assert len(rules) == 1


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("z", [0.85, 0.3, 0.0, -0.5])
def test_nu_oracle_takes_one_rule(z, order, rules):
    assert nu_derivative_oracle(z, order).converged
    assert len(rules) == 1


def test_nu_oracle_bisects_where_one_rule_falls_short(rules):
    r = nu_derivative_oracle(-0.85, 3)
    assert r.converged and type(r) is EvalResult
    assert len(rules) == 3  # one rule, then one bisection


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13, 1e-14, 3e-15, 1e-15])
def test_flag_agrees_with_the_returned_estimate(tol):
    for x in (0.1, 0.5, 0.9, 0.99):
        r = dilog_integral_oracle(x, tol)
        assert r.converged == (r.abs_err_est <= tol), (x, r)


def test_nan_estimate_is_not_converged():
    r = adaptive_quad(lambda t: math.nan if t > 0.5 else 1.0, 0.0, 1.0, 1e-12)
    assert not r.converged and math.isnan(r.abs_err_est)

