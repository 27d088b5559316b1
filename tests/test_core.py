"""Tests for the shared result record and the adaptive quadrature rule."""

import math
import pickle
import struct

import pytest
from hypothesis import example, given, strategies as st

from legnu import core, legendre, polylog, verify
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


def _qk21_loop(f, a, b):
    """QUADPACK's qk21 as plain loops, each sum s = 0; s += w * y from the
    first node: the reference `core._gk21` must match bit for bit."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = [f(c + h * x) for x in core._X21]
    kronrod = gauss = resasc = resabs = 0
    for w, y in zip(core._W21, fv):
        kronrod += w * y
    for w, y in zip(core._W10, fv[1::2]):
        gauss += w * y
    mean = 0.5 * kronrod
    for w, y in zip(core._W21, fv):
        resasc += w * abs(y - mean)
        resabs += w * abs(y)
    err = abs(h * (kronrod - gauss))
    resasc, resabs = abs(h) * resasc, abs(h) * resabs
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * core.EPS * resabs
    return h * kronrod, max(err, floor), floor


def _bits(values):
    """The binary64 encodings, so -0.0 differs from 0.0 and NaNs compare."""
    return [struct.pack("<d", v) for v in values]


def _at_one_node(k, special):
    """A fresh integrand that returns ``special`` at its k-th call, t elsewhere."""
    calls = iter(range(21))
    return lambda t: special if next(calls) == k else t


_GENERIC_INTEGRANDS = st.one_of(
    st.sampled_from([math.sin, math.atan, lambda t: 1.0 / (1.0 + t * t), lambda t: 0.0,
                     lambda t: -0.0, lambda t: math.copysign(0.0, t), lambda t: math.inf])
    .map(lambda f: lambda: f),
    st.builds(lambda k, special: lambda: _at_one_node(k, special), st.integers(0, 20),
              st.sampled_from([math.nan, math.inf, -math.inf, -0.0])),
)
_SUBNORMAL_ENDS = st.integers(-2**20, 2**20).map(lambda k: k * 5e-324)


@given(make=_GENERIC_INTEGRANDS, ends=st.one_of(
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),  # forward and reversed
    st.tuples(_SUBNORMAL_ENDS, _SUBNORMAL_ENDS),
))
@example(make=lambda: lambda t: -0.0, ends=(1.0, 0.0))
@example(make=lambda: math.sin, ends=(0.0, 5e-324))
@example(make=lambda: math.sin, ends=(1e-320, 0.0))
def test_rule_matches_the_loop_bit_for_bit(make, ends):
    assert _bits(core._gk21(make(), *ends)) == _bits(_qk21_loop(make(), *ends))


def _quadrature_of(module, call):
    """(integrand, a, b) of ``call``'s one call to ``module.adaptive_quad``."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "adaptive_quad",
                   lambda f, a, b, tol: seen.append((f, a, b)) or EvalResult(0.0, 0.0, True))
        call()
    return seen[0]


_LI2_QUADRATURES = st.one_of(
    st.builds(lambda x: _quadrature_of(polylog, lambda: dilog_integral_oracle(x, 1e-12)),
              st.floats(0.001, 0.999)),
    st.builds(lambda form: _quadrature_of(verify, lambda: form(0.0, 0.99, 1e-10)),
              st.sampled_from([verify.dilog_antiderivative_residual,
                               verify.li2_ratio_antiderivative_residual])),
)


@given(quadrature=st.one_of(
    st.builds(lambda z, n: _quadrature_of(legendre, lambda: nu_derivative_oracle(z, n)),
              st.floats(-0.999, 0.999), st.integers(1, 3)),
    _LI2_QUADRATURES,
), p=st.integers(0, 2**20), q=st.integers(0, 2**20))
def test_rule_matches_the_loop_on_the_package_integrands(quadrature, p, q):
    # subintervals of the integration interval, forward and reversed, whose
    # nodes keep t^2 clear of underflow, where the nu-oracle's integrand divides by 0
    f, a, b = quadrature
    lo, hi = a + (b - a) * p / 2**20, a + (b - a) * q / 2**20
    if lo != hi:
        assert _bits(core._gk21(f, lo, hi)) == _bits(_qk21_loop(f, lo, hi))


@given(quadrature=_LI2_QUADRATURES, ends=st.tuples(*[st.integers(0, 2**20)] * 2))
def test_rule_matches_the_loop_on_subnormal_widths(quadrature, ends):
    f = quadrature[0]
    a, b = (k * 5e-324 for k in ends)  # the Li2 integrands take t >= 0
    assert _bits(core._gk21(f, a, b)) == _bits(_qk21_loop(f, a, b))


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
    value, err, _ = _qk21_loop(f, a, b)
    r = adaptive_quad(f, a, b, 1e-12)
    assert len(rules) == 1
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


# value and error estimate, bit for bit as the rule gave them when it summed
# with sum() on Python 3.11; z = -0.85 at order 3 bisects once
_ORACLE_BITS = [
    (nu_derivative_oracle, (0.85, 1), "-0x1.3f5499ef54a01p-4", "0x1.58a2f7a329cc8p-47"),
    (nu_derivative_oracle, (0.85, 2), "-0x1.39291732dd68ep-3", "0x1.4db7fe736d077p-46"),
    (nu_derivative_oracle, (0.85, 3), "0x1.26e3aee4941a6p-6", "0x1.00b983081cc98p-48"),
    (nu_derivative_oracle, (0.3, 1), "-0x1.b91f28212b9ffp-2", "0x1.dd892fd04e11ep-45"),
    (nu_derivative_oracle, (0.3, 2), "-0x1.8be26d86e5652p-1", "0x1.8c3b981578083p-44"),
    (nu_derivative_oracle, (0.3, 3), "0x1.094f650129624p-1", "0x1.cfa8d0326d864p-44"),
    (nu_derivative_oracle, (0.0, 1), "-0x1.62e42fefa39f1p-1", "0x1.825f400c6fae0p-44"),
    (nu_derivative_oracle, (0.0, 2), "-0x1.2a1b6e2725672p+0", "0x1.1aa403233f717p-43"),
    (nu_derivative_oracle, (0.0, 3), "0x1.48d0ae6f191ebp+0", "0x1.21627f1591d3bp-42"),
    (nu_derivative_oracle, (-0.5, 1), "-0x1.62e42fefa39eep+0", "0x1.8cf4f6977d540p-43"),
    (nu_derivative_oracle, (-0.5, 2), "-0x1.f4f9f0b58b975p+0", "0x1.8e2274cffe913p-43"),
    (nu_derivative_oracle, (-0.5, 3), "0x1.25759a50f8d4ap+2", "0x1.074c384c3e7a9p-40"),
    (nu_derivative_oracle, (-0.85, 1), "-0x1.4b8ddfddbf087p+1", "0x1.115a662d7542bp-40"),
    (nu_derivative_oracle, (-0.85, 2), "-0x1.5dd56935f1b1cp+1", "0x1.5c239496da595p-43"),
    (nu_derivative_oracle, (-0.85, 3), "0x1.a7964c5afb8f3p+3", "0x1.4aed6ba71487ep-43"),
    (dilog_integral_oracle, (0.5, 1e-12), "0x1.2a1b6e2725670p-1", "0x1.d1cadc1d2a70fp-48"),
    (dilog_integral_oracle, (0.99, 1e-12), "0x1.96b0284914d53p+0", "0x1.3db99f7918469p-46"),
]


@pytest.mark.parametrize("oracle, args, value, err", _ORACLE_BITS,
                         ids=[f"{o.__name__}{args}" for o, args, *_ in _ORACLE_BITS])
def test_oracle_bits_are_pinned(oracle, args, value, err):
    r = oracle(*args)
    assert r.converged
    assert (r.value.hex(), r.abs_err_est.hex()) == (value, err)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13, 1e-14, 3e-15, 1e-15])
def test_flag_agrees_with_the_returned_estimate(tol):
    for x in (0.1, 0.5, 0.9, 0.99):
        r = dilog_integral_oracle(x, tol)
        assert r.converged == (r.abs_err_est <= tol), (x, r)


def test_nan_estimate_is_not_converged():
    r = adaptive_quad(lambda t: math.nan if t > 0.5 else 1.0, 0.0, 1.0, 1e-12)
    assert not r.converged and math.isnan(r.abs_err_est)

