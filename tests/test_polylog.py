"""Tests for the dilogarithm/trilogarithm evaluators and their constants.

Expected values tagged "series oracle" were produced by direct power-series
summation (math.fsum over explicit terms), an evaluation path independent
of the production argument-reduction code.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import spence

from legnu.core import DomainError, EvalResult, adaptive_quad
from legnu.polylog import (
    _LI2_INTEGRAL,
    _LI2_NEAR1,
    _LI2_ODD,
    _LI3,
    _LI3_NEAR1,
    PI2_OVER_6,
    _li2_mu,
    _li2_ratio_integral,
    _li2_t,
    _li3_mu,
    _li3_t,
    ZETA3,
    dilog,
    dilog_integral_oracle,
    trilog,
    zeta3,
)

# series oracle: math.fsum(0.5**k / k**2 for k in 1..199)
LI2_HALF = 0.5822405264650125
# series oracle: math.fsum(0.5**k / k**3 for k in 1..199)
LI3_HALF = 0.5372131936080402
# series oracle: math.fsum(0.25**k / k**2 for k in 1..199)
LI2_QUARTER = 0.2676526390827326


def _series_oracle(x: float, s: int, n: int = 400) -> float:
    return math.fsum(x**k / k**s for k in range(1, n + 1))


def test_dilog_zero_is_exact():
    r = dilog(0.0)
    assert r.value == 0.0
    assert r.abs_err_est == 0.0
    assert r.converged


def test_dilog_one_is_pi2_over_6():
    r = dilog(1.0)
    assert r.value == PI2_OVER_6
    assert abs(r.value - 1.6449340668482264) <= 1e-15


def test_dilog_half_against_series_oracle():
    assert abs(_series_oracle(0.5, 2) - LI2_HALF) <= 1e-15
    assert abs(dilog(0.5).value - LI2_HALF) <= 1e-14
    # value forced by the reflection identity at its symmetric point
    closed = math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0
    assert abs(dilog(0.5).value - closed) <= 1e-14


@pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 0.51, 0.75, 0.9, 0.99])
def test_dilog_against_scipy_spence(x):
    # spence(1 - x) computes the same function through an unrelated code path
    assert abs(dilog(x).value - spence(1.0 - x)) <= 1e-13 * spence(1.0 - x)


def test_trilog_zero_is_exact():
    r = trilog(0.0)
    assert r.value == 0.0
    assert r.converged


def test_trilog_one_is_zeta3():
    r = trilog(1.0)
    assert r.value == ZETA3
    assert abs(trilog(1.0).value - zeta3()) <= 1e-13


def test_trilog_half_against_series_oracle():
    assert abs(_series_oracle(0.5, 3) - LI3_HALF) <= 1e-15
    assert abs(trilog(0.5).value - LI3_HALF) <= 1e-14
    closed = 7.0 * ZETA3 / 8.0 - PI2_OVER_6 / 2.0 * math.log(2.0) + math.log(2.0) ** 3 / 6.0
    assert abs(trilog(0.5).value - closed) <= 1e-14


@pytest.mark.parametrize("x", np.linspace(0.01, 0.99, 25).tolist())
def test_trilog_against_series_oracle_everywhere(x):
    # 2000 terms suffice to push the x=0.99 oracle tail below 1e-16 relative
    ref = _series_oracle(x, 3, n=2000)
    assert abs(trilog(x).value - ref) <= 1e-13 * abs(ref)


def test_zeta3_constant():
    assert zeta3() == ZETA3
    assert abs(12.0 * zeta3() - 14.42468283791513) <= 1e-13


def test_zeta3_against_partial_sum_with_tail():
    n = 100_000
    partial = math.fsum(1.0 / k**3 for k in range(1, n + 1))
    tail = 1.0 / (2.0 * n * n) - 1.0 / (2.0 * n**3) + 1.0 / (4.0 * n**4)
    assert abs(partial + tail - zeta3()) <= 1e-13


@pytest.mark.parametrize("x", [-1e-12, -0.5, 1.0000000001, 2.0, float("nan")])
def test_domain_rejection(x):
    with pytest.raises(DomainError):
        dilog(x)
    with pytest.raises(DomainError):
        trilog(x)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_domain_rejection_property(x):
    if 0.0 <= x <= 1.0:
        assert dilog(x).converged
    else:
        with pytest.raises(DomainError):
            dilog(x)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-9, max_value=1.0),
)
def test_monotonicity(a, delta):
    b = min(a + max(delta, 1e-9), 1.0)
    if b - a < 1e-9:
        a = b - 1e-9
    assert dilog(a).value < dilog(b).value
    assert trilog(a).value < trilog(b).value


def test_euler_reflection_residual():
    xs = np.linspace(0.001, 0.999, 200)
    worst = max(
        abs(dilog(float(x)).value + dilog(1.0 - float(x)).value
            - PI2_OVER_6 + math.log(float(x)) * math.log1p(-float(x)))
        for x in xs
    )
    assert worst <= 1e-12


def test_error_estimates_honour_contract():
    for x in np.linspace(0.0, 1.0, 101):
        for f in (dilog, trilog):
            r = f(float(x))
            assert r.converged
            assert r.abs_err_est <= max(1e-13 * abs(r.value), 1e-15)


def test_integral_oracle_at_zero():
    # the empty interval: adaptive_quad's exact zero, with a +0.0 value
    for x in (0.0, -0.0):
        r = dilog_integral_oracle(x, 1e-12)
        assert r == (0.0, 0.0, True)
        assert math.copysign(1.0, r.value) == 1.0


def test_integral_oracle_at_the_smallest_subnormal():
    # the rule's nodes on [0, 5e-324] round to s = 0, where the integrand
    # takes its limit 1 instead of dividing by expm1(0) = 0
    r = dilog_integral_oracle(5e-324, 1e-12)
    assert r.converged and math.isfinite(r.value)


@pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999])
def test_integral_oracle_matches_series(x):
    r = dilog_integral_oracle(x, 1e-12)
    assert r.converged
    assert abs(r.value - dilog(x).value) <= 1e-11


def test_integral_oracle_domain():
    with pytest.raises(DomainError):
        dilog_integral_oracle(1.0, 1e-12)
    with pytest.raises(DomainError):
        dilog_integral_oracle(-0.1, 1e-12)
    with pytest.raises(DomainError):
        dilog_integral_oracle(0.5, 0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_quadrature_tolerance_must_be_positive_and_finite(tol):
    # inf used to be reported as converged, whatever the error
    msg = "^quadrature tolerance must be positive and finite, got "
    with pytest.raises(DomainError, match=msg):
        adaptive_quad(math.exp, 0.0, 1.0, tol)
    for x in (0.5, 0.0):  # the empty interval at x = 0 checks it too
        with pytest.raises(DomainError, match=msg):
            dilog_integral_oracle(x, tol)


def _bernoulli(n: int) -> list[Fraction]:
    """B_0 .. B_n exactly, with B_1 = -1/2."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def test_series_tables_match_exact_definitions():
    b = _bernoulli(64)
    fact = math.factorial
    n_exact = 30  # exact terms per series, far past every stored table

    def zeta_neg(m):  # zeta(-m) = -B_(m+1) / (m+1) for m >= 1
        return -b[m + 1] / (m + 1)

    li2_odd = [b[2 * k + 2] / fact(2 * k + 3) for k in range(n_exact)]
    li3 = [sum(b[k] * b[m - k] / (fact(k + 1) * fact(m - k)) for k in range(m + 1)) / (m + 1)
           for m in range(n_exact)]
    li2_integral = [c / (2 * k + 4) for k, c in enumerate(li2_odd)]
    li2_near1 = [zeta_neg(1 + 2 * j) / fact(2 * j + 3) for j in range(n_exact)]
    li3_near1 = [zeta_neg(1 + 2 * j) / fact(2 * j + 4) for j in range(n_exact)]
    for table, exact in ((_LI2_ODD, li2_odd), (_LI3, li3), (_LI2_NEAR1, li2_near1),
                         (_LI3_NEAR1, li3_near1)):
        assert table == tuple(float(c) for c in exact[:len(table)])
    assert len(_LI2_INTEGRAL) == len(_LI2_ODD)
    for c, exact in zip(_LI2_INTEGRAL, li2_integral):
        assert abs(c - exact) <= math.ulp(c)

    # The rounding allowances assume, at |t|, |mu| <= ln 2: sum |c| (ln 2)^k
    # <= 1.31 for each series in t, with the leading terms the kernels sum
    # outside their tables and k counted from the series' lowest power; at
    # most 0.005 (Li2) and 0.001 (Li3) in all for the table terms about
    # x = 1; and terms past every table summing to less than 1e-19, in t
    # relative to the lowest power.  Each case: terms outside the table as
    # (coefficient, power), the exact table, the power of its first entry
    # and its step, the stored table, the power the sizes are relative to,
    # the bound.
    ln2 = Fraction(math.log(2.0))
    cases = (
        ([(Fraction(1), 1), (Fraction(-1, 4), 2)], li2_odd, 3, 2, _LI2_ODD, 1,
         Fraction(131, 100)),
        ([], li3, 1, 1, _LI3, 1, Fraction(131, 100)),
        ([(Fraction(1, 2), 2), (Fraction(-1, 12), 3)], li2_integral, 4, 2, _LI2_INTEGRAL, 2,
         Fraction(131, 100)),
        ([], li2_near1, 3, 2, _LI2_NEAR1, 0, Fraction(5, 1000)),
        ([], li3_near1, 4, 2, _LI3_NEAR1, 0, Fraction(1, 1000)),
    )
    for head, exact, first, step, table, rel, bound in cases:
        terms = head + [(c, first + step * k) for k, c in enumerate(exact)]
        weights = [abs(c) * ln2 ** (p - rel) for c, p in terms]
        assert sum(weights) <= bound
        assert sum(weights[len(head) + len(table):]) < 1e-19


def _loop_horner(y: float, coeffs: tuple[float, ...]) -> float:
    """Sum c_k y^k over a coefficient table by Horner's rule, one term per
    pass: the reference the compiled evaluators must equal bit for bit."""
    total = 0.0
    for c in reversed(coeffs):
        total = total * y + c
    return total


# each branch as it was written over a loop Horner before being compiled whole
def _li2_t_loop(t: float) -> float:
    return t * (1.0 - t * (0.25 - t * _loop_horner(t * t, _LI2_ODD)))


def _li2_mu_loop(mu: float) -> float:
    return PI2_OVER_6 + mu * (
        1.0 - math.log(-mu) - mu * (0.25 - mu * _loop_horner(mu * mu, _LI2_NEAR1))
    )


def _li3_mu_loop(mu: float) -> float:
    return ZETA3 + mu * (PI2_OVER_6 + mu * (
        0.75 - 0.5 * math.log(-mu) - mu * (1.0 / 12.0 - mu * _loop_horner(mu * mu, _LI3_NEAR1))
    ))


def _li2_ratio_integral_loop(s: float) -> float:
    return s * s * (3.0 - s * (0.5 - 6.0 * s * _loop_horner(s * s, _LI2_INTEGRAL)))


LN2 = math.log(2.0)
# each compiled branch, keyed by its table, its loop reference, and the largest
# argument its caller passes: t = -ln(1-x) <= ln 2, and S = -ln(1-w) <= ln(4/3)
# for d3's first integral; the branches in mu = ln(x) take -mu <= ln 2, mu < 0,
# and are called here at -y
COMPILED = {
    "li2_odd": (_li2_t, _li2_t_loop, LN2),
    "li3": (_li3_t, lambda t: t * _loop_horner(t, _LI3), LN2),
    "li2_near1": (lambda y: _li2_mu(-y), lambda y: _li2_mu_loop(-y), LN2),
    "li3_near1": (lambda y: _li3_mu(-y), lambda y: _li3_mu_loop(-y), LN2),
    "li2_integral": (_li2_ratio_integral, _li2_ratio_integral_loop, math.log(4.0 / 3.0)),
}


@pytest.mark.parametrize("name", list(COMPILED))
def test_compiled_horner_equals_loop_bit_for_bit(name):
    compiled, loop, top = COMPILED[name]
    ys = [top * k / 10_000 for k in range(10_001)]
    ys += [0.0, 5e-324, math.ulp(top), math.nextafter(top, 0.0), top, math.nextafter(top, 1.0)]
    ys += [math.nextafter(y, 1.0) for y in ys[1:10_000:7]]
    if name.endswith("near1"):
        ys = [y for y in ys if y > 0.0]  # ln(-mu) needs mu < 0
    diff = [y for y in ys if compiled(y).hex() != loop(y).hex()]
    assert not diff, f"{name}: {len(diff)} of {len(ys)} differ, first at y = {diff[0]!r}"


# one point per branch: zero, the t-series, its last point, the expansion about
# 1 just above 1/2 and further in, and the stored constant at 1
BRANCH_POINTS = [0.0, 0.25, 0.5, math.nextafter(0.5, 1.0), 0.9, 1.0]


@pytest.mark.parametrize("func", [dilog, trilog])
@pytest.mark.parametrize("x", BRANCH_POINTS)
def test_kernels_return_exactly_eval_result(func, x):
    r = func(x)
    assert type(r) is EvalResult
    plain = tuple(r)
    assert r == plain and plain == r and len(r) == 3
    assert r == EvalResult(*plain)
    assert repr(r) == repr(EvalResult(*plain)) == (
        f"EvalResult(value={r.value!r}, abs_err_est={r.abs_err_est!r}, converged=True)")
    assert r._asdict() == {"value": r.value, "abs_err_est": r.abs_err_est, "converged": True}
    assert type(r.value) is float and type(r.abs_err_est) is float and r.converged is True


@pytest.mark.parametrize("func", [dilog, trilog])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_signed_zero_gives_positive_zero(func, zero):
    # -0.0 once came back as value -0.0 with a negative estimate, -0.0
    r = func(zero)
    assert r == (0.0, 0.0, True)
    assert math.copysign(1.0, r.value) == 1.0
    assert math.copysign(1.0, r.abs_err_est) == 1.0
