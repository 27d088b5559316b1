"""Tests for the real-degree Legendre evaluator, the closed-form
degree-derivatives, the degree expansion, and the finite-difference oracle."""

import math

import numpy as np
import pytest
from scipy.special import lpmv

from legnu import legendre
from legnu.core import DomainError
from legnu.legendre import (
    ORACLE_ERR_CAP,
    d2p_dnu2_0,
    d3p_dnu3_0,
    dp_dnu0,
    legendre_p,
    maclaurin_p,
    nu_derivative_oracle,
)
from legnu.polylog import dilog

# closed form ln(2)^2 - pi^2/6 for the order-2 derivative at z = 0
D2P_AT_ZERO = -1.1644810529300251


def bonnet_polynomial(n: int, z: float) -> float:
    """Independent integer-degree reference via the three-term recurrence."""
    p_prev, p = 1.0, z
    if n == 0:
        return p_prev
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * z * p - k * p_prev) / (k + 1)
    return p


@pytest.mark.parametrize("z", [-0.99, -0.5, 0.0, 0.3, 0.99, 1.0])
def test_degree_zero_is_one(z):
    r = legendre_p(0.0, z)
    assert r.value == 1.0
    assert r.converged


def test_unit_argument_is_one_for_any_degree():
    assert legendre_p(0.7, 1.0).value == 1.0
    for nu in np.linspace(-0.9, 2.0, 50):
        r = legendre_p(float(nu), 1.0)
        assert abs(r.value - 1.0) <= 1e-13


def test_degree_one_series_terminates():
    assert abs(legendre_p(1.0, 0.3).value - 0.3) <= 1e-15
    assert legendre_p(1.0, 0.25).value == 0.25


def test_integer_degrees_match_bonnet_recurrence():
    zs = np.linspace(-0.95, 1.0, 100)
    for n in range(6):
        for z in zs:
            ref = bonnet_polynomial(n, float(z))
            assert abs(legendre_p(float(n), float(z)).value - ref) <= 1e-12


def test_against_scipy_lpmv():
    for nu in (-0.9, -0.3, 0.5, 1.3, 2.5, 4.0):
        for z in np.linspace(-0.9, 1.0, 21):
            assert abs(legendre_p(nu, float(z)).value - lpmv(0, nu, float(z))) <= 1e-12


def test_domain_validation():
    with pytest.raises(DomainError):
        legendre_p(0.5, -1.0)
    with pytest.raises(DomainError):
        legendre_p(0.5, 1.0000001)
    with pytest.raises(DomainError):
        legendre_p(5.1, 0.5)
    with pytest.raises(DomainError):
        legendre_p(0.5, 0.5, tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_series_tolerance_must_be_positive_and_finite(tol):
    # nan used to sum all MAX_TERMS terms; inf returned a truncated value as converged
    with pytest.raises(DomainError, match="positive and finite"):
        legendre_p(0.3, -0.5, tol=tol)


def test_nonconvergence_is_flagged_near_minus_one():
    r = legendre_p(0.5, -0.9999)
    assert not r.converged


def test_dp_dnu0_values():
    assert dp_dnu0(1.0) == 0.0
    assert abs(dp_dnu0(0.0) + math.log(2.0)) <= 1e-15
    assert abs(dp_dnu0(-0.5) - math.log(0.25)) <= 1e-15


@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-12])
def test_dp_dnu0_relative_accuracy_near_minus_one(gap):
    mpmath = pytest.importorskip("mpmath")
    z = -1.0 + gap
    with mpmath.workdps(40):
        ref = mpmath.log((mpmath.mpf(z) + 1) / 2)
        assert abs((dp_dnu0(z) - ref) / ref) <= 1e-15


def test_dp_dnu0_matches_oracle():
    for z in np.linspace(-0.9, 1.0, 20):
        o = nu_derivative_oracle(float(z), 1)
        assert abs(o.value - dp_dnu0(float(z))) <= 1e-9


def test_d2p_boundary_is_exactly_zero():
    assert d2p_dnu2_0(1.0) == 0.0
    assert math.copysign(1.0, d2p_dnu2_0(1.0)) == 1.0  # +0.0, not -0.0


def test_d2p_at_zero():
    closed = math.log(2.0) ** 2 - math.pi**2 / 6.0
    assert abs(closed - D2P_AT_ZERO) <= 1e-15
    assert abs(d2p_dnu2_0(0.0) - D2P_AT_ZERO) <= 1e-14


def test_d2p_composition():
    assert d2p_dnu2_0(0.5) == -2.0 * dilog(0.25).value
    assert abs(d2p_dnu2_0(0.5) - nu_derivative_oracle(0.5, 2).value) <= 1e-7


def test_d2p_sign_structure():
    for z in np.linspace(-0.999, 0.999, 200):
        assert d2p_dnu2_0(float(z)) < 0.0
    assert d2p_dnu2_0(1.0) == 0.0


def test_d3p_boundary():
    assert abs(d3p_dnu3_0(1.0)) <= 1e-13


@pytest.mark.parametrize("z", [0.0, 0.5, 0.9])
def test_d3p_matches_oracle(z):
    assert abs(d3p_dnu3_0(z) - nu_derivative_oracle(z, 3).value) <= 1e-5


def test_maclaurin_trivia():
    assert maclaurin_p(0.3, 0.7, 0) == 1.0
    for order in range(4):
        assert maclaurin_p(0.0, -0.2, order) == 1.0


def test_maclaurin_order_validation():
    with pytest.raises(DomainError):
        maclaurin_p(0.1, 0.5, 4)
    with pytest.raises(DomainError):
        maclaurin_p(0.1, 0.5, -1)


@pytest.mark.parametrize("order", [3.0, True, False, "3", None, np.int64(2)])
def test_maclaurin_order_must_be_an_int(order):
    with pytest.raises(DomainError, match="int in 0..3"):
        maclaurin_p(0.3, 0.2, order)


def test_maclaurin_fourth_order_convergence():
    # halving the degree should shrink the order-3 error by roughly 2^4
    def err(nu):
        return abs(maclaurin_p(nu, 0.5, 3) - legendre_p(nu, 0.5, tol=1e-15).value)

    ratio = err(0.1) / err(0.05)
    assert 12.0 <= ratio <= 20.0


def test_oracle_boundary_and_validation():
    o = nu_derivative_oracle(1.0, 2)
    assert abs(o.value) <= 1e-8
    assert o.converged
    for order in (0, 4):
        with pytest.raises(DomainError, match=r"int in \(1, 2, 3\)"):
            nu_derivative_oracle(0.5, order)


@pytest.mark.parametrize("order", [3.0, True, "3", None, np.int64(3)])
def test_oracle_order_must_be_an_int(order):
    with pytest.raises(DomainError, match="must be an int"):
        nu_derivative_oracle(0.3, order)


@pytest.mark.parametrize("order, calls", [(1, 8), (2, 9), (3, 10)])
def test_oracle_evaluates_each_degree_once(monkeypatch, order, calls):
    degrees = []

    def counting_p(nu, z, tol=1e-14):
        degrees.append(nu)
        return legendre_p(nu, z, tol)

    monkeypatch.setattr(legendre, "legendre_p", counting_p)
    z = -0.9
    o = nu_derivative_oracle(z, order)
    assert len(degrees) == len(set(degrees)) == calls
    # the same Richardson tableau over textbook central differences that
    # evaluate every point, from a base step of 0.02
    f = lambda nu: legendre_p(nu, z, tol=1e-15).value
    stencils = {
        1: lambda h: (f(h) - f(-h)) / (2.0 * h),
        2: lambda h: (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h),
        3: lambda h: (f(2.0 * h) - 2.0 * f(h) + 2.0 * f(-h) - f(-2.0 * h)) / (2.0 * h**3),
    }
    row = []
    for i in range(4):
        prev, row = row, [stencils[order](0.02 / 2.0**i)]
        for j in range(1, i + 1):
            row.append((4.0**j * row[j - 1] - prev[j - 1]) / (4.0**j - 1.0))
    assert o.value == row[-1]


def test_oracle_first_derivative_at_zero():
    o = nu_derivative_oracle(0.0, 1)
    assert o.converged
    assert abs(o.value + math.log(2.0)) <= 1e-9


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("z", [-0.9999, -0.99999])
def test_oracle_flags_nonconverged_legendre_p(z, order):
    # P_nu hits its term cap this close to -1; the oracle's value there is
    # off (d1 = -11.646 at -0.99999 against ln((z+1)/2) = -12.206), so it
    # must not come back converged with a finite estimate
    o = nu_derivative_oracle(z, order)
    assert not o.converged
    assert o.abs_err_est == math.inf


def test_oracle_error_estimates_within_caps():
    for z in np.linspace(-0.9, 1.0, 10):
        for order in (1, 2, 3):
            o = nu_derivative_oracle(float(z), order)
            assert o.converged
            assert o.abs_err_est <= ORACLE_ERR_CAP[order]
