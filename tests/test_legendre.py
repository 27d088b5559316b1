"""Tests for the real-degree Legendre evaluator, the closed-form
degree-derivatives, the degree expansion, and the quadrature oracle."""

import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.special import lpmv

from legnu import legendre
from legnu.core import DomainError
from legnu.legendre import (
    d2p_dnu2_0,
    d3p_dnu3_0,
    dp_dnu0,
    legendre_p,
    maclaurin_p,
    nu_derivative_oracle,
)
from legnu.polylog import ZETA3, dilog, trilog
from legnu.verify import GridSpec

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


@pytest.mark.parametrize("nu, z, cap, converged", [
    # near z = 1 the terms are tiny from the first, but c_m still grows
    # through m = 4 at nu = 4.9, so no stop comes before m = 5
    (4.9, 1.0 - 2.0**-52, 4, False),
    (4.9, 1.0 - 2.0**-52, 5, True),
    # P_3's series ends with c_4 = 0, the fourth term summed: a proven stop
    (3.0, 0.3, 4, True),
])
def test_sum_stops_at_its_first_small_term_past_the_proven_index(monkeypatch, nu, z, cap,
                                                                 converged):
    monkeypatch.setattr(legendre, "MAX_TERMS", cap)
    assert legendre_p(nu, z).converged is converged


def test_nonconvergence_is_flagged_near_minus_one():
    r = legendre_p(0.5, -0.9999)
    assert not r.converged


def test_one_argument_keeps_no_coefficient_table():
    # the call sums all MAX_TERMS terms; a kept table would peak near 3 MB
    legendre_p(0.5, -0.9999)
    tracemalloc.start()
    try:
        assert not legendre_p(0.5, -0.9999).converged
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# value and error estimate for z >= 0, bit for bit as the series gives them
# with its proven stop
_P_BITS = [
    (0.5, 1.0, "0x1.0000000000000p+0", "0x1.0000000000000p-51"),
    (0.5, 0.999999999, "0x1.fffffffcc75dcp-1", "0x1.3504f335eba6dp-51"),
    (0.5, 0.9, "0x1.ec7dad97469f4p-1", "0x1.475e93b347d91p-50"),
    (0.5, 0.5, "0x1.972add69ad680p-1", "0x1.82cd7f193c362p-49"),
    (0.5, 0.3, "0x1.66e16a460abbfp-1", "0x1.670cbbd400f10p-48"),
    (0.5, 0.0, "0x1.1426062e3bb7bp-1", "0x1.b01c26a164ab2p-48"),
    (-0.37, 1.0, "0x1.0000000000000p+0", "0x1.0000000000000p-51"),
    (-0.37, 0.999999999, "0x1.000000008025fp+0", "0x1.3504f3349498fp-51"),
    (-0.37, 0.9, "0x1.0311e9341590fp+0", "0x1.37dc714132dc6p-50"),
    (-0.37, 0.5, "0x1.1172982c26db8p+0", "0x1.5515e5d003af6p-49"),
    (-0.37, 0.3, "0x1.1a53cd971a15ep+0", "0x1.391a0756910a1p-48"),
    (-0.37, 0.0, "0x1.2aee3d0264b50p+0", "0x1.32587acfa7f6ep-47"),
    (2.5, 1.0, "0x1.0000000000000p+0", "0x1.5db3d742c2655p-51"),
    (2.5, 0.999999999, "0x1.ffffffda6b460p-1", "0x1.5db3d75c6d796p-51"),
    (2.5, 0.9, "0x1.329bb63b473ffp-1", "0x1.9c47da8c471d0p-50"),
    (2.5, 0.5, "-0x1.5b56d77c57e0fp-2", "0x1.9a75cb6e12a0ep-48"),
    (2.5, 0.3, "-0x1.dac9f3e4ea7b1p-2", "0x1.65c459275f1dep-47"),
    (2.5, 0.0, "-0x1.4b60d4377ad7ap-2", "0x1.48af420916742p-46"),
    (-4.2, 1.0, "0x1.0000000000000p+0", "0x1.8000000000000p-51"),
    (-4.2, 0.999999999, "0x1.ffffffc646907p-1", "0x1.8000002b4b13cp-51"),
    (-4.2, 0.9, "0x1.ae39be218af30p-2", "0x1.edf0ec07bfb27p-50"),
    (-4.2, 0.5, "-0x1.c4b4042ae8dcap-2", "0x1.73037c9d86f43p-47"),
    (-4.2, 0.3, "-0x1.3d75dfd65dea5p-2", "0x1.3b8177674ec4ep-46"),
    (-4.2, 0.0, "0x1.055da447b0307p-3", "0x1.4b3cb89e5ec5cp-45"),
    (4.9, 1.0, "0x1.0000000000000p+0", "0x1.9e3779b97f4a8p-51"),
    (4.9, 0.999999999, "0x1.ffffff83d51eap-1", "0x1.9e377a1df36aep-51"),
    (4.9, 0.9, "-0x1.25ffc67b4d5d8p-6", "0x1.ac4d3bc82586cp-49"),
    (4.9, 0.5, "0x1.b09c72e00f0d0p-5", "0x1.606a87938ba87p-45"),
    (4.9, 0.3, "0x1.5cf81207d7e72p-2", "0x1.9d28effd669b9p-44"),
    (4.9, 0.0, "0x1.b71703b9e7098p-5", "0x1.378f6d9a21e43p-42"),
]


@pytest.mark.parametrize("nu, z, value, err", _P_BITS)
def test_series_bits_are_pinned_for_nonnegative_arguments(nu, z, value, err):
    r = legendre_p(nu, z)
    assert r.converged
    assert (r.value.hex(), r.abs_err_est.hex()) == (value, err)


@pytest.mark.parametrize("nu, zs, match", [
    (0.5, [-1.0], "argument"),
    (0.5, [0.3, -0.5, 1.0000001], "argument"),
    (0.5, [0.3, math.nan, 0.2], "argument"),
    (5.1, [0.3], "degree"),
])
def test_p_series_rejects_what_legendre_p_rejects(nu, zs, match):
    with pytest.raises(DomainError, match=match):
        for z in zs:
            legendre_p(nu, z)
    with pytest.raises(DomainError, match=match):
        legendre._p_series_du(nu, zs)


def _coefficients(nu: float, n: int) -> list[float]:
    """c_1 .. c_n of the series, by DLMF 15.2.1's ratio written out here."""
    c, out = 1.0, []
    for k in range(n):
        c *= (k - nu) * (k + nu + 1.0) / ((k + 1.0) * (k + 1.0))
        out.append(c)
    return out


@pytest.mark.parametrize("nu", [0.5, -4.2, 3.0, 0.0, 4.9, -5.0])
def test_coefficient_stream_is_the_recurrence(nu, monkeypatch):
    # the stream's float index gives the int index's coefficients bit for bit,
    # and the stream ends after MAX_TERMS of them
    got = list(itertools.islice(legendre._coefficients(nu), 5000))
    assert [c.hex() for c in got] == [c.hex() for c in _coefficients(nu, 5000)]
    monkeypatch.setattr(legendre, "MAX_TERMS", 120)
    assert len(list(legendre._coefficients(nu))) == 120


def test_p_series_du_draws_each_coefficient_once(monkeypatch):
    # over the default ode_base grid the sums draw from the stream no more
    # coefficients than the longest of them needs alone
    stream, drawn = legendre._coefficients, [0]

    def counted(nu):
        for c in stream(nu):
            drawn[0] += 1
            yield c

    monkeypatch.setattr(legendre, "_coefficients", counted)
    points = GridSpec(-0.9, 0.9, 101).points()
    legendre._p_series_du(0.5, points)
    together, longest = drawn[0], 0
    for z in points:
        drawn[0] = 0
        legendre._p_series_du(0.5, [z])
        longest = max(longest, drawn[0])
    assert together == longest == 639


@pytest.mark.parametrize("zs", [[-0.9, 0.0, 0.9, 1.0], [1.0, 0.3, -0.9, 0.3], [0.5, -0.5]])
@pytest.mark.parametrize("nu", [0.5, -4.2, 4.9, 1.0])
def test_p_series_du_is_per_argument(nu, zs):
    # the three sums read the coefficients earlier arguments drew, bit for bit
    # the sums of one argument alone; at z = 1 they are c_0, c_1 and 2 c_2
    got = legendre._p_series_du(nu, zs)
    assert got == [legendre._p_series_du(nu, [z])[0] for z in zs]
    c1, c2 = _coefficients(nu, 2)
    assert legendre._p_series_du(nu, [1.0]) == [(1.0, c1, 2.0 * c2, 1.0, abs(c1), abs(2.0 * c2))]


def test_p_series_du_cut_short_gives_nans(monkeypatch):
    # the float above -1 has u = 1.0, where no sum stops
    monkeypatch.setattr(legendre, "MAX_TERMS", 300)
    for nu, z in ((0.5, -0.9999999999999999), (0.5, -0.999), (0.0, -0.9999999999999999)):
        assert all(math.isnan(x) for x in legendre._p_series_du(nu, [z])[0])


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
        assert abs(o.value - dp_dnu0(float(z))) <= 1e-13


def test_d2p_boundary_is_exactly_zero():
    assert d2p_dnu2_0(1.0) == 0.0
    assert math.copysign(1.0, d2p_dnu2_0(1.0)) == 1.0  # +0.0, not -0.0


def test_d2p_at_zero():
    closed = math.log(2.0) ** 2 - math.pi**2 / 6.0
    assert abs(closed - D2P_AT_ZERO) <= 1e-15
    assert abs(d2p_dnu2_0(0.0) - D2P_AT_ZERO) <= 1e-14


def test_d2p_composition():
    assert d2p_dnu2_0(0.5) == -2.0 * dilog(0.25).value
    assert abs(d2p_dnu2_0(0.5) - nu_derivative_oracle(0.5, 2).value) <= 1e-13


def test_d2p_sign_structure():
    for z in np.linspace(-0.999, 0.999, 200):
        assert d2p_dnu2_0(float(z)) < 0.0
    assert d2p_dnu2_0(1.0) == 0.0


def test_d3p_boundary():
    assert abs(d3p_dnu3_0(1.0)) <= 1e-13


@pytest.mark.parametrize("z", [0.0, 0.5, 0.9])
def test_d3p_matches_oracle(z):
    assert abs(d3p_dnu3_0(z) - nu_derivative_oracle(z, 3).value) <= 1e-13


def test_d3p_up_to_one_half_is_the_trilog_closed_form_bit_for_bit():
    # d3 takes Li3 from trilog's branch series in its own ln v, not from a
    # trilog call; the values must stay those of the trilog expression
    zs = [-1.0 + k / 4000 for k in range(1, 6001)]
    zs += [0.0, -0.0, 0.5, math.nextafter(0.5, 0.0), -1.0 + 1e-12, math.nextafter(-0.5, 0.0)]
    for z in zs:
        v = 0.5 * (z + 1.0)
        lv = math.log(v)
        closed = (12.0 * trilog(v).value - 6.0 * lv * dilog(v).value
                  - math.pi * math.pi * lv - 12.0 * ZETA3) + 0.0
        assert repr(d3p_dnu3_0(z)) == repr(closed), z


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
        return abs(maclaurin_p(nu, 0.5, 3) - legendre_p(nu, 0.5).value)

    ratio = err(0.1) / err(0.05)
    assert 12.0 <= ratio <= 20.0


def _bits(xs):
    return [struct.pack("<d", x) for x in xs]


@given(st.floats(-5.0, 5.0), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      max_size=3))
@example(0.37, [-0.6, -0.5, -0.4])
@example(-5.0, [1e308, -1e308, 1e308])
def test_degree_sums_round_as_written(nu, ds):
    # the partial sums that tabulate's maclaurin column and truncation-study
    # print are these expressions bit for bit, however many d_k are given
    hand = [1.0, 1.0 + nu * ds[0]] if ds else [1.0]
    if len(ds) > 1:
        hand.append(hand[1] + nu * nu / 2.0 * ds[1])
    if len(ds) > 2:
        hand.append(hand[2] + nu**3 / 6.0 * ds[2])
    sums = legendre._maclaurin(nu, 0.5, len(ds), dict(enumerate(ds, 1)))
    assert _bits(sums) == _bits(hand)


def test_closed_forms_within_the_mehler_dirichlet_bound():
    # |cos| <= 1 under a positive kernel in the differentiated Mehler-Dirichlet
    # integral gives |d_n(cos theta)| <= theta^n P_(-1/2)(cos theta)
    d = (None, dp_dnu0, d2p_dnu2_0, d3p_dnu3_0)
    for z in np.linspace(-0.999, 1.0, 201):
        z = float(z)
        theta, p = math.acos(z), legendre_p(-0.5, z)
        assert p.converged
        for n in (1, 2, 3):
            assert abs(d[n](z)) <= theta**n * p.value, (z, n)
    # theta^n alone is no bound for odd n
    assert abs(d3p_dnu3_0(-0.99)) > math.acos(-0.99) ** 3


def test_oracle_boundary_and_validation():
    # z = 1 is the empty interval: adaptive_quad's exact zero, scaled
    for order in (1, 2, 3):
        assert nu_derivative_oracle(1.0, order) == (0.0, 0.0, True)
    for order in (0, 4):
        with pytest.raises(DomainError, match=r"^oracle derivative order must be an int in "
                                              rf"\(1, 2, 3\), got {order}$"):
            nu_derivative_oracle(0.5, order)


@pytest.mark.parametrize("order", [3.0, True, "3", None, np.int64(3)])
def test_oracle_order_must_be_an_int(order):
    with pytest.raises(DomainError, match="must be an int"):
        nu_derivative_oracle(0.3, order)


def test_oracle_is_independent_of_the_series_and_closed_forms(monkeypatch):
    expected = [nu_derivative_oracle(z, order) for z in (-0.9, 0.3) for order in (1, 2, 3)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not call this")

    for name in ("legendre_p", "_coefficients", "_p_series_du", "dp_dnu0", "d2p_dnu2_0", "d3p_dnu3_0",
                 "dilog", "_li3_t", "_li3_mu"):
        monkeypatch.setattr(legendre, name, forbidden)
    assert [nu_derivative_oracle(z, order) for z in (-0.9, 0.3) for order in (1, 2, 3)] \
        == expected


def test_oracle_first_derivative_at_zero():
    o = nu_derivative_oracle(0.0, 1)
    assert o.converged
    assert abs(o.value + math.log(2.0)) <= 1e-9


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("z", [-0.9999, -0.99999])
def test_oracle_converges_near_minus_one(z, order):
    # below 1 + z of about 4e-4 the P_nu series hits its term cap; the
    # integral does not depend on it
    o = nu_derivative_oracle(z, order)
    d = (dp_dnu0, d2p_dnu2_0, d3p_dnu3_0)[order - 1](z)
    assert o.converged
    assert abs(o.value - d) <= 1e-13 * max(1.0, abs(d))


def test_oracle_rule_applications(rules):
    # one 21-point rule mostly reaches the tolerance on this smooth
    # integrand: 571 rules for these 543 calls (G7-K15 needed 2,235)
    for i in range(181):
        for order in (1, 2, 3):
            assert nu_derivative_oracle(-0.9 + 0.01 * i, order).converged
    assert len(rules) <= 600


def _oracle_estimate_bound(z: float, order: int) -> float:
    """sqrt(2)/pi times the tolerance the oracle asks of its quadrature."""
    return math.sqrt(2.0) / math.pi * 1e-12 * max(1.0, math.acos(z) ** order)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_oracle_passes_on_a_nonconverged_quadrature(monkeypatch, order):
    quad = legendre.adaptive_quad
    monkeypatch.setattr(legendre, "adaptive_quad",
                        lambda *args: quad(*args)._replace(converged=False))
    o = nu_derivative_oracle(-0.5, order)
    assert not o.converged  # the flag alone carries it
    assert o.abs_err_est <= _oracle_estimate_bound(-0.5, order)


ORACLE_Z_GRID = ([float(z) for z in np.linspace(-0.99, 1.0, 40)]
                 + [1.0 - 10.0**-k for k in range(1, 13)]
                 + [-1.0 + 10.0**-k for k in range(1, 13)])


def test_oracle_error_estimates_within_the_quadrature_tolerance():
    # converged is the quadrature's flag, so a converged estimate is within
    # the tolerance asked of it; no cap per order stands in for that rule
    for z in ORACLE_Z_GRID:
        for order in (1, 2, 3):
            o = nu_derivative_oracle(z, order)
            assert o.converged
            assert o.abs_err_est <= _oracle_estimate_bound(z, order), (z, order)
