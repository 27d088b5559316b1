"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one pass/fail line (visible with ``pytest -s`` and in
captured output on failure)."""

import io
import math
import time
from contextlib import redirect_stdout

import numpy as np

from legnu import cli
from legnu.legendre import d2p_dnu2_0, d3p_dnu3_0, legendre_p, maclaurin_p, nu_derivative_oracle
from legnu.polylog import PI2_OVER_6, dilog, dilog_integral_oracle, trilog, zeta3
from legnu.verify import (
    GridSpec,
    check_euler_reflection,
    dilog_antiderivative_residual,
    li2_ratio_antiderivative_residual,
    run_all,
)


def _record(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_criterion_01_order2_closed_form_vs_oracle():
    start = time.perf_counter()
    worst = max(
        abs(d2p_dnu2_0(float(z)) - nu_derivative_oracle(float(z), 2).value)
        for z in np.linspace(-0.9, 1.0, 20)
    )
    elapsed = time.perf_counter() - start
    _record(1, "order-2 closed form vs quadrature oracle on 20 z-points <= 1e-7, < 5 s",
            worst <= 1e-7 and elapsed < 5.0,
            f"max dev {worst:.3e}, {elapsed:.2f} s")


def test_criterion_02_order3_closed_form_vs_oracle():
    start = time.perf_counter()
    worst = max(
        abs(d3p_dnu3_0(float(z)) - nu_derivative_oracle(float(z), 3).value)
        for z in np.linspace(-0.9, 1.0, 20)
    )
    elapsed = time.perf_counter() - start
    _record(2, "order-3 closed form vs quadrature oracle on 20 z-points <= 1e-5, < 10 s",
            worst <= 1e-5 and elapsed < 10.0,
            f"max dev {worst:.3e}, {elapsed:.2f} s")


def test_criterion_03_boundary_conditions():
    d2 = d2p_dnu2_0(1.0)
    d3 = abs(d3p_dnu3_0(1.0))
    _record(3, "order-2 derivative exactly 0 at z=1; order-3 within 1e-13",
            d2 == 0.0 and d3 <= 1e-13,
            f"d2 {d2!r}, |d3| {d3:.3e}")


def test_criterion_04_euler_reflection():
    report = check_euler_reflection(GridSpec(0.001, 0.999, 200), tolerance=1e-12)
    _record(4, "reflection residual over 200 samples <= 1e-12",
            report.passed, f"max {report.max_residual:.3e}")


def test_criterion_05_first_integrals():
    # the closed forms against their first integrals in integral form, with
    # w = (1-z)/2: d2 = -2 times the integral of -ln(1-t)/t over [0, w], and
    # d3 = 6 times the integral of Li2(t)/(1-t) over [0, w] (reduced form)
    worst2 = worst3 = 0.0
    converged = True
    for z in np.linspace(-0.95, 0.95, 50):
        z = float(z)
        w = 0.5 * (1.0 - z)
        li2 = dilog_integral_oracle(w, 1e-13)
        converged = converged and li2.converged
        worst2 = max(worst2, abs(d2p_dnu2_0(z) + 2.0 * li2.value))
        worst3 = max(worst3, li2_ratio_antiderivative_residual(0.0, w, 1e-10))
    _record(5, "first integrals in integral form at 50 points <= 1e-10 (orders 2 and 3)",
            converged and worst2 <= 1e-10 and worst3 <= 1e-10,
            f"order-2 max {worst2:.3e}, order-3 max {worst3:.3e}")


def test_criterion_06_integral_identities():
    pts = GridSpec(0.05, 0.95, 11).points()
    intervals = list(zip(pts[:-1], pts[1:]))
    worst_a = max(dilog_antiderivative_residual(a, b, 1e-9) for a, b in intervals)
    worst_b = max(li2_ratio_antiderivative_residual(a, b, 1e-9) for a, b in intervals)
    worst_spot = max(li2_ratio_antiderivative_residual(a, b, 1e-8, form="log")
                     for a, b in ((0.2, 0.5), (0.3, 0.7), (0.25, 0.75)))
    _record(6, "integral identities <= 1e-9 on 10 intervals each; log-form spots <= 1e-8",
            worst_a <= 1e-9 and worst_b <= 1e-9 and worst_spot <= 1e-8,
            f"antideriv {worst_a:.3e}, ratio {worst_b:.3e}, spots {worst_spot:.3e}")


def test_criterion_07_polylog_constants():
    n = 10**6
    sum2 = math.fsum(1.0 / (k * k) for k in range(1, n + 1))
    tail2 = 1.0 / n - 1.0 / (2.0 * n * n) + 1.0 / (6.0 * n**3)
    sum3 = math.fsum(1.0 / k**3 for k in range(1, n + 1))
    tail3 = 1.0 / (2.0 * n * n) - 1.0 / (2.0 * n**3) + 1.0 / (4.0 * n**4)
    ok = (
        abs(trilog(1.0).value - zeta3()) <= 1e-13
        and abs(dilog(1.0).value - PI2_OVER_6) <= 1e-13
        and abs(sum2 + tail2 - PI2_OVER_6) <= 1e-13
        and abs(sum3 + tail3 - zeta3()) <= 1e-13
    )
    _record(7, "polylog constants vs million-term sums with tail bounds <= 1e-13", ok,
            f"zeta2 dev {abs(sum2 + tail2 - PI2_OVER_6):.3e}, "
            f"zeta3 dev {abs(sum3 + tail3 - zeta3()):.3e}")


def test_criterion_08_truncation_scaling():
    zs = np.linspace(-0.9, 1.0, 50)

    def max_err(nu, order):
        return max(
            abs(maclaurin_p(nu, float(z), order) - legendre_p(nu, float(z)).value)
            for z in zs
        )

    ratio = max_err(0.1, 3) / max_err(0.05, 3)
    errs = [max_err(0.1, k) for k in range(4)]
    strictly_decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    _record(8, "order-3 error ratio for degree halving in [12, 20]; errors decrease in order",
            12.0 <= ratio <= 20.0 and strictly_decreasing,
            f"ratio {ratio:.2f}, errors {', '.join(f'{e:.2e}' for e in errs)}")


def test_criterion_09_ode_residual_suite():
    reports = run_all()
    all_passed = all(r.passed for r in reports)
    code, _ = _run_cli(["verify"])
    _record(9, "identity suite passes at FD-limited tolerances; verify exits 0",
            all_passed and code == 0,
            f"{sum(r.passed for r in reports)}/6 passed, exit {code}")


def test_criterion_10_tabulate_determinism():
    argv = ["tabulate", "--z-start", "-0.9", "--z-end", "1", "--count", "1001",
            "--what", "p,d1,d2,d3,maclaurin", "--nu", "0.3"]
    code1, out1 = _run_cli(argv)
    code2, out2 = _run_cli(argv)
    _record(10, "two 1001-point tabulate runs are byte-identical",
            code1 == 0 and code2 == 0 and out1.encode() == out2.encode(),
            f"{len(out1.encode())} bytes each")
