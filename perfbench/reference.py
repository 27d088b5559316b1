"""Independent references from mpmath, and the contracts outputs must meet.

References are evaluated at 50 significant digits from the exact binary64
inputs, always outside timed regions: P_nu through ``mpmath.legenp``, Li2
and Li3 through ``mpmath.polylog``, and the degree-derivatives and the
Maclaurin approximant from those by their defining formulas.

Contracts (a miss is a failed operation):

* ``dilog`` / ``trilog``: relative error <= 1e-13, absolute 1e-15 near zero
  (the accuracy the README and ``legnu.polylog`` state for the kernels).
* ``dp_dnu0`` / ``d2p_dnu2_0`` / ``d3p_dnu3_0``: relative error <= 1e-13.
  Each is one to three kernel calls, so the kernels' figure is the one the
  library states for them; ROADMAP item 2 lists the points that miss it.
* ``maclaurin_p``: error <= 1e-13 times the sum of the absolute values of
  its terms, the same figure applied term by term.
* ``legendre_p``: converged, and error <= its own ``abs_err_est`` plus its
  1e-14 relative truncation tolerance.
* ``nu_derivative_oracle``: converged, and within the per-order accuracy
  cap the library states (``ORACLE_ERR_CAP``: 1e-8, 1e-7, 1e-5) of both the
  closed form and the reference.
* ``dilog_integral_oracle``: converged, and within the requested absolute
  tolerance of both ``dilog`` and the reference.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 50

REL = 1e-13
ABS_NEAR_ZERO = 1e-15
P_REL_TRUNCATION = 1e-14
ORACLE_ERR_CAP = {1: 1e-8, 2: 1e-7, 3: 1e-5}

#: Exit code of the CLI for numerical non-convergence, pinned in its docs.
EXIT_NONCONVERGED = 3

#: CLI target name -> library function name.
TARGET_FUNCS = {"p": "legendre_p", "d1": "dp_dnu0", "d2": "d2p_dnu2_0",
                "d3": "d3p_dnu3_0", "maclaurin": "maclaurin_p"}

#: Known edge defects (ROADMAP items 2 and 3): a contract miss of a
#: function inside a layer listed for it is counted as a failure of that
#: class.  ``maclaurin_p`` inherits the d1 and d3 defects through its
#: terms.  Any other miss is unexpected and makes the run incorrect.  The
#: d3 cancellation grows smoothly towards z = 1: on a dense grid its
#: relative error first passes 1e-13 near z = 0.73, a quarter of points miss on
#: [0.8, 0.85) and nearly all above 0.95, so its layer starts at z = 0.7.
NEAR_MINUS1 = lambda z: 1.0 + z < 1e-2  # noqa: E731
NEAR_PLUS1 = lambda z: 1.0 - z < 0.3  # noqa: E731
KNOWN_DEFECTS = (
    ("legendre_p", "p_nonconvergence_near_minus1", NEAR_MINUS1),
    ("dp_dnu0", "d1_log1p_near_minus1", NEAR_MINUS1),
    ("maclaurin_p", "d1_log1p_near_minus1", NEAR_MINUS1),
    ("d3p_dnu3_0", "d3_cancellation_near_plus1", NEAR_PLUS1),
    ("maclaurin_p", "d3_cancellation_near_plus1", NEAR_PLUS1),
)


def defect_class(func: str, z: float) -> str:
    """Name of the known defect a miss of ``func`` at ``z`` belongs to."""
    for name, defect, inside in KNOWN_DEFECTS:
        if name == func and inside(z):
            return defect
    return f"unexpected:{func}"


class Reference:
    """Cached high-precision values at exact binary64 points."""

    def __init__(self):
        self._cache: dict = {}

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def p(self, nu: float, z: float):
        return self._get(("p", nu, z), lambda: mp.legenp(mp.mpf(nu), 0, mp.mpf(z), type=2))

    def li(self, s: int, x: float):
        return self._get(("li", s, x), lambda: mp.polylog(s, mp.mpf(x)))

    def deriv(self, z: float, k: int):
        """k-th degree-derivative of P_nu(z) at degree 0 (k = 1, 2, 3), from
        its defining formula."""
        def compute():
            zm = mp.mpf(z)
            v = (zm + 1) / 2
            if k == 1:
                return mp.log(v)
            if k == 2:
                return -2 * mp.polylog(2, (1 - zm) / 2)
            lv = mp.log(v)
            return 12 * mp.polylog(3, v) - 6 * lv * mp.polylog(2, v) - mp.pi ** 2 * lv \
                - 12 * mp.zeta(3)
        return self._get(("d", k, z), compute)

    def maclaurin(self, nu: float, z: float, order: int):
        """(value, sum of |terms|) of the degree expansion."""
        terms = [mp.mpf(1)] + [mp.mpf(nu) ** k / math.factorial(k) * self.deriv(z, k)
                               for k in range(1, order + 1)]
        return mp.fsum(terms), mp.fsum(abs(t) for t in terms)

    def value(self, func: str, args: tuple):
        if func == "legendre_p":
            return self.p(*args)
        if func == "dilog":
            return self.li(2, args[0])
        if func == "trilog":
            return self.li(3, args[0])
        if func == "maclaurin_p":
            return self.maclaurin(*args)[0]
        return self.deriv(args[0], ("dp_dnu0", "d2p_dnu2_0", "d3p_dnu3_0").index(func) + 1)


def rel_err(got: float, ref) -> float:
    err = abs(mp.mpf(got) - ref)
    return float(err / abs(ref)) if ref != 0 else float(err)


def miss(ref: Reference, func: str, args: tuple, value: float, converged: bool = True,
         abs_err_est: float = 0.0) -> str | None:
    """Why ``value`` breaks the contract of ``func`` at ``args``, or None."""
    if not converged:
        return "nonconverged"
    if not math.isfinite(value):
        return "non-finite value"
    exact = ref.value(func, args)
    err = abs(mp.mpf(value) - exact)
    if func == "legendre_p":
        bound = abs_err_est + P_REL_TRUNCATION * abs(exact)
    elif func in ("dilog", "trilog"):
        bound = max(REL * abs(exact), ABS_NEAR_ZERO)
    elif func == "maclaurin_p":
        bound = REL * ref.maclaurin(*args)[1]
    else:
        bound = REL * abs(exact)
    if err <= bound:
        return None
    return f"error {float(err):.3g} > bound {float(bound):.3g} (rel {rel_err(value, exact):.3g})"
