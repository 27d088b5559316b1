"""Seeded inputs for the workloads.

Each workload repeats one cycle of distinct operations for the length of a
run.  Every generator below is a pure function of its arguments: the same
seed gives the same inputs.  Points inside a cell (one function on one
region) are a randomly shifted lattice, a stratified sample whose cost
spreads little from seed to seed, so that run-to-run differences measure
the program and not the luck of the draw.

The in-process workloads (``certify``, ``scalar_mix``) take a cycle number
as well.  The seed fixes each operation's identity: its function, region
and stratum, and its place in the cycle.  The cycle number draws the
lattice shifts, so an operation's arguments change from cycle to cycle
while staying in its stratum, and no call repeats another within a run.  A
library that memoised its results would gain nothing here.  The warm-up
uses cycle ``WARMUP``, a draw of its own.
"""

from __future__ import annotations

import zlib

import numpy as np

WARMUP = -1

EVAL_TARGETS = ("p", "d1", "d2", "d3", "maclaurin")

#: Scalar entry points of the library exercised by ``scalar_mix``.
SCALAR_FUNCS = ("legendre_p", "dp_dnu0", "d2p_dnu2_0", "d3p_dnu3_0",
                "maclaurin_p", "dilog", "trilog")

#: Points per function in ``scalar_mix``: interior, then each boundary layer.
SCALAR_INTERIOR = 192
SCALAR_EDGE = 32

#: Boundary layers of ``scalar_mix``: 1+z and 1-z are log-uniform between
#: these decades.
MINUS1_LAYER = (1e-5, 1e-1)
PLUS1_LAYER = (1e-8, 1e-1)

DEGREE_ENVELOPE = 5.0

#: Bulk commands of ``batch_tables``.
TABULATE_COUNT = 10_000
TRUNCATION_Z_COUNT = 1_000
TRUNCATION_NU_COUNT = 20
SPACINGS = ("uniform", "chebyshev")

#: ``certify``: distinct rounds in a cycle, and cross-checks per round.
CERTIFY_ROUNDS = 16
CERTIFY_ORACLE_Z = 8
CERTIFY_INTEGRAL_X = 4
#: Absolute tolerance asked of the dilogarithm integral oracle.
INTEGRAL_TOL = 1e-12


def rng_for(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, zlib.crc32(stream.encode())])


def lattice(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """n points on [lo, hi), one per equal stratum, sharing one random shift,
    in random order."""
    return stratified(rng.permutation(n), rng.random(), lo, hi)


def stratified(order, shift: float, lo: float, hi: float) -> list[float]:
    """One point in each stratum of [lo, hi) named by ``order``, all at the
    same offset ``shift`` in [0, 1) within their stratum."""
    n = len(order)
    return [float(lo + (hi - lo) * (k + shift) / n) for k in order]


def eval_commands(seed: int) -> list[tuple[str, float, float]]:
    """(target, z, nu) for single-point ``eval`` calls, one per target, in
    seeded order: the ``eval`` commands of a traced ``batch_tables``."""
    rng = rng_for(seed, "eval_cold")
    n = len(EVAL_TARGETS)
    zs = lattice(rng, n, -0.9, 1.0)
    nus = lattice(rng, n, -DEGREE_ENVELOPE, DEGREE_ENVELOPE)
    return [(str(t), z, nu) for t, z, nu in zip(rng.permutation(EVAL_TARGETS), zs, nus)]


def eval_argv(what: str, z: float, nu: float) -> list[str]:
    argv = ["eval", "--what", what, f"--z={z!r}"]
    if what in ("p", "maclaurin"):
        argv.append(f"--nu={nu!r}")
    return argv


def tabulate_commands(seed: int) -> list[list[str]]:
    """The ``tabulate`` commands of a cycle, all five targets over the full
    grid: one uniform and one Chebyshev grid, each with its own seeded
    degree."""
    rng = rng_for(seed, "tabulate")
    nus = lattice(rng, len(SPACINGS), -DEGREE_ENVELOPE, DEGREE_ENVELOPE)
    return [["tabulate", "--what", "p,d1,d2,d3,maclaurin", f"--nu={nu!r}", "--z-start=-0.9",
             "--z-end=1.0", f"--count={TABULATE_COUNT}", f"--spacing={spacing}"]
            for nu, spacing in zip(nus, SPACINGS)]


def truncation_commands(seed: int) -> list[list[str]]:
    """The ``truncation-study`` commands of a cycle, over the z x nu grid:
    one uniform and one Chebyshev z grid, each with its own seeded degree
    range."""
    rng = rng_for(seed, "truncation_study")
    out = []
    for spacing in SPACINGS:
        nu_start = float(-0.5 + 0.2 * rng.random())
        nu_end = float(0.5 - 0.2 * rng.random())
        out.append(["truncation-study", f"--nu-start={nu_start!r}", f"--nu-end={nu_end!r}",
                    f"--nu-count={TRUNCATION_NU_COUNT}", "--z-start=-0.9", "--z-end=1.0",
                    f"--count={TRUNCATION_Z_COUNT}", f"--spacing={spacing}"])
    return out


def table_commands(seed: int) -> list[list[str]]:
    """One cycle of ``batch_tables``: the tabulate, then the truncation-study
    commands."""
    return tabulate_commands(seed) + truncation_commands(seed)


def certify_rounds(seed: int, cycle: int) -> list[tuple[list[float], list[float]]]:
    """(oracle z points, integral-oracle x points) per round of one cycle."""
    strata = rng_for(seed, "certify")
    shifts = rng_for(seed, f"certify/{cycle}")
    rounds = []
    for _ in range(CERTIFY_ROUNDS):
        z_order = strata.permutation(CERTIFY_ORACLE_Z)
        x_order = strata.permutation(CERTIFY_INTEGRAL_X)
        rounds.append((stratified(z_order, shifts.random(), -0.9, 0.9),
                       stratified(x_order, shifts.random(), 0.02, 0.98)))
    return rounds


def certify_ops(seed: int, cycle: int) -> list[tuple]:
    """One cycle of ``certify`` as single calls, round by round: a round is
    ``("run_all",)``, then ``("oracle", z, k)`` for each oracle z and
    k = 1, 2, 3, then ``("integral", x)`` for each integral-oracle x."""
    ops = []
    for zs, xs in certify_rounds(seed, cycle):
        ops.append(("run_all",))
        ops += [("oracle", z, k) for z in zs for k in (1, 2, 3)]
        ops += [("integral", x) for x in xs]
    return ops


def scalar_pool(seed: int, cycle: int) -> list[tuple[str, tuple, str]]:
    """(function, args, region) for one cycle of ``scalar_mix``, shuffled.

    Per function: SCALAR_INTERIOR points with z in [-0.9, 0.9] and
    SCALAR_EDGE points in each boundary layer, stratified in log10 of the
    distance to the end.  The polylogarithms take x = (1+z)/2, so their
    layers sit at x -> 0 and x -> 1.  z and nu are stratified separately
    and paired by the seed.
    """
    strata = rng_for(seed, "scalar_mix")
    shifts = rng_for(seed, f"scalar_mix/{cycle}")
    pool = []
    for name in SCALAR_FUNCS:
        cells = (
            ("interior", SCALAR_INTERIOR, lambda u: u, (-0.9, 0.9)),
            ("minus1", SCALAR_EDGE, lambda e: -1.0 + 10.0 ** e, np.log10(MINUS1_LAYER)),
            ("plus1", SCALAR_EDGE, lambda e: 1.0 - 10.0 ** e, np.log10(PLUS1_LAYER)),
        )
        for region, n, to_z, (lo, hi) in cells:
            zs = [float(to_z(u)) for u in
                  stratified(strata.permutation(n), shifts.random(), lo, hi)]
            nus = stratified(strata.permutation(n), shifts.random(),
                             -DEGREE_ENVELOPE, DEGREE_ENVELOPE)
            for z, nu in zip(zs, nus):
                if name == "legendre_p":
                    args = (nu, z)
                elif name == "maclaurin_p":
                    args = (nu, z, 3)
                elif name in ("dilog", "trilog"):
                    args = (0.5 * (1.0 + z),)
                else:
                    args = (z,)
                pool.append((name, args, region))
    order = strata.permutation(len(pool))
    return [pool[i] for i in order]
