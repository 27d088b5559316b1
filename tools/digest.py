"""Print one sha256 digest per function over a fixed, seeded sweep of legnu.

Two trees whose digests agree give the same bits on every swept input, so a
change meant to keep every output can be checked against its parent:

    python3 tools/digest.py                      # the tree holding this script
    python3 tools/digest.py --tree ../parent     # another checkout

Each digest hashes the float.hex of every output field (an `EvalResult`'s
value, error estimate and flag; every field of an `IdentityReport`), so the
digests depend on the platform's libm and are comparable only on one host.
The sweep takes about a second; a few of its points reach the P_nu term cap.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 20131


def _encode(x) -> str:
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):  # EvalResult and IdentityReport by their type name
        return type(x).__name__ + "(" + ",".join(_encode(v) for v in x) + ")"
    return repr(x)


def _sweep():
    """(name, outputs) for each swept function, in a fixed order."""
    from legnu import (d2p_dnu2_0, d3p_dnu3_0, dilog, dp_dnu0, legendre_p, maclaurin_p,
                       run_all, trilog)
    from legnu.legendre import _p_series_du
    from legnu.verify import GridSpec

    rng = random.Random(SEED)
    degrees = [0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -4.0, 2.5, -4.2, 4.9, 5.0, -5.0]
    degrees += [rng.uniform(-5.0, 5.0) for _ in range(18)]
    points = [1.0, 1.0 - 2.0**-52, 1.0 - 1e-9, 0.9, 0.5, 0.3, 0.0, -0.5, -0.9, -0.99, -0.999]
    points += [rng.uniform(-0.99, 1.0) for _ in range(30)]
    edges = [1.0 - 10.0**-k for k in range(1, 16)] + [-1.0 + 10.0**-k for k in range(1, 13)]
    edges += [rng.uniform(-1.0, 1.0) for _ in range(100)]
    units = [0.0, 0.25, 0.5, 0.75, 1.0, 1e-300, 1.0 - 2.0**-53]
    units += [rng.random() for _ in range(200)]
    grids = [GridSpec(-0.9, 0.9, 101), GridSpec(-0.9, 0.9, 101, "chebyshev"),
             GridSpec(-0.5, 0.5, 2)]
    capped = [(0.5, -0.9999), (-2.7, -0.99999), (4.9, -0.9999)]  # at the term cap

    yield "legendre_p", [legendre_p(nu, z) for nu in degrees for z in points] \
        + [legendre_p(nu, z) for nu, z in capped]
    yield "_p_series_du", [_p_series_du(nu, g.points()) for nu in degrees for g in grids] \
        + [_p_series_du(0.5, [-0.9999, 0.3])]
    yield "dp_dnu0", [dp_dnu0(z) for z in edges]
    yield "d2p_dnu2_0", [d2p_dnu2_0(z) for z in edges]
    yield "d3p_dnu3_0", [d3p_dnu3_0(z) for z in edges]
    yield "maclaurin_p", [maclaurin_p(nu, z, order) for nu in degrees[:12] for z in edges[::4]
                          for order in range(4)]
    yield "dilog", [dilog(x) for x in units]
    yield "trilog", [trilog(x) for x in units]
    yield "run_all", run_all()


def digests() -> list[tuple[str, str]]:
    """(name, sha256 hex digest) for each swept function."""
    out = []
    for name, values in _sweep():
        h = hashlib.sha256()
        for v in values:
            h.update(_encode(v).encode() + b"\n")
        out.append((name, h.hexdigest()))
    return out


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="checkout whose src/legnu is swept (default: this script's)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    for name, digest in digests():
        print(f"{name} {digest}")


if __name__ == "__main__":
    main()
