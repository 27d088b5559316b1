"""Command-line surface: evaluate, tabulate, verify, truncation-study.

All data goes to stdout, diagnostics to stderr.  Output is deterministic:
identical invocations produce byte-identical output.  Numbers are printed
in shortest round-trip form (full binary64 fidelity, locale-independent).

Exit codes: 0 success; 1 verification failure; 2 usage or domain error;
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .core import DomainError
from .legendre import _NU_DERIVATIVES, _maclaurin, legendre_p
from .verify import GridSpec, report_lines, run_all

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3


#: d_k is TARGETS[k]; targets run in this order, so maclaurin reuses the row's d columns.
TARGETS = ("p", "d1", "d2", "d3", "maclaurin")
FORMATS = ("csv", "json", "pretty")


def _fmt(x: float) -> str:
    return repr(float(x))


def _cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return _fmt(v)
    return "" if v is None else str(v)


def _print_csv(header: list[str], rows: list[list[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _print_pretty(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _print_table(fmt: str, records: list[dict]) -> None:
    """Print non-empty, same-keyed records; csv and pretty use the keys of
    the first record as the header."""
    if fmt == "json":
        print(json.dumps({"records": records}, indent=2))
        return
    rows = [[_cell(v) for v in rec.values()] for rec in records]
    (_print_csv if fmt == "csv" else _print_pretty)(list(records[0]), rows)


def _parse_targets(raw: list[str] | None) -> list[str]:
    names = []
    for item in raw or ["p"]:
        names.extend(s for s in item.split(",") if s)
    if not names:
        raise DomainError(f"no target given; expected one of {', '.join(TARGETS)}")
    for name in names:
        if name not in TARGETS:
            raise DomainError(f"unknown target {name!r}; expected one of {', '.join(TARGETS)}")
    return [t for t in TARGETS if t in set(names)]


def _row_values(z: float, targets: list[str], nu: float, order: int) -> dict:
    """The tabulate record of one grid point, each d_k it reads evaluated
    once; its status reports whether the P_nu sum converged."""
    row = {"z": z, "status": "ok"}
    ds = {}  # k -> d_k at z, for maclaurin
    for t in targets:
        if t == "p":
            r = legendre_p(nu, z)
            row["status"] = "ok" if r.converged else "nonconverged"
            row[t] = r.value
        elif t == "maclaurin":
            row[t] = _maclaurin(nu, z, order, ds)[order]
        else:
            k = TARGETS.index(t)
            row[t] = ds[k] = _NU_DERIVATIVES[k](z)
    return row


def _exit_code(records: list[dict]) -> int:
    """Non-convergence fails the command only when it hits every record."""
    return EXIT_NONCONVERGED if all(r["status"] != "ok" for r in records) else EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    what = args.what
    row = _row_values(args.z, [what], args.nu, args.order)
    if row["status"] != "ok":
        print(f"error: series did not converge at nu={args.nu!r} z={args.z!r}", file=sys.stderr)
        return EXIT_NONCONVERGED

    order = args.order if what == "maclaurin" else None
    record = {"what": what, "nu": args.nu, "z": args.z, "order": order, "value": row[what]}
    if args.format == "csv":
        _print_table("csv", [record])
    elif args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        print(_fmt(row[what]))
    return EXIT_OK


def _cmd_tabulate(args: argparse.Namespace) -> int:
    targets = _parse_targets(args.what)
    grid = GridSpec(args.z_start, args.z_end, args.count, args.spacing)
    records = [_row_values(z, targets, args.nu, args.order) for z in grid.points()]
    _print_table(args.format, records)
    return _exit_code(records)


def _cmd_verify(args: argparse.Namespace) -> int:
    overrides = {}
    for item in args.tol or []:
        name, sep, raw = item.partition("=")
        if not sep or not name:
            raise DomainError(f"--tol expects IDENTITY=VALUE, got {item!r}")
        try:
            overrides[name] = float(raw)
        except ValueError:
            raise DomainError(f"bad tolerance value in {item!r}") from None
    reports = run_all(overrides)

    if args.format == "pretty":
        for line in report_lines(reports):
            print(line)
        n_pass = sum(r.passed for r in reports)
        print(f"{n_pass}/{len(reports)} identities passed")
    else:
        _print_table(args.format, [r._asdict() for r in reports])

    for r in reports:
        if not r.passed:
            print(f"identity failed: {r.identity_id} "
                  f"(max residual {r.max_residual!r} > tolerance {r.tolerance!r})",
                  file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def _cmd_truncation_study(args: argparse.Namespace) -> int:
    if args.nu_start < -0.5 or args.nu_end > 0.5:
        raise DomainError(
            f"degree grid must lie within [-0.5, 0.5], got [{args.nu_start}, {args.nu_end}]"
        )
    nu_grid = GridSpec(args.nu_start, args.nu_end, args.nu_count)
    z_grid = GridSpec(args.z_start, args.z_end, args.count, args.spacing)
    zs = z_grid.points()
    derivs = [{k: _NU_DERIVATIVES[k](z) for k in (1, 2, 3)} for z in zs]

    records = []
    for nu in nu_grid.points():
        ref = [legendre_p(nu, z) for z in zs]
        status = "ok" if all(r.converged for r in ref) else "nonconverged"
        sums = [_maclaurin(nu, z, 3, d) for z, d in zip(zs, derivs)]
        for order in range(4):
            err = max(abs(s[order] - r.value) for s, r in zip(sums, ref))
            records.append({"nu": nu, "order": order, "status": status, "max_abs_err": err})
    _print_table(args.format, records)
    return _exit_code(records)


def _add_format_flag(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--format", choices=FORMATS, default=default,
                   help=f"output format (default {default})")


def _add_z_grid_flags(p: argparse.ArgumentParser, default_count: int) -> None:
    p.add_argument("--z-start", type=float, default=-0.9, help="grid start (default -0.9)")
    p.add_argument("--z-end", type=float, default=1.0, help="grid end (default 1.0)")
    p.add_argument("--count", type=int, default=default_count,
                   help=f"number of grid points (default {default_count})")
    p.add_argument("--spacing", choices=("uniform", "chebyshev"), default="uniform",
                   help="grid spacing (default uniform)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legnu",
        description="Legendre function of real degree, its degree-derivatives at zero, "
                    "and numerical verification of the identities behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one quantity at one point")
    p.add_argument("--what", choices=TARGETS, required=True,
                   help="p, d1/d2/d3 (degree-derivatives at 0), or maclaurin")
    p.add_argument("--nu", type=float, default=0.0, help="degree (default 0)")
    p.add_argument("--z", type=float, required=True, help="argument in (-1, 1]")
    p.add_argument("--order", type=int, choices=(0, 1, 2, 3), default=3,
                   help="truncation order for maclaurin (default 3)")
    _add_format_flag(p, "pretty")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("tabulate", help="tabulate quantities over a z grid")
    p.add_argument("--what", action="append", metavar="TARGET",
                   help="column to emit (repeatable or comma-separated; default p)")
    p.add_argument("--nu", type=float, default=0.0, help="degree for p/maclaurin (default 0)")
    p.add_argument("--order", type=int, choices=(0, 1, 2, 3), default=3,
                   help="truncation order for maclaurin (default 3)")
    _add_z_grid_flags(p, 101)
    _add_format_flag(p, "csv")
    p.set_defaults(func=_cmd_tabulate)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--tol", action="append", metavar="IDENTITY=VALUE",
                   help="per-identity tolerance override (repeatable; unique prefixes ok)")
    _add_format_flag(p, "pretty")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("truncation-study",
                       help="max truncation error of the degree expansion per order")
    p.add_argument("--nu-start", type=float, default=0.05, help="degree grid start (default 0.05)")
    p.add_argument("--nu-end", type=float, default=0.2, help="degree grid end (default 0.2)")
    p.add_argument("--nu-count", type=int, default=4, help="degree grid points (default 4)")
    _add_z_grid_flags(p, 50)
    _add_format_flag(p, "csv")
    p.set_defaults(func=_cmd_truncation_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
