"""Command-line surface: single values, window scans, verification runs.

Three subcommands:

    compute  print one quantity at one x with its unit tag
    scan     write a CSV over an x window (the data behind the two curves
             and their difference)
    verify   run the identity checks and constants table, optionally
             writing a JSON report

All numbers are printed with 12 significant digits (lowercase e, dot
decimal separator) so outputs are byte-stable across runs and platforms.
Files are written to a temp name and atomically renamed; a failing run
never leaves a partial file behind.

Exit codes: 0 success, 1 verification failure, 2 domain or input error,
3 I/O error, 4 convergence failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from typing import TYPE_CHECKING

from .closedform import VARIANTS, gauge_pair, two_color_q
from .errors import ConvergenceError, DomainError
from .rabi import PhysicalConstants, beta, load_constants

if TYPE_CHECKING:
    from .identities import VerificationReport
    from .oracle import RadialGrid

SCHEMA_VERSION = "1.0.0"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_CONVERGENCE = 4

_DIMENSIONLESS = "dimensionless"
_BETA_UNIT = "Hz(W/m^2)^-1"

# every scan row is held in memory until the atomic write, so the row
# count is bounded
MAX_SCAN_STEPS = 10**6

# scan columns beyond the fixed x,f1,f2,delta, in output order
_EXTRA_COLUMNS = ("q", "p", "beta")
_SCAN_NAMES = ("f1", "f2", "delta") + _EXTRA_COLUMNS


def _fmt(value: float) -> str:
    return f"{value:.11e}"


def _atomic_write(path: str, text: str) -> None:
    """Write text via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gw-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _resolve_constants(args: argparse.Namespace) -> PhysicalConstants:
    return load_constants(getattr(args, "constants_file", None))


def _resolve_grid(args: argparse.Namespace) -> RadialGrid:
    from .oracle import RadialGrid

    kwargs = {}
    if getattr(args, "grid_points", None) is not None:
        kwargs["n_points"] = args.grid_points
    if getattr(args, "r_max", None) is not None:
        kwargs["r_max"] = args.r_max
    return RadialGrid(**kwargs)


def cmd_compute(args: argparse.Namespace) -> int:
    k = _resolve_constants(args)
    variant = args.formula_variant
    x = args.x
    if args.quantity == "two_color_q":
        value, unit = two_color_q(x, variant), _DIMENSIONLESS
    elif args.quantity == "beta":
        value, unit = beta(x, k), _BETA_UNIT
    else:
        pair = gauge_pair(x, variant)
        value = getattr(pair, args.quantity)
        unit = _DIMENSIONLESS
    print(f"{_fmt(value)} {unit}")
    return EXIT_OK


def _parse_columns(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    names = [c.strip() for c in raw.split(",") if c.strip()]
    bad = [c for c in names if c not in _SCAN_NAMES]
    if bad:
        raise DomainError(f"unknown scan columns: {bad}; valid: {_SCAN_NAMES}")
    return tuple(c for c in _EXTRA_COLUMNS if c in names)


def cmd_scan(args: argparse.Namespace) -> int:
    if not 2 <= args.steps <= MAX_SCAN_STEPS:
        raise DomainError(f"steps must lie in [2, {MAX_SCAN_STEPS}], got {args.steps}")
    if not (0.0 < args.x_min < args.x_max < 0.375):
        raise DomainError(
            f"window must satisfy 0 < x-min < x-max < 3/8, "
            f"got [{args.x_min}, {args.x_max}]"
        )
    extras = _parse_columns(args.columns)
    k = _resolve_constants(args)
    variant = args.formula_variant

    # all rows are evaluated before the file is opened, so a domain error
    # in any row leaves no partial output
    step = (args.x_max - args.x_min) / (args.steps - 1)
    lines = ["x,f1,f2,delta" + "".join("," + c for c in extras)]
    for i in range(args.steps):
        x = args.x_min + i * step
        pair = gauge_pair(x, variant)
        row = [x, pair.f1, pair.f2, pair.delta]
        for name in extras:
            row.append(beta(x, k) if name == "beta" else getattr(pair, name))
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _report_document(report: VerificationReport, args: argparse.Namespace,
                     constants_provenance: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "constants_provenance": constants_provenance,
        "formula_variant": args.formula_variant,
        "generated_inputs": {
            "profile": args.profile,
            "grid_points": args.grid_points,
            "r_max": args.r_max,
            "constants_file": args.constants_file,
            "formula_variant": args.formula_variant,
        },
        "overall_pass": report.overall_pass,
        "checks": [
            {
                "name": c.name,
                "tolerance": c.tolerance,
                "max_residual": c.max_residual,
                "passed": c.passed,
            }
            for c in report.checks
        ],
        "constants": [
            {
                "name": c.name,
                "computed": c.computed,
                "reference": c.reference,
                "relative_error": c.relative_error,
                "provenance": c.provenance,
            }
            for c in report.constants
        ],
    }


def cmd_verify(args: argparse.Namespace) -> int:
    # numpy and scipy load here, so compute and scan run on the stdlib alone
    from .identities import build_report

    k = _resolve_constants(args)
    grid = _resolve_grid(args)
    report = build_report(profile=args.profile, grid=grid,
                          variant=args.formula_variant, constants=k)

    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: max residual {_fmt(c.max_residual)}"
              f" (tolerance {_fmt(c.tolerance)}, {len(c.x_values)} points)")
    for c in report.constants:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: computed {_fmt(c.computed)}"
              f" vs {c.provenance} {_fmt(c.reference)}"
              f" (relative error {_fmt(c.relative_error)})")
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")

    if args.out:
        doc = _report_document(report, args, k.provenance_tag)
        _atomic_write(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAIL


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--constants-file", default=None,
                        help="JSON file overriding physical constants "
                             "(falls back to GAUGE_WORKBENCH_CONSTANTS)")
    parser.add_argument("--formula-variant", default="derived",
                        choices=VARIANTS,
                        help="closed-form variant; the alternates exist as "
                             "negative controls for the verifier")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauge-workbench",
        description="Two-photon 1S-2S matrix elements in both gauges, "
                    "with a grid oracle and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print one quantity at one x")
    p_compute.add_argument("--x", type=float, required=True,
                           help="photon energy fraction, 0 < x < 3/8")
    p_compute.add_argument("--quantity", required=True,
                           choices=("q", "p", "f1", "f2", "delta", "beta",
                                    "two_color_q"))
    _add_common(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_scan = sub.add_parser("scan", help="write a CSV over an x window")
    p_scan.add_argument("--x-min", type=float, required=True)
    p_scan.add_argument("--x-max", type=float, required=True)
    p_scan.add_argument("--steps", type=int, required=True,
                        help=f"number of rows, 2 to {MAX_SCAN_STEPS}")
    p_scan.add_argument("--out", required=True, help="CSV output path")
    p_scan.add_argument("--columns", default=None,
                        help="comma-separated extras from q,p,beta "
                             "(x,f1,f2,delta are always present)")
    _add_common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--profile", default="strict",
                          choices=("strict", "oracle"),
                          help="source of the master-identity residuals")
    p_verify.add_argument("--out", default=None, help="JSON report path")
    p_verify.add_argument("--grid-points", type=int, default=None,
                          help="radial grid size override")
    p_verify.add_argument("--r-max", type=float, default=None,
                          help="radial box size override, Bohr radii")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
