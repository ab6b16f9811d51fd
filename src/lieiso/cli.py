"""Command-line interface.

Commands
--------
classify   classify one left-invariant metric (JSON or text report)
table      the symmetry stratification table (CSV or JSON)
scan       audit a group's moduli space against its singular locus
verify     self-checks: algebraic/numeric consistency and scan invariants

Exit codes: 0 success, 1 verification failure or failed internal
consistency check, 2 parameter out of range or usage error, 3 invalid Gram
matrix, 4 I/O failure.  Output depends only on the arguments (and the seed,
for ``verify``), never on time or machine.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .algebra import FAMILY_C, FAMILY_I, make_algebra_c, make_algebra_I
from .errors import (
    DegenerateFormError,
    InternalConsistencyError,
    NonPositiveDefiniteError,
    RangeError,
    UnsupportedFamilyError,
)
from .groups import (
    bracket_field_residual,
    killing_residual,
    numeric_ricci_frame,
    right_invariant_field,
)
from .isometry import analyze_metric, killing_algebra
from .metrics import inner_product_from_gram, metric_from_table
from .reports import (
    SCAN_COLUMNS,
    TABLE_COLUMNS,
    build_report,
    render_text,
    rows_to_csv,
    scan_point_rows,
    scan_summary,
    stratification_rows,
    to_json,
)
from .settings import DEFAULT, EngineSettings
from .symmetry import scan_moduli

#: Representative groups covering every stratification row.
DEFAULT_GROUPS: list[tuple[str, float | None]] = [
    (FAMILY_I, None),
    (FAMILY_C, -2.0),
    (FAMILY_C, 0.0),
    (FAMILY_C, 0.25),
    (FAMILY_C, 1.0),
    (FAMILY_C, 4.0),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieiso",
        description="Isometry groups and symmetry indices of a family of 3-dimensional solvable Lie groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, need_family: bool) -> None:
        p.add_argument("--family", choices=[FAMILY_I, FAMILY_C], required=need_family,
                       help="group family: I or c")
        p.add_argument("--c", type=float, default=None,
                       help="family-c parameter (determinant of the defining block)")
        p.add_argument("--tol-rank", type=float, default=None,
                       help=f"relative rank cutoff, 0 < x < 1 (default {DEFAULT.tol_rank})")
        p.add_argument("--tol-case", type=float, default=None,
                       help=f"stratum-boundary snap tolerance, x >= 0 (default {DEFAULT.tol_case})")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    p_classify = sub.add_parser("classify", help="classify one left-invariant metric")
    add_common(p_classify, need_family=True)
    p_classify.add_argument("--mu", type=float, default=None)
    p_classify.add_argument("--nu", type=float, default=None)
    p_classify.add_argument("--lambda", dest="lam", type=float, default=None)
    p_classify.add_argument("--gram", type=float, nargs=9, default=None, metavar="G",
                            help="inner product as 9 row-major entries of a symmetric positive matrix")
    mode = p_classify.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help="emit the JSON report (default: text)")
    mode.add_argument("--text", action="store_true", help="emit the text report")

    p_table = sub.add_parser("table", help="symmetry stratification table")
    add_common(p_table, need_family=False)
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")

    p_scan = sub.add_parser("scan", help="scan a moduli space of metrics")
    add_common(p_scan, need_family=True)
    p_scan.add_argument("--format", choices=["csv", "json"], default="json")
    p_scan.add_argument("--grid", type=int, default=None,
                        help="alias of --grid-mu: sets the mu/lambda grid, not the nu grid")
    p_scan.add_argument("--grid-mu", type=int, default=None, help="points along the mu/lambda direction")
    p_scan.add_argument("--grid-nu", type=int, default=None, help="points along the nu direction")

    p_verify = sub.add_parser("verify", help="run built-in self-checks")
    add_common(p_verify, need_family=False)
    p_verify.add_argument("--which", choices=["metrics", "symmetry"], default=None,
                          help="run only one group of checks (default: all)")
    p_verify.add_argument("--points", type=int, default=20, help="random draws per check")
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def _settings_from_args(args: argparse.Namespace) -> EngineSettings:
    settings = DEFAULT
    if args.tol_rank is not None:
        settings = replace(settings, tol_rank=args.tol_rank)
    if args.tol_case is not None:
        settings = replace(settings, tol_case=args.tol_case)
    return settings


def _algebra_from_args(args: argparse.Namespace):
    if args.family == FAMILY_I:
        return make_algebra_I()
    if args.c is None:
        raise RangeError("family c requires --c")
    return make_algebra_c(args.c)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_classify(args: argparse.Namespace, settings: EngineSettings) -> int:
    alg = _algebra_from_args(args)
    if args.gram is not None:
        if args.mu is not None or args.nu is not None or args.lam is not None:
            raise RangeError("give either --gram or catalog parameters, not both")
        g = inner_product_from_gram(np.array(args.gram, dtype=float).reshape(3, 3))
    else:
        g = metric_from_table(alg, mu=args.mu, nu=args.nu, lam=args.lam, settings=settings)
    report = build_report(alg, g, settings)
    _emit(to_json(report) if args.json else render_text(report), args.out)
    return 0


def _groups_from_args(args: argparse.Namespace) -> list[tuple[str, float | None]]:
    if args.family is None:
        return list(DEFAULT_GROUPS)
    if args.family == FAMILY_I:
        return [(FAMILY_I, None)]
    if args.c is None:
        raise RangeError("family c requires --c")
    return [(FAMILY_C, float(args.c))]


def _cmd_table(args: argparse.Namespace, settings: EngineSettings) -> int:
    rows = []
    for family, c in _groups_from_args(args):
        rows.extend(stratification_rows(family, c, settings))
    if args.format == "csv":
        _emit(rows_to_csv(rows, TABLE_COLUMNS), args.out)
    else:
        _emit(to_json(rows), args.out)
    return 0


def _cmd_scan(args: argparse.Namespace, settings: EngineSettings) -> int:
    grid_mu = args.grid_mu if args.grid_mu is not None else (args.grid if args.grid is not None else 9)
    grid_nu = args.grid_nu if args.grid_nu is not None else 3
    result = scan_moduli(args.family, args.c, grid_mu=grid_mu, grid_nu=grid_nu, settings=settings)
    if args.format == "csv":
        _emit(rows_to_csv(scan_point_rows(result), SCAN_COLUMNS), args.out)
    else:
        _emit(to_json({"summary": scan_summary(result), "points": scan_point_rows(result)}), args.out)
    return 0


def _random_cases(points: int, seed: int) -> list[tuple[str, float | None, dict[str, float]]]:
    """Deterministic sample of in-range (family, c, params) triples."""
    rng = np.random.default_rng(seed)
    cases: list[tuple[str, float | None, dict[str, float]]] = []
    for _ in range(points):
        nu = float(rng.uniform(0.3, 2.5))
        kind = int(rng.integers(0, 6))
        if kind == 0:
            cases.append((FAMILY_I, None, {"nu": nu}))
        elif kind == 1:
            c = float(rng.uniform(-4.0, -0.2))
            cases.append((FAMILY_C, c, {"mu": float(rng.uniform(0.1, 1.0)) * abs(c), "nu": nu}))
        elif kind == 2:
            cases.append((FAMILY_C, 0.0, {"mu": float(rng.uniform(0.2, 2.5)), "nu": nu}))
        elif kind == 3:
            c = float(rng.uniform(0.1, 0.9))
            cases.append((FAMILY_C, c, {"mu": float(rng.uniform(0.0, 0.9)), "nu": nu}))
        elif kind == 4:
            cases.append((FAMILY_C, 1.0, {"mu": float(rng.uniform(0.1, 1.0)), "nu": nu}))
        else:
            c = float(rng.uniform(1.2, 4.0))
            cases.append((FAMILY_C, c, {"mu": 1.0 + float(rng.uniform(0.05, 1.0)) * (c - 1.0), "nu": nu}))
    return cases


def _check_metrics(points: int, seed: int, settings: EngineSettings, out: list[str]) -> bool:
    """Cross-check the algebraic curvature/Killing data against finite differences."""
    ok = True
    cases = _random_cases(points, seed)
    rng = np.random.default_rng(seed + 1)
    for n, (family, c, params) in enumerate(cases):
        alg = make_algebra_I() if family == FAMILY_I else make_algebra_c(c)
        g = metric_from_table(alg, settings=settings, **params)
        analysis = analyze_metric(alg, g, settings)
        ric = analysis.ric
        ka = killing_algebra(analysis)
        p = rng.uniform(-0.4, 0.4, size=3)
        checks = [
            ("ricci-fd", float(np.max(np.abs(numeric_ricci_frame(alg, g, p) - ric))), 1e-3),
            ("bracket-fd", bracket_field_residual(alg, p), 1e-4),
        ]
        gen = ka.generators[int(rng.integers(0, 3))]
        field = right_invariant_field(alg, gen.v)
        checks.append(("killing-fd", killing_residual(alg, g, field, p), 1e-5))
        worst = max(v for _, v, _ in checks)
        bad = [name for name, v, tol in checks if v > tol]
        ok &= not bad
        tag = "ok  " if not bad else "FAIL"
        label = f"{family}" + ("" if c is None else f" c={c:+.3f}")
        out.append(f"{tag} metrics[{n:02d}] {label} worst={worst:.3e}" + (f" bad={bad}" if bad else ""))
    return ok


def _check_symmetry(settings: EngineSettings, out: list[str]) -> bool:
    ok = True
    for family, c in DEFAULT_GROUPS:
        result = scan_moduli(family, c, grid_mu=7, grid_nu=2, settings=settings)
        good = result.passed
        ok &= good
        tag = "ok  " if good else "FAIL"
        label = f"{family}" + ("" if c is None else f" c={c:+.3f}")
        out.append(
            f"{tag} symmetry {label} max_index={result.max_index}"
            f" witnesses={len(result.witnesses)}"
        )
    return ok


def _cmd_verify(args: argparse.Namespace, settings: EngineSettings) -> int:
    if args.points < 1:
        raise RangeError(f"--points must be at least 1, got {args.points}")
    lines: list[str] = []
    ok = True
    if args.which in (None, "metrics"):
        ok &= _check_metrics(args.points, args.seed, settings, lines)
    if args.which in (None, "symmetry"):
        ok &= _check_symmetry(settings, lines)
    lines.append("PASS" if ok else "FAIL")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        settings = _settings_from_args(args)
        if args.command == "classify":
            return _cmd_classify(args, settings)
        if args.command == "table":
            return _cmd_table(args, settings)
        if args.command == "scan":
            return _cmd_scan(args, settings)
        return _cmd_verify(args, settings)
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RangeError, UnsupportedFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonPositiveDefiniteError, DegenerateFormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
