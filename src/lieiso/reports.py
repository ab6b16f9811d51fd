"""Assemble classification results into plain dicts, text, and CSV rows.

The JSON schema is stable (``schema_version``) and all output is a pure
function of the input, so repeated runs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

import numpy as np

from .algebra import FAMILY_I, LieAlgebra3, make_algebra_c, make_algebra_I
from .curvature import (
    first_bianchi_defect,
    metric_compatibility_defect,
    second_bianchi_defect,
    torsion_defect,
)
from .errors import InternalConsistencyError
from .isometry import CLOSURE_TOL, analyze_metrics, classify_isometry_group, killing_algebra, killing_form
from .linalg import RANK_TOL
from .metrics import TOL_CASE, InnerProduct, stratum_table
from .symmetry import CERTIFICATE_TOL, ModuliScanResult, analyze_catalog_points, index_of_symmetry

SCHEMA_VERSION = "1.0"

RESIDUAL_TOLS = {
    "torsion": 1e-12,
    "metric_compatibility": 1e-10,
    "first_bianchi": 1e-9,
    "second_bianchi": 1e-9,
    "jacobi": 1e-8,
    "killing_closure": CLOSURE_TOL,
    "symmetry_certificate": CERTIFICATE_TOL,
}


def _plain(obj: Any) -> Any:
    """Recursively convert numpy containers/scalars to JSON-ready values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def build_report(alg: LieAlgebra3, g: InnerProduct) -> dict[str, Any]:
    """Full classification report for one left-invariant metric."""
    analysis = analyze_metrics(alg, [g])[0]
    conn, curv, ric = analysis.conn, analysis.curv, analysis.ric

    descriptor = classify_isometry_group(analysis)
    ka = killing_algebra(analysis)
    form, eigenvalues = killing_form(ka)
    sym = index_of_symmetry(analysis)

    residuals = {
        "torsion": torsion_defect(conn, alg),
        "metric_compatibility": metric_compatibility_defect(conn, g),
        "first_bianchi": first_bianchi_defect(curv),
        "second_bianchi": second_bianchi_defect(analysis.nabla_r),
        "jacobi": alg.jacobi_defect(),
        "killing_closure": ka.closure_residual,
        "symmetry_certificate": sym.certificate_residual,
    }

    return _plain(
        {
            "schema_version": SCHEMA_VERSION,
            "input": {
                "family": alg.family,
                "c": alg.c,
                "metric": g.name,
                "params": dict(g.params),
                "boundary_snapped": bool(g.boundary_snapped),
                "tolerances": {
                    "tol_rank": RANK_TOL,
                    "tol_case": TOL_CASE,
                },
            },
            "curvature": {
                "ricci": ric,
                "scalar": analysis.scalar,
                "sectional_constant": descriptor.sectional_constant,
                "parallel_curvature": analysis.symmetric,
            },
            "isometry": {
                "group_tag": descriptor.group_tag.value,
                "total_dim": descriptor.total_dim,
                "isotropy_dim": descriptor.isotropy_dim,
                "isotropy_generators": list(descriptor.isotropy_generators),
                "symmetric_space": analysis.symmetric,
            },
            "killing": {
                "basis_labels": list(ka.labels),
                "structure_constants": ka.structure,
                "killing_form": form,
                "eigenvalues": eigenvalues,
                "closure_residual": ka.closure_residual,
            },
            "symmetry": {
                "index": sym.index,
                "generator": sym.generator,
                "certificate_residual": sym.certificate_residual,
            },
            "residuals": {
                name: {"value": float(value), "tol": RESIDUAL_TOLS[name]}
                for name, value in residuals.items()
            },
            "nabla_curvature_norm": float(np.max(np.abs(analysis.nabla_r))),
        }
    )


def to_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return "%.12g" % float(x)


def _fmt_vec(v) -> str:
    return " ".join(_fmt(x) for x in v)


def render_text(report: dict[str, Any]) -> str:
    """Human-readable rendering of a classification report."""
    inp = report["input"]
    cur = report["curvature"]
    iso = report["isometry"]
    kil = report["killing"]
    sym = report["symmetry"]
    lines = []
    head = f"family {inp['family']}"
    if inp["c"] is not None:
        head += f", c = {_fmt(inp['c'])}"
    params = ", ".join(f"{k} = {_fmt(v)}" for k, v in sorted(inp["params"].items()))
    lines.append(f"{head}: metric {inp['metric']}" + (f" ({params})" if params else ""))
    if inp["boundary_snapped"]:
        lines.append("  parameters snapped onto a stratum boundary")
    lines.append(f"  scalar curvature: {_fmt(cur['scalar'])}")
    if cur["sectional_constant"] is not None:
        lines.append(f"  constant sectional curvature: {_fmt(cur['sectional_constant'])}")
    lines.append("  ricci:")
    for row in cur["ricci"]:
        lines.append("    [" + _fmt_vec(row) + "]")
    lines.append(
        f"  isometry group: {iso['group_tag']}"
        f" (dim {iso['total_dim']}, isotropy dim {iso['isotropy_dim']},"
        f" symmetric={'yes' if iso['symmetric_space'] else 'no'})"
    )
    lines.append(
        f"  killing algebra: dim {len(kil['basis_labels'])}"
        f" [{', '.join(kil['basis_labels'])}],"
        f" eigenvalues [{_fmt_vec(kil['eigenvalues'])}]"
    )
    gen = "none" if sym["generator"] is None else "(" + _fmt_vec(sym["generator"]) + ")"
    if sym["index"] == 3:
        gen = "all directions"
    lines.append(f"  index of symmetry: {sym['index']}, distribution: {gen}")
    worst = max(r["value"] for r in report["residuals"].values())
    lines.append(f"  max residual: {_fmt(worst)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV table of the symmetry stratification

TABLE_COLUMNS = ["family", "c", "metric", "constraint", "index", "generator"]


def _generator_cell(index: int, generator) -> str:
    if index == 3:
        return "all"
    if index == 0 or generator is None:
        return ""
    return _fmt_vec(generator)


def stratification_rows(family: str, c: float | None) -> list[dict[str, str]]:
    """One CSV-ready row per symmetry stratum of one group.

    The index and generator are computed at every sample point of the
    stratum and must agree across it.  The sample points of all strata are
    analysed, and given their index of symmetry, as one stack.
    """
    table = stratum_table(family, c)
    alg = make_algebra_I() if family == FAMILY_I else make_algebra_c(table.c)
    samples = [stratum.sample_params() for stratum in table.strata]
    analysed = iter(analyze_catalog_points(alg, [p for params in samples for p in params]))
    rows = []
    for stratum, params in zip(table.strata, samples):
        indices = []
        generator = None
        for _ in params:
            _, _, report = next(analysed)
            indices.append(report.index)
            generator = report.generator if report.generator is not None else generator
        if len(set(indices)) != 1:
            raise InternalConsistencyError(
                f"stratum {stratum.key} mixes symmetry indices {sorted(set(indices))}"
            )
        rows.append(
            {
                "family": family,
                "c": "" if c is None else _fmt(c),
                "metric": stratum.metric_name,
                "constraint": stratum.constraint,
                "index": str(indices[0]),
                "generator": _generator_cell(indices[0], generator),
            }
        )
    return rows


def scan_point_rows(result: ModuliScanResult) -> list[dict[str, str]]:
    rows = []
    for pt in result.points:
        rows.append(
            {
                "family": result.family,
                "c": "" if result.c is None else _fmt(result.c),
                "metric": pt.metric_name,
                "constraint": pt.stratum,
                "index": str(pt.index),
                "generator": _generator_cell(pt.index, pt.generator),
                "params": ";".join(f"{k}={_fmt(v)}" for k, v in sorted(pt.params.items())),
                "group_tag": pt.group_tag,
                "singular": "yes" if pt.on_singular_locus else "no",
            }
        )
    return rows


SCAN_COLUMNS = TABLE_COLUMNS + ["params", "group_tag", "singular"]


def scan_summary(result: ModuliScanResult) -> dict[str, Any]:
    return _plain(
        {
            "family": result.family,
            "c": result.c,
            "points": len(result.points),
            "max_index": result.max_index,
            "containment_ok": result.containment_ok,
            "equality_asserted": result.equality_asserted,
            "equality_observed": result.equality_observed,
            "witnesses": [
                {"metric": pt.metric_name, "params": pt.params, "index": pt.index}
                for pt in result.witnesses
            ],
            "passed": result.passed,
        }
    )


def rows_to_csv(rows: list[dict[str, str]], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in columns})
    return buf.getvalue()
