"""Index and distribution of symmetry; stratified scans of the moduli spaces.

The index of symmetry at the identity is the dimension of the space of
Killing fields with vanishing covariant derivative there: pairs (v, alpha)
with B_v + sum_j alpha_j A_j = 0, where B_v = L(v) is the derivative of
the right-invariant field of value v and the A_j span the isotropy algebra.  In
this family of groups the index is always 0, 1 or 3; the value 2 is
structurally impossible and is treated as an internal error.

The index is decided once per stack of analyses: one einsum gives the
so(3) coordinates C of every metric with isotropy below so(g), and one
batched SVD their kernels.  ``index_of_symmetry(a)`` is the stack of one of
that code, and ``analyze_catalog_points`` runs it for the points of a scan
or a table.  A report of a stack equals bit for bit the report of its
metric alone, and a failed check is raised at its own point.

The moduli space of left-invariant metrics up to isometric automorphism is,
for each group, a low-dimensional parameter space (see ``metrics``).  Its
strata, boundary lines and topologically singular locus are given by
``metrics.stratum_table``.

The scan verifies that every singular point carries the maximal index of
symmetry within its family (computed empirically from the scan itself), and
records where the maximal-index set is strictly larger than the singular
locus, which happens exactly for family I and for 0 < c < 1 (the interior
line mu = sqrt(c) is maximally symmetric but not a singular point).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .algebra import FAMILY_C, FAMILY_I, LieAlgebra3, make_algebra_c, make_algebra_I
from .errors import InternalConsistencyError, LieIsoError, RangeError, UnsupportedFamilyError
from .isometry import MetricAnalysis, analyze_metrics, classify_isometry_group
from .linalg import PIVOT_TOL, RANK_TOL
from .metrics import METRIC_LAMBDA_NU, METRIC_MU_NU, METRIC_NU, SO3_BASIS, InnerProduct, metric_from_table, stratum_table

#: Tolerance for the certificate max|B_v + sum alpha_j A_j| of a reported index,
#: in the so(3) coordinates of ``index_of_symmetry`` and relative to |C|_F.
CERTIFICATE_TOL = 1e-9


@dataclass(frozen=True)
class SymmetryReport:
    index: int
    generator: np.ndarray | None  # e-frame vector spanning the distribution, index 1 only
    certificate_residual: float


def index_of_symmetry(a: MetricAnalysis) -> SymmetryReport:
    """Dimension of the distribution of symmetry at the identity.

    Every B_v is g-skew, so in the g-orthonormal frame F of the analysis
    column j of the 3x3 matrix C holds the SO3_BASIS coordinates of
    F^-1 B_{F e_j} F; under g -> lambda g, C scales by lambda^(-1/2).  With
    isotropy so(g) the index is 3.  Otherwise it is the number of singular
    values at or below RANK_TOL * |C|_F of m = C (no isotropy) or of
    m = (I - w w^T) C (w the unit coordinates of the isotropy generator);
    a kernel vector u gives the direction F u.  This is the stack of one of
    ``_symmetry_reports``.
    """
    report = _symmetry_reports([a])[0]
    if isinstance(report, InternalConsistencyError):
        raise report
    return report


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, formed as ``np.linalg.norm`` forms it
    for one vector: the square root of its dot product with itself."""
    return np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def _symmetry_reports(analyses: list[MetricAnalysis]) -> list[SymmetryReport | InternalConsistencyError]:
    """The index of symmetry of each analysis (see ``index_of_symmetry``), or
    the InternalConsistencyError its checks raise.

    The metrics with isotropy below so(g) are solved as one stack by
    ``_solve_stack``; every report equals bit for bit the report of its
    metric alone.  Errors are returned, not raised, so that a caller meets
    each one at its own point.
    """
    solved = [a for a in analyses if len(a.isotropy) < 3]
    results = iter(_solve_stack(solved) if solved else ())
    reports: list[SymmetryReport | InternalConsistencyError] = []
    for a in analyses:
        index, residual, generator = next(results) if len(a.isotropy) < 3 else (3, 0.0, None)
        if index == 2:
            reports.append(InternalConsistencyError("index of symmetry 2 is impossible in this family"))
        elif a.symmetric and index != 3:
            reports.append(InternalConsistencyError("parallel curvature must give the full index"))
        elif a.constant_curvature and index != 3:
            reports.append(InternalConsistencyError("constant curvature must give the full index"))
        elif residual > CERTIFICATE_TOL:
            reports.append(InternalConsistencyError(f"symmetry certificate residual {residual:.3e} too large"))
        else:
            reports.append(SymmetryReport(index=index, generator=generator, certificate_residual=residual))
    return reports


def _solve_stack(analyses: list[MetricAnalysis]) -> list[tuple[int, float, np.ndarray | None]]:
    """(index, certificate residual, generator) of each analysis with
    isotropy of dimension 0 or 1: one einsum for the coordinates and one SVD
    for the stack."""
    # each frame is a transposed view; stacking the transposes and swapping
    # back keeps that memory order, so BLAS takes the path it takes for one
    # metric alone
    frames = np.array([a.frame.T for a in analyses]).swapaxes(-1, -2)
    grams = np.array([a.g.coeffs for a in analyses])
    # B of r0, r1, r2, and of the isotropy generator (zero without one)
    derivs = np.array([a.conn for a in analyses])
    line = [j for j, a in enumerate(analyses) if len(a.isotropy) == 1]
    if line:
        iso = np.zeros((len(analyses), 1, 3, 3))
        iso[line, 0] = np.array([analyses[j].isotropy[0] for j in line])
        derivs = np.concatenate([derivs, iso], axis=1)
    # their coordinates in F^-1 B F (F^-1 = F^T G)
    inverse = (frames.swapaxes(-1, -2) @ grams)[:, None]
    coords = np.einsum("kab,niab->nik", SO3_BASIS, inverse @ derivs @ frames[:, None])
    c = m = coords[:, :3].swapaxes(-1, -2) @ frames
    if line:
        w = coords[line, 3]
        w = w / _norms(w)[:, None]
        m = c.copy()
        m[line] = c[line] - w[:, :, None] * (w[:, None, :] @ c[line])
    _, s, vt = np.linalg.svd(m)
    scale = _norms(c.reshape(-1, 9))
    index = 3 - (s > RANK_TOL * scale[:, None]).sum(axis=1)
    found = index.tolist()
    # the certificate max |B_v + sum_j alpha_j A_j| over the kernel vectors,
    # the rows of vt past the rank: the last row for index 1, all three for
    # index 3 (an index of 2 fails whatever it is)
    residual = np.zeros(len(found))
    generators = [None] * len(found)
    if 1 in found:
        residual = np.where(index == 1, abs(m @ vt[:, 2, :, None]).reshape(-1, 3).max(axis=1), residual)
        # the direction F u of the last row, divided by its first entry above the cutoff
        v = (frames @ vt[:, 2, :, None])[..., 0]
        size = abs(v)
        pivot = (size > PIVOT_TOL * size.max(axis=1, keepdims=True)).argmax(axis=1)
        v = v / v[np.arange(len(v)), pivot, None]
        v[abs(v) < PIVOT_TOL] = 0.0
        generators = [generator if i == 1 else None for i, generator in zip(found, v)]
    if 3 in found:
        residual = np.where(index == 3, abs(m @ vt.swapaxes(-1, -2)).reshape(-1, 9).max(axis=1), residual)
    return list(zip(found, (residual / scale).tolist(), generators))


# ---------------------------------------------------------------------------
# moduli scans

def analyze_catalog_points(
    alg: LieAlgebra3, params: list[dict[str, float]]
) -> Iterable[tuple[InnerProduct, MetricAnalysis, SymmetryReport]]:
    """The catalog metric, its analysis and its index of symmetry at each parameter set, in order.

    The metrics are built in order up to the first that fails, and analysed
    and given their index of symmetry as one stack when this is called.  The
    points before the first failure, of the build or of an index check, are
    handed out before it is raised, so a caller meets it exactly where a
    loop over the points would.
    """
    gs: list[InnerProduct] = []
    failure = None
    try:
        for p in params:
            gs.append(metric_from_table(alg, **p))
    except LieIsoError as exc:
        failure = exc
    analyses = analyze_metrics(alg, gs) if gs else []
    points: list[tuple[InnerProduct, MetricAnalysis, SymmetryReport]] = []
    for g, analysis, report in zip(gs, analyses, _symmetry_reports(analyses)):
        if isinstance(report, InternalConsistencyError):
            failure = report
            break
        points.append((g, analysis, report))
    return _then_raise(points, failure) if failure else points


def _then_raise(points: list, failure: LieIsoError):
    yield from points
    raise failure


@dataclass(frozen=True)
class ScanPoint:
    metric_name: str
    params: dict[str, float]
    index: int
    group_tag: str
    stratum: str
    on_singular_locus: bool
    generator: tuple[float, ...] | None


@dataclass(frozen=True)
class ModuliScanResult:
    family: str
    c: float | None
    points: tuple[ScanPoint, ...]
    max_index: int
    containment_ok: bool
    equality_asserted: bool
    equality_observed: bool
    witnesses: tuple[ScanPoint, ...]  # maximal-index points off the singular locus

    @property
    def passed(self) -> bool:
        ok = self.containment_ok
        if self.equality_asserted:
            ok = ok and self.equality_observed
        return ok


def scan_moduli(
    family: str,
    c: float | None = None,
    grid_mu: int = 9,
    grid_nu: int = 3,
) -> ModuliScanResult:
    """Scan a group's moduli space of metrics and audit the singular locus.

    The grid covers each metric sheet and always includes the stratum
    boundary lines (which is where the interesting strata live).  Scan points
    are pure functions of (family, c, params): every grid metric is built
    first and the whole grid is analysed, and given its index of symmetry,
    as one stack, then classified point by point in the fixed order below.
    Grid sizes below 1 raise RangeError.
    """
    if grid_mu < 1 or grid_nu < 1:
        raise RangeError(f"scan grid sizes must be at least 1, got grid_mu={grid_mu}, grid_nu={grid_nu}")
    if family == FAMILY_I:
        alg = make_algebra_I()
    elif family == FAMILY_C and c is not None:
        alg = make_algebra_c(float(c))
    else:
        raise UnsupportedFamilyError("scan requires family I or family c with a value of c")

    table = stratum_table(family, c)
    nus = [float(x) for x in np.geomspace(0.5, 2.0, grid_nu)]
    jobs: list[tuple[str, dict[str, float]]] = []
    if family == FAMILY_I:
        jobs = [(METRIC_NU, {"nu": nu}) for nu in np.geomspace(0.4, 2.5, max(grid_mu, grid_nu))]
    else:
        sheets = {s.metric_name for s in table.strata}
        for mu in sorted(set(table.scan_mu(grid_mu)) | set(table.lines())):
            jobs += [(METRIC_MU_NU, {"mu": float(mu), "nu": nu}) for nu in nus]
        if METRIC_NU in sheets:
            jobs += [(METRIC_NU, {"nu": nu}) for nu in nus]
        if METRIC_LAMBDA_NU in sheets:
            jobs += [(METRIC_LAMBDA_NU, {"lam": float(l), "nu": nu})
                     for l in np.linspace(0.15, 0.85, max(grid_mu // 2, 2)) for nu in nus]

    points: list[ScanPoint] = []
    for (name, params), (g, analysis, report) in zip(jobs, analyze_catalog_points(alg, [p for _, p in jobs])):
        descriptor = classify_isometry_group(analysis)
        stratum = table.locate(g)
        points.append(
            ScanPoint(
                metric_name=name,
                params=params,
                index=report.index,
                group_tag=descriptor.group_tag.value,
                stratum=stratum.key,
                on_singular_locus=stratum.singular,
                generator=tuple(report.generator) if report.generator is not None else None,
            )
        )

    max_index = max(pt.index for pt in points)
    containment_ok = all(pt.index == max_index for pt in points if pt.on_singular_locus)
    maximal = [pt for pt in points if pt.index == max_index]
    witnesses = tuple(pt for pt in maximal if not pt.on_singular_locus)
    return ModuliScanResult(
        family=family,
        c=table.c,
        points=tuple(points),
        max_index=max_index,
        containment_ok=containment_ok,
        equality_asserted=table.equality_asserted,
        equality_observed=len(witnesses) == 0,
        witnesses=witnesses,
    )
