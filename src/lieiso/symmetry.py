"""Index and distribution of symmetry; stratified scans of the moduli spaces.

The index of symmetry at the identity is the dimension of the space of
Killing fields with vanishing covariant derivative there: pairs (v, alpha)
with B_v + sum_j alpha_j A_j = 0, where B_v = L(v) is the derivative of
the right-invariant field of value v and the A_j span the isotropy algebra.  In
this family of groups the index is always 0, 1 or 3; the value 2 is
structurally impossible and is treated as an internal error.

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
    a kernel vector u gives the direction F u.
    """
    frame, k = a.frame, len(a.isotropy)
    # coords[i]: coordinates of F^-1 B F (F^-1 = F^T G) for conn[0..2], then the isotropy
    coords = np.einsum("kab,iab->ik", SO3_BASIS, frame.T @ a.g.coeffs @ a.killing_derivatives @ frame)
    c = coords[:3].T @ frame
    index, residual = 3, 0.0
    if k < 3:
        m = c
        if k == 1:
            w = coords[3] / np.linalg.norm(coords[3])
            m = c - np.outer(w, w @ c)
        _, s, vt = np.linalg.svd(m)
        scale = float(np.linalg.norm(c))
        kernel = vt[int(np.sum(s > RANK_TOL * scale)):]
        index = len(kernel)
        # the certificate: max |B_v + sum_j alpha_j A_j| over the kernel vectors
        residual = float(np.max(np.abs(m @ kernel.T))) / scale if index else 0.0

    if index == 2:
        raise InternalConsistencyError("index of symmetry 2 is impossible in this family")
    if a.symmetric and index != 3:
        raise InternalConsistencyError("parallel curvature must give the full index")
    if a.constant_curvature and index != 3:
        raise InternalConsistencyError("constant curvature must give the full index")
    if residual > CERTIFICATE_TOL:
        raise InternalConsistencyError(f"symmetry certificate residual {residual:.3e} too large")
    generator = None
    if index == 1:
        v = frame @ kernel[0]
        generator = v / v[np.argmax(np.abs(v) > PIVOT_TOL * np.max(np.abs(v)))]  # first entry above the cutoff
        generator[np.abs(generator) < PIVOT_TOL] = 0.0
    return SymmetryReport(index=index, generator=generator, certificate_residual=residual)


# ---------------------------------------------------------------------------
# moduli scans

def analyze_catalog_points(
    alg: LieAlgebra3, params: list[dict[str, float]]
) -> Iterable[tuple[InnerProduct, MetricAnalysis]]:
    """The catalog metric and its analysis at each parameter set, in order.

    The metrics are built in order up to the first that fails and analysed
    as one stack when this is called.  They are handed out before that
    failure is raised, so a caller meets it exactly where a loop over the
    points would.
    """
    gs: list[InnerProduct] = []
    failure = None
    try:
        for p in params:
            gs.append(metric_from_table(alg, **p))
    except LieIsoError as exc:
        failure = exc
    points = list(zip(gs, analyze_metrics(alg, gs))) if gs else []
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
    first and the whole grid is analysed as one stack, then classified point
    by point in the fixed order below.  Grid sizes below 1 raise RangeError.
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
    for (name, params), (g, analysis) in zip(jobs, analyze_catalog_points(alg, [p for _, p in jobs])):
        report = index_of_symmetry(analysis)
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
