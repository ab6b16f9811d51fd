"""Index and distribution of symmetry; stratified scans of the moduli spaces.

The index of symmetry at the identity is the dimension of the space of
Killing fields with vanishing covariant derivative there: pairs (v, alpha)
with B_v + sum_j alpha_j A_j = 0, where B_v is the derivative of the
right-invariant field of value v and the A_j span the isotropy algebra.  In
this family of groups the index is always 0, 1 or 3; the value 2 is
structurally impossible and is treated as an internal error.

The moduli space of left-invariant metrics up to isometric automorphism is,
for each group, a low-dimensional parameter space (see ``metrics``).  Its
topologically singular locus consists of:

* family c, c < 0:     the boundary line mu = |c|
* family c, c = 0:     the isolated one-parameter sheet g_nu
* family c, 0 < c < 1: the boundary line mu = 0
* family c, c = 1:     the gluing line mu = 1 (= lam -> 0 from the 2nd sheet)
* family c, c > 1:     the boundary line mu = c
* family I:            empty (the moduli space is a line)

The scan verifies that every singular point carries the maximal index of
symmetry within its family (computed empirically from the scan itself), and
records where the maximal-index set is strictly larger than the singular
locus, which happens exactly for family I and for 0 < c < 1 (the interior
line mu = sqrt(c) is maximally symmetric but not a singular point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import FAMILY_C, FAMILY_I, LieAlgebra3, make_algebra_c, make_algebra_I
from .errors import InternalConsistencyError, UnsupportedFamilyError
from .isometry import MetricAnalysis, analyze_metric, classify_isometry_group, right_invariant_b
from .linalg import rank_and_kernel
from .metrics import InnerProduct, METRIC_LAMBDA_NU, METRIC_MU_NU, METRIC_NU, metric_from_table
from .settings import DEFAULT, EngineSettings

#: Tolerance for the certificate ||B_v + sum alpha_j A_j|| of a reported index.
CERTIFICATE_TOL = 1e-9


@dataclass(frozen=True)
class SymmetryReport:
    index: int
    generator: np.ndarray | None  # e-frame vector spanning the distribution, index 1 only
    symmetric_space: bool
    certificate_residual: float
    boundary_snapped: bool = False


def index_of_symmetry(
    alg: LieAlgebra3,
    g: InnerProduct,
    settings: EngineSettings = DEFAULT,
    analysis: MetricAnalysis | None = None,
) -> SymmetryReport:
    """Dimension of the distribution of symmetry at the identity.

    Solves B_v + sum_j alpha_j A_j = 0 over (v, alpha).  The isotropy
    generators are linearly independent, so the kernel projects injectively
    onto v-space and its dimension equals the index.  ``analysis`` is
    ``analyze_metric(alg, g, settings)`` if the caller has it.
    """
    a = analyze_metric(alg, g, settings) if analysis is None else analysis.checked(alg, g, settings)
    symmetric, iso = a.symmetric, a.isotropy
    b_basis = [right_invariant_b(alg, a.conn, np.eye(3)[i]) for i in range(3)]
    cols = [b.ravel() for b in b_basis]
    cols += [mat.ravel() for mat in iso]
    m = np.stack(cols, axis=1)
    _, kernel = rank_and_kernel(m, settings.tol_rank)
    index = len(kernel)

    if index == 2:
        raise InternalConsistencyError("index of symmetry 2 is impossible in this family")
    if index not in (0, 1, 3):
        raise InternalConsistencyError(f"index of symmetry {index} out of range")
    if symmetric and index != 3:
        raise InternalConsistencyError("parallel curvature must give the full index")

    generator = None
    residual = 0.0
    if index > 0:
        worst = 0.0
        for vec in kernel:
            combo = sum(vec[3 + j] * iso[j] for j in range(len(iso))) if len(iso) else 0.0
            b_v = sum(vec[i] * b_basis[i] for i in range(3))
            worst = max(worst, float(np.max(np.abs(b_v + combo))))
        residual = worst
        if residual > CERTIFICATE_TOL:
            raise InternalConsistencyError(f"symmetry certificate residual {residual:.3e} too large")
    if index == 1:
        v = kernel[0][:3]
        pivot = next(x for x in v if abs(x) > 1e-12)
        generator = v / pivot
        generator[np.abs(generator) < 1e-12] = 0.0

    return SymmetryReport(
        index=index,
        generator=generator,
        symmetric_space=symmetric,
        certificate_residual=residual,
        boundary_snapped=g.boundary_snapped,
    )


# ---------------------------------------------------------------------------
# stratification of the catalog

@dataclass(frozen=True)
class Stratum:
    """One row of the symmetry stratification."""

    key: str
    metric_name: str
    constraint: str
    sample_params: tuple[dict[str, float], ...]


def _nu_grid(n: int) -> list[float]:
    return [float(x) for x in np.geomspace(0.5, 2.0, max(n, 1))]


def strata_for_family(family: str, c: float | None, n: int = 3) -> list[Stratum]:
    """The symmetry strata of one group, with n sample points each."""
    nus = _nu_grid(n)
    if family == FAMILY_I:
        return [Stratum("I:g_nu", METRIC_NU, "nu > 0", tuple({"nu": nu} for nu in nus))]
    if family != FAMILY_C or c is None:
        raise UnsupportedFamilyError("strata are defined for families I and c")
    c = float(c)
    out: list[Stratum] = []
    if c < 0.0:
        interior = [abs(c) * t for t in np.linspace(0.25, 0.85, n)]
        out.append(Stratum("c<0:mu<|c|", METRIC_MU_NU, "0 < mu < |c|",
                           tuple({"mu": m, "nu": nu} for m, nu in zip(interior, nus))))
        out.append(Stratum("c<0:mu=|c|", METRIC_MU_NU, "mu = |c|",
                           tuple({"mu": abs(c), "nu": nu} for nu in nus)))
    elif c == 0.0:
        out.append(Stratum("c=0:g_mu_nu", METRIC_MU_NU, "mu > 0",
                           tuple({"mu": m, "nu": nu} for m, nu in zip(np.geomspace(0.5, 2.0, n), nus))))
        out.append(Stratum("c=0:g_nu", METRIC_NU, "nu > 0", tuple({"nu": nu} for nu in nus)))
    elif c < 1.0:
        root = math.sqrt(c)
        generic = [m for m in np.linspace(0.1, 0.9, n + 1) if abs(m - root) > 1e-3][:n]
        out.append(Stratum("0<c<1:mu=0", METRIC_MU_NU, "mu = 0",
                           tuple({"mu": 0.0, "nu": nu} for nu in nus)))
        out.append(Stratum("0<c<1:mu generic", METRIC_MU_NU, "0 < mu < 1, mu != sqrt(c)",
                           tuple({"mu": m, "nu": nu} for m, nu in zip(generic, nus))))
        out.append(Stratum("0<c<1:mu=sqrt(c)", METRIC_MU_NU, "mu = sqrt(c)",
                           tuple({"mu": root, "nu": nu} for nu in nus)))
    elif c == 1.0:
        interior = np.linspace(0.3, 0.8, n)
        out.append(Stratum("c=1:mu<1", METRIC_MU_NU, "0 < mu < 1",
                           tuple({"mu": m, "nu": nu} for m, nu in zip(interior, nus))))
        out.append(Stratum("c=1:mu=1", METRIC_MU_NU, "mu = 1",
                           tuple({"mu": 1.0, "nu": nu} for nu in nus)))
        out.append(Stratum("c=1:g_lambda_nu", METRIC_LAMBDA_NU, "0 < lam < 1",
                           tuple({"lam": l, "nu": nu} for l, nu in zip(np.linspace(0.2, 0.8, n), nus))))
    else:
        special = (math.sqrt(c) - 1.0) ** 2 + 1.0
        generic = [m for m in np.linspace(1.0 + 0.1 * (c - 1.0), 1.0 + 0.9 * (c - 1.0), n + 1)
                   if abs(m - special) > 1e-3][:n]
        out.append(Stratum("c>1:mu generic", METRIC_MU_NU, "1 < mu < c, mu != (sqrt(c)-1)^2+1",
                           tuple({"mu": m, "nu": nu} for m, nu in zip(generic, nus))))
        out.append(Stratum("c>1:mu special", METRIC_MU_NU, "mu = (sqrt(c)-1)^2+1",
                           tuple({"mu": special, "nu": nu} for nu in nus)))
        out.append(Stratum("c>1:mu=c", METRIC_MU_NU, "mu = c",
                           tuple({"mu": c, "nu": nu} for nu in nus)))
    return out


def metric_for_params(
    alg: LieAlgebra3, name: str, params: dict[str, float], settings: EngineSettings = DEFAULT
) -> InnerProduct:
    """Build the catalog metric named by a stratum/scan job."""
    if name == METRIC_LAMBDA_NU:
        return metric_from_table(alg, lam=params["lam"], nu=params["nu"], settings=settings)
    if name == METRIC_MU_NU:
        return metric_from_table(alg, mu=params["mu"], nu=params["nu"], settings=settings)
    return metric_from_table(alg, nu=params["nu"], settings=settings)


def table_row(
    alg: LieAlgebra3, g: InnerProduct, settings: EngineSettings = DEFAULT
) -> tuple[int, str, np.ndarray | None]:
    """(index, stratum key, generator) for one metric."""
    report = index_of_symmetry(alg, g, settings)
    return report.index, _stratum_key(alg, g, settings), report.generator


def _stratum_key(alg: LieAlgebra3, g: InnerProduct, settings: EngineSettings) -> str:
    tol = settings.tol_case
    if alg.family == FAMILY_I:
        return "I:g_nu"
    c = float(alg.c)
    if g.name == METRIC_NU:
        return "c=0:g_nu"
    if g.name == METRIC_LAMBDA_NU:
        return "c=1:g_lambda_nu"
    mu = g.params.get("mu")
    if mu is None:
        return "custom"
    if c < 0.0:
        return "c<0:mu=|c|" if abs(mu - abs(c)) <= tol else "c<0:mu<|c|"
    if c == 0.0:
        return "c=0:g_mu_nu"
    if c < 1.0:
        if mu <= tol:
            return "0<c<1:mu=0"
        if abs(mu - math.sqrt(c)) <= tol:
            return "0<c<1:mu=sqrt(c)"
        return "0<c<1:mu generic"
    if c == 1.0:
        return "c=1:mu=1" if abs(mu - 1.0) <= tol else "c=1:mu<1"
    if abs(mu - c) <= tol:
        return "c>1:mu=c"
    if abs(mu - ((math.sqrt(c) - 1.0) ** 2 + 1.0)) <= tol:
        return "c>1:mu special"
    return "c>1:mu generic"


# ---------------------------------------------------------------------------
# moduli scans

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


def _on_singular_locus(family: str, c: float | None, name: str, params: dict[str, float], tol: float) -> bool:
    if family == FAMILY_I:
        return False
    c = float(c)
    if c < 0.0:
        return name == METRIC_MU_NU and abs(params.get("mu", np.nan) - abs(c)) <= tol
    if c == 0.0:
        return name == METRIC_NU
    if c < 1.0:
        return name == METRIC_MU_NU and abs(params.get("mu", np.nan)) <= tol
    if c == 1.0:
        if name == METRIC_MU_NU:
            return abs(params.get("mu", np.nan) - 1.0) <= tol
        return abs(params.get("lam", np.nan)) <= tol
    return name == METRIC_MU_NU and abs(params.get("mu", np.nan) - c) <= tol


def equality_asserted_for(family: str, c: float | None) -> bool:
    """Whether the maximal-index set is asserted to coincide with the singular
    locus: true for every group except family I and family c with 0 < c < 1."""
    if family == FAMILY_I:
        return False
    return not (0.0 < float(c) < 1.0)


def scan_moduli(
    family: str,
    c: float | None = None,
    grid_mu: int = 9,
    grid_nu: int = 3,
    settings: EngineSettings = DEFAULT,
) -> ModuliScanResult:
    """Scan a group's moduli space of metrics and audit the singular locus.

    The grid covers each metric sheet and always includes the stratum
    boundary lines (which is where the interesting strata live).  Scan points
    are pure functions of (family, c, params), so the grid could be evaluated
    in any order or in parallel; the result tuple is assembled in the fixed
    order below either way.
    """
    if family == FAMILY_I:
        alg = make_algebra_I()
    elif family == FAMILY_C and c is not None:
        alg = make_algebra_c(float(c))
    else:
        raise UnsupportedFamilyError("scan requires family I or family c with a value of c")

    nus = _nu_grid(grid_nu)
    jobs: list[tuple[str, dict[str, float]]] = []
    if family == FAMILY_I:
        jobs = [(METRIC_NU, {"nu": nu}) for nu in np.geomspace(0.4, 2.5, max(grid_mu, grid_nu))]
    else:
        c = float(c)
        if c < 0.0:
            mus = sorted(set(np.linspace(abs(c) / grid_mu, abs(c), grid_mu)))
        elif c == 0.0:
            mus = list(np.geomspace(0.4, 2.5, grid_mu))
        elif c < 1.0:
            mus = sorted(set(np.linspace(0.0, 0.95, grid_mu)) | {0.0, math.sqrt(c)})
        elif c == 1.0:
            mus = sorted(set(np.linspace(1.0 / grid_mu, 1.0, grid_mu)) | {1.0})
        else:
            special = (math.sqrt(c) - 1.0) ** 2 + 1.0
            mus = sorted(set(np.linspace(1.0 + (c - 1.0) / grid_mu, c, grid_mu)) | {special, c})
        for mu in mus:
            jobs += [(METRIC_MU_NU, {"mu": float(mu), "nu": nu}) for nu in nus]
        if c == 0.0:
            jobs += [(METRIC_NU, {"nu": nu}) for nu in nus]
        if c == 1.0:
            jobs += [(METRIC_LAMBDA_NU, {"lam": float(l), "nu": nu})
                     for l in np.linspace(0.15, 0.85, max(grid_mu // 2, 2)) for nu in nus]

    points: list[ScanPoint] = []
    for name, params in jobs:
        g = metric_for_params(alg, name, params, settings)
        analysis = analyze_metric(alg, g, settings)
        report = index_of_symmetry(alg, g, settings, analysis)
        descriptor = classify_isometry_group(alg, g, settings, analysis)
        points.append(
            ScanPoint(
                metric_name=name,
                params=params,
                index=report.index,
                group_tag=descriptor.group_tag.value,
                stratum=_stratum_key(alg, g, settings),
                on_singular_locus=_on_singular_locus(family, c, name, params, settings.tol_case),
                generator=tuple(report.generator) if report.generator is not None else None,
            )
        )

    max_index = max(pt.index for pt in points)
    containment_ok = all(pt.index == max_index for pt in points if pt.on_singular_locus)
    maximal = [pt for pt in points if pt.index == max_index]
    witnesses = tuple(pt for pt in maximal if not pt.on_singular_locus)
    return ModuliScanResult(
        family=family,
        c=c if family == FAMILY_C else None,
        points=tuple(points),
        max_index=max_index,
        containment_ok=containment_ok,
        equality_asserted=equality_asserted_for(family, c),
        equality_observed=len(witnesses) == 0,
        witnesses=witnesses,
    )
