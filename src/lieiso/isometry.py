"""Killing fields, isotropy algebras and the isometry-group classification.

A Killing field X on the group is encoded by the pair (v, B) of its value
v = X_e and covariant derivative B = (nabla X)_e at the identity; B is skew
with respect to the metric.  The bracket of two Killing fields in this
encoding is

    value:  [X, X']_e = B' v - B v'
    deriv:  (nabla [X, X'])_e = R_{v, v'} - [B, B']

with R_{v, v'} the curvature endomorphism.  The right-invariant fields give
three Killing fields with B = (the connection endomorphism of v); isotropy
Killing fields have v = 0 and B solving the Singer conditions

    B . R = 0,  B . (nabla R) = 0,  B . (nabla^2 R) = 0,

which in dimension 3 (where n(n-1)/2 = 3) already certify integrability.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import FAMILY_C, FAMILY_I, LieAlgebra3
from .curvature import (
    constant_sectional,
    curvature_derivatives,
    levi_civita,
    ricci,
    so_action,
)
from .errors import InternalConsistencyError, UnsupportedFamilyError
from .linalg import rank_and_kernel, canonical_matrix_basis
from .metrics import InnerProduct, intersect_skew, skew_algebra

#: Tolerance for re-projecting Killing brackets onto the generator basis.
CLOSURE_TOL = 1e-8


class IsometryGroupTag(str, Enum):
    TRANSLATIONS_ONLY = "TranslationsOnly"
    PRODUCT_SO2 = "Product_SO2"
    E1_X_SO21 = "E1_x_SO21"
    SO31 = "SO31"


@dataclass(frozen=True)
class KillingGenerator:
    """A Killing field encoded by (value, covariant derivative) at the identity."""

    v: np.ndarray
    b: np.ndarray
    label: str = ""


@dataclass(frozen=True)
class IsometryDescriptor:
    group_tag: IsometryGroupTag
    isotropy_dim: int
    total_dim: int
    isotropy_generators: np.ndarray  # (k, 3, 3)
    sectional_constant: float | None


def right_invariant_b(alg: LieAlgebra3, conn: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(nabla r_v)_e for the right-invariant field with value v at the identity.

    Column j is L(e_j) v - [e_j, v]; by torsion-freeness this matrix equals
    the connection endomorphism L(v), a fact the tests pin down.  A stacked
    ``conn`` gives one matrix per item.
    """
    v = np.asarray(v, float)
    brackets = np.stack([alg.bracket(e, v) for e in np.eye(3)])  # row j is [e_j, v]
    return np.swapaxes(conn @ v - brackets, -1, -2)


def _curvature_endomorphism(curv: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    # curv[i, j, k, l] -> matrix[l, k] of z |-> R(v, w) z
    return np.einsum("ijkl,i,j->lk", curv, np.asarray(v, float), np.asarray(w, float))


def killing_bracket(a: KillingGenerator, b: KillingGenerator, curv: np.ndarray) -> KillingGenerator:
    v = b.b @ a.v - a.b @ b.v
    bb = _curvature_endomorphism(curv, a.v, b.v) - (a.b @ b.b - b.b @ a.b)
    return KillingGenerator(v=v, b=bb)


def singer_isotropy(
    grams: np.ndarray,
    tensors: tuple[np.ndarray, np.ndarray, np.ndarray],
    rics: np.ndarray,
) -> list[np.ndarray]:
    """Basis (k, 3, 3) of the isotropy algebra of each metric of a stack, canonically normalized.

    Solves the Singer conditions on the metric-skew algebra of each Gram
    matrix of ``grams`` (n, 3, 3), given the stacked (R, nabla R, nabla^2 R)
    as ``tensors`` and the Ricci forms as ``rics``, all with the same leading
    axis.  The search space is first cut down to the stabilizer of the Ricci
    form (which contains every solution, since Ricci is a curvature
    contraction); this never changes the answer and the tests assert as
    much.  The so(3) action is applied once per tensor for every
    search-space matrix of the stack; each metric keeps its own rank
    decision.
    """
    spaces = [intersect_skew(a, b) for a, b in zip(skew_algebra(grams), skew_algebra(rics))]
    # every (metric, search-space matrix) pair of the stack, acted on each tensor
    owner = [n for n, space in enumerate(spaces) for _ in space]
    acted = [so_action(np.concatenate(spaces), t[owner]).reshape(len(owner), -1)
             for t in tensors] if owner else []
    isotropy, first = [], 0
    for n, space in enumerate(spaces):
        rows = slice(first, first + len(space))
        first = rows.stop
        isotropy.append(_solve_singer(space, [t[n] for t in tensors], [a[rows] for a in acted]))
    return isotropy


def _solve_singer(space: np.ndarray, tensors: list[np.ndarray], acted: list[np.ndarray]) -> np.ndarray:
    """The isotropy basis of one metric from its search space and, per
    tensor, the action of each search-space matrix on it (one row each)."""
    if len(space) == 0:
        return np.zeros((0, 3, 3))
    # constraint matrix: one column per basis coefficient, rows stack the
    # entries of basis_mat . R, basis_mat . (nabla R), basis_mat . (nabla^2 R);
    # the natural scale of the residual system: basis size times tensor size
    # (for a symmetric space the whole matrix is rounding noise)
    scale = max(float(np.max(np.abs(t))) for t in tensors) * float(np.max(np.abs(space)))
    _, kernel = rank_and_kernel(np.vstack([a.T for a in acted]), scale=scale)
    if len(kernel) == 0:
        return np.zeros((0, 3, 3))
    mats = np.einsum("ks,sij->kij", kernel, space)
    return _normalize_isotropy(canonical_matrix_basis(mats))


def _normalize_isotropy(mats: np.ndarray) -> np.ndarray:
    """Scale a 1-dimensional isotropy generator so its (2,0) entry is 1.

    Canonical bases already carry pivot normalization; this extra step pins
    the printed form of one-dimensional isotropy algebras (whose generator
    has a nonzero (2,0) entry for every catalog case).
    """
    if len(mats) == 1 and abs(mats[0][2, 0]) > 1e-12:
        return np.array([mats[0] / mats[0][2, 0]])
    return mats


@dataclass(frozen=True)
class MetricAnalysis:
    """The data every classifier reads, computed once per metric.

    ``symmetric`` is the one parallel-curvature decision (nabla R = 0 relative
    to the size of R); ``isotropy`` is the Singer isotropy basis (k, 3, 3);
    ``right_b[i]`` is the derivative B of the right-invariant field of value e_i.
    """

    alg: LieAlgebra3
    g: InnerProduct
    conn: np.ndarray
    curv: np.ndarray
    nabla_r: np.ndarray
    ric: np.ndarray
    symmetric: bool
    isotropy: np.ndarray
    right_b: np.ndarray


def analyze_metrics(alg: LieAlgebra3, gs: list[InnerProduct]) -> list[MetricAnalysis]:
    """Connection, R, nabla R, Ricci, isotropy and the right-invariant B of each metric.

    The Gram matrices of ``gs`` are stacked and each kernel runs once for the
    whole stack; the result holds one MetricAnalysis per metric, in order,
    each equal bit for bit to the analysis of that metric in a stack of one.
    nabla^2 R enters the Singer solve only and is not kept.
    """
    grams = np.stack([g.coeffs for g in gs])
    conn = levi_civita(alg, grams)
    curv, nabla_r, nabla2_r = curvature_derivatives(conn, alg)
    ric = ricci(curv)
    isotropy = singer_isotropy(grams, (curv, nabla_r, nabla2_r), ric)
    right_b = np.stack([right_invariant_b(alg, conn, e) for e in np.eye(3)], axis=1)
    analyses = []
    for n, g in enumerate(gs):
        r, dr = curv[n], nabla_r[n]
        analyses.append(MetricAnalysis(
            alg=alg,
            g=g,
            conn=conn[n],
            curv=r,
            nabla_r=dr,
            ric=ric[n],
            symmetric=float(np.max(np.abs(dr))) <= 1e-9 * max(1.0, float(np.max(np.abs(r)))),
            isotropy=isotropy[n],
            right_b=right_b[n],
        ))
    return analyses


@dataclass(frozen=True)
class KillingAlgebra:
    generators: tuple[KillingGenerator, ...]
    structure: np.ndarray  # structure[a, b, m]: coefficient of generator m in [gen_a, gen_b]
    closure_residual: float

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(gen.label for gen in self.generators)


def killing_algebra(a: MetricAnalysis) -> KillingAlgebra:
    """Full Killing algebra: right-invariant generators plus isotropy.

    Generators are ordered (r0, r1, r2, A1, ..., Ak).  Every pairwise bracket
    is re-expanded in the basis; a projection residual above CLOSURE_TOL
    raises InternalConsistencyError since the Killing algebra must close.
    """
    curv, iso = a.curv, a.isotropy

    gens = [KillingGenerator(v=np.eye(3)[i], b=a.right_b[i], label=f"r{i}") for i in range(3)]
    gens += [KillingGenerator(v=np.zeros(3), b=mat, label=f"A{j + 1}") for j, mat in enumerate(iso)]

    n = len(gens)
    iso_flat = iso.reshape(len(iso), 9) if len(iso) else np.zeros((0, 9))
    structure = np.zeros((n, n, n))
    worst = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            br = killing_bracket(gens[a], gens[b], curv)
            coeffs = np.zeros(n)
            coeffs[:3] = br.v
            rest = br.b - sum(br.v[i] * gens[i].b for i in range(3))
            if len(iso):
                sol, *_ = np.linalg.lstsq(iso_flat.T, rest.ravel(), rcond=None)
                coeffs[3:] = sol
                residual = float(np.max(np.abs(iso_flat.T @ sol - rest.ravel())))
            else:
                residual = float(np.max(np.abs(rest)))
            worst = max(worst, residual)
            structure[a, b] = coeffs
            structure[b, a] = -coeffs
    if worst > CLOSURE_TOL:
        raise InternalConsistencyError(
            f"Killing algebra does not close on its generators (residual {worst:.3e})"
        )
    return KillingAlgebra(generators=tuple(gens), structure=structure, closure_residual=worst)


def killing_form(ka: KillingAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """Killing form K(x, y) = tr(ad x ad y) and its eigenvalues (ascending)."""
    c = ka.structure
    k = np.einsum("anm,bmn->ab", c, c)
    k = 0.5 * (k + k.T)
    return k, np.sort(np.linalg.eigvalsh(k))


def _ricci_product_signature(g: InnerProduct, conn: np.ndarray, ric: np.ndarray) -> bool:
    """Detect the metric-product signature: Ricci eigenvalues (0, -a, -a) with
    the kernel direction parallel (so the flat factor splits off)."""
    # generalized eigenproblem Ric v = lambda G v, via the Cholesky reduction
    l = np.linalg.cholesky(g.coeffs)
    linv = np.linalg.inv(l)
    sym = linv @ ric @ linv.T
    evals, evecs = np.linalg.eigh(0.5 * (sym + sym.T))
    scale = max(1.0, float(np.max(np.abs(evals))))
    near_zero = np.abs(evals) < 1e-8 * scale
    if int(near_zero.sum()) != 1:
        return False
    nonzero = evals[~near_zero]
    if len(nonzero) != 2 or abs(nonzero[0] - nonzero[1]) > 1e-8 * scale or nonzero[0] >= 0:
        return False
    v = linv.T @ evecs[:, int(np.argmax(near_zero))]
    v = v / np.linalg.norm(v)
    parallel_defect = max(float(np.max(np.abs(conn[i] @ v))) for i in range(3))
    return parallel_defect <= 1e-8 * max(1.0, float(np.max(np.abs(conn))))


def classify_isometry_group(a: MetricAnalysis) -> IsometryDescriptor:
    """Classify the identity component of the isometry group.

    Decision procedure on the Singer isotropy dimension k:
      k = 3: constant negative curvature, full SO(3,1)
      k = 1 and parallel curvature: metric product line x hyperbolic plane
      k = 1 otherwise: the group itself times a circle of isotropies
      k = 0: only the simply transitive translations
    k = 2 is impossible and raises InternalConsistencyError.
    """
    if a.alg.family not in (FAMILY_I, FAMILY_C):
        raise UnsupportedFamilyError("classification requires family I or c")
    g, symmetric, iso = a.g, a.symmetric, a.isotropy
    k = len(iso)
    sec = constant_sectional(a.curv, g)

    if k == 2:
        raise InternalConsistencyError("isotropy dimension 2 cannot occur in dimension 3")
    if k == 3:
        if sec is None or sec >= 0.0 or not symmetric:
            raise InternalConsistencyError(
                "3-dimensional isotropy must come with constant negative curvature"
            )
        tag = IsometryGroupTag.SO31
    elif k == 1:
        if symmetric:
            if not _ricci_product_signature(g, a.conn, a.ric):
                raise InternalConsistencyError(
                    "parallel curvature with 1-dimensional isotropy must be a metric product"
                )
            tag = IsometryGroupTag.E1_X_SO21
        else:
            tag = IsometryGroupTag.PRODUCT_SO2
    else:
        if symmetric:
            raise InternalConsistencyError("a symmetric metric cannot have trivial isotropy here")
        tag = IsometryGroupTag.TRANSLATIONS_ONLY

    return IsometryDescriptor(
        group_tag=tag,
        isotropy_dim=k,
        total_dim=3 + k,
        isotropy_generators=iso,
        sectional_constant=sec,
    )
