"""Killing fields, isotropy algebras and the isometry-group classification.

A Killing field X on the group is encoded by the pair (v, B) of its value
v = X_e and covariant derivative B = (nabla X)_e at the identity; B is skew
with respect to the metric.  The bracket of two Killing fields in this
encoding is

    value:  [X, X']_e = B' v - B v'
    deriv:  (nabla [X, X'])_e = R_{v, v'} - [B, B']

with R_{v, v'} the curvature endomorphism.  The right-invariant fields give
three Killing fields with B = L(v), the connection endomorphism of v (by
torsion-freeness), so r_i is (e_i, conn[i]); isotropy Killing fields have
v = 0 and B solving the Singer conditions

    B . R = 0,  B . (nabla R) = 0.

The stabilizers g_k in so(g) of R, ..., nabla^k R stop changing once
g_k = g_{k+1}, and the isotropy is where they stop (Singer 1960).  In
dimension 3, g_0 stabilizes the Ricci form (R is fixed by Ric and g) and
has dimension 0, 1 or 3: so(g) means constant curvature and nabla R = 0;
from a line, g_1 is it or 0.  Either way g_2 = g_1 is the isotropy.  g_0
is read off the Ricci multiplicities (``metrics.ricci_clusters``), and one
residual test keeps it or drops it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import FAMILY_C, FAMILY_I, LieAlgebra3
from .curvature import covariant_derivative, curvature, levi_civita, ricci, scalar_curvature, so_action
from .errors import InternalConsistencyError, UnsupportedFamilyError
from .linalg import PIVOT_TOL, RANK_TOL, canonical_matrix_basis
from .metrics import RICCI_TOL, InnerProduct, intersect_skew, ricci_clusters, skew_algebra

#: Tolerance for re-projecting Killing brackets onto the generator basis,
#: relative to max(1, max|derivative|) of the generators.
CLOSURE_TOL = 1e-8

#: The curvature is parallel when max|nabla R| <= PARALLEL_TOL * max(1, max|R|).
PARALLEL_TOL = 1e-9


class IsometryGroupTag(str, Enum):
    TRANSLATIONS_ONLY = "TranslationsOnly"
    PRODUCT_SO2 = "Product_SO2"
    E1_X_SO21 = "E1_x_SO21"
    SO31 = "SO31"


@dataclass(frozen=True)
class IsometryDescriptor:
    group_tag: IsometryGroupTag
    isotropy_dim: int
    total_dim: int
    isotropy_generators: np.ndarray  # (k, 3, 3)
    sectional_constant: float | None


def singer_isotropy(spaces: list[np.ndarray], tensors: tuple[np.ndarray, np.ndarray]) -> list[np.ndarray]:
    """Basis (k, 3, 3) of the isotropy algebra of each metric of a stack, canonically normalized.

    ``spaces`` holds the stabilizer of each Ricci form in so(g), from
    ``intersect_skew``, and ``tensors`` the stacked (R, nabla R) with one
    item per metric.  A stabilizer is kept whole when the largest singular
    value of its action on the two tensors is at most
    RANK_TOL * max|T| * max|stabilizer entry|, and dropped otherwise.  The
    so(3) action runs once per tensor for the stack, and the residual norms
    once for each stabilizer dimension k (1 or 3).
    """
    isotropy = [np.zeros((0, 3, 3))] * len(spaces)
    dims = np.array([len(space) for space in spaces])
    if not dims.any():
        return isotropy
    # every (metric, stabilizer matrix) pair of the stack, acted on each tensor
    owner = np.repeat(np.arange(len(spaces)), dims)
    basis = np.concatenate(spaces)
    acted = np.hstack([so_action(basis, t[owner]).reshape(len(owner), -1) for t in tensors])
    for k in (1, 3):
        members, rows = np.flatnonzero(dims == k), np.flatnonzero(dims[owner] == k)
        if len(members) == 0:
            continue
        # the natural scale of the residual system: basis size times tensor
        # size (for a symmetric space the whole system is rounding noise)
        size = np.max([abs(t[members]).reshape(len(members), -1).max(axis=1) for t in tensors], axis=0)
        scale = size * abs(basis[rows]).reshape(len(members), -1).max(axis=1)
        residual = np.linalg.norm(acted[rows].reshape(len(members), k, -1), 2, axis=(1, 2))
        for n in members[residual <= RANK_TOL * scale]:
            isotropy[n] = _normalize_isotropy(canonical_matrix_basis(spaces[n]))
    return isotropy


def _normalize_isotropy(mats: np.ndarray) -> np.ndarray:
    """Scale a 1-dimensional isotropy generator so its (2,0) entry is 1.

    Canonical bases already carry pivot normalization; this extra step pins
    the printed form of one-dimensional isotropy algebras (whose generator
    has a nonzero (2,0) entry for every catalog case).
    """
    if len(mats) == 1 and abs(mats[0][2, 0]) > PIVOT_TOL:
        return np.array([mats[0] / mats[0][2, 0]])
    return mats


@dataclass(frozen=True)
class MetricAnalysis:
    """The data every classifier reads, computed once per metric.

    ``symmetric`` is the one parallel-curvature decision (nabla R = 0 at
    PARALLEL_TOL).  ``constant_curvature`` is the one constant-curvature
    decision: in dimension 3 the curvature is constant iff Ric = 2K g, i.e.
    iff the Ricci spectrum is one triple eigenvalue at RICCI_TOL;
    ``ricci_simple`` is the index of the simple eigenvalue when the spectrum
    is a double pair and a simple eigenvalue, None otherwise (both by
    ``ricci_clusters``).  ``ricci_eigenvalues`` (ascending) and ``ricci_axes``
    (columns: g-orthonormal eigenvectors in the e-frame) are the spectrum of
    Ric relative to g, and ``scalar`` its trace; ``isotropy`` is the Singer
    isotropy basis (k, 3, 3).  ``conn[i]`` is also the derivative B of the
    right-invariant field of value e_i.  ``frame`` is the Cholesky frame F.
    """

    alg: LieAlgebra3
    g: InnerProduct
    frame: np.ndarray
    conn: np.ndarray
    curv: np.ndarray
    nabla_r: np.ndarray
    ric: np.ndarray
    ricci_eigenvalues: np.ndarray
    ricci_axes: np.ndarray
    scalar: float
    symmetric: bool
    constant_curvature: bool
    ricci_simple: int | None
    isotropy: np.ndarray

    @property
    def killing_derivatives(self) -> np.ndarray:
        """Derivatives B (3 + k, 3, 3) of the Killing generators r0, r1, r2,
        A1, ..., Ak: ``conn`` stacked on ``isotropy``."""
        return np.concatenate([self.conn, self.isotropy])


def analyze_metrics(alg: LieAlgebra3, gs: list[InnerProduct]) -> list[MetricAnalysis]:
    """Connection, R, nabla R, Ricci spectrum and isotropy of each metric.

    The Gram matrices of ``gs`` are stacked and each kernel runs once for the
    whole stack, as do the parallel-curvature and Ricci-cluster decisions;
    the result holds one MetricAnalysis per metric, in order, each equal bit
    for bit to the analysis of that metric in a stack of one.
    """
    grams = np.stack([g.coeffs for g in gs])
    conn = levi_civita(alg, grams)
    curv = curvature(conn, alg)
    nabla_r = covariant_derivative(curv, conn)
    ric = ricci(curv)
    # generalized eigenproblem Ric v = lambda G v, in the g-orthonormal frame
    # F = L^-T of the Cholesky factor G = L L^T, where Ric becomes sym
    linv = np.linalg.inv(np.linalg.cholesky(grams))
    frames = np.swapaxes(linv, -1, -2)
    sym = linv @ ric @ frames
    sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
    evals, evecs = np.linalg.eigh(sym)
    axes = frames @ evecs
    scalar = scalar_curvature(ric, grams)
    # the Ricci clusters decide the stabilizer, constant curvature and the
    # product signature; ``skew_algebra`` gives so(g) in closed form
    multiplicity, simple, _ = ricci_clusters(evals)
    spaces = intersect_skew(skew_algebra(frames, grams), multiplicity, simple, evecs)
    isotropy = singer_isotropy(spaces, (curv, nabla_r))
    n = len(gs)
    curv_size = abs(curv).reshape(n, -1).max(axis=1)
    symmetric = abs(nabla_r).reshape(n, -1).max(axis=1) <= PARALLEL_TOL * np.maximum(1.0, curv_size)
    decisions = zip(scalar.tolist(), symmetric.tolist(), multiplicity.tolist(), simple.tolist())
    return [
        MetricAnalysis(
            alg=alg,
            g=g,
            frame=frames[i],
            conn=conn[i],
            curv=curv[i],
            nabla_r=nabla_r[i],
            ric=ric[i],
            ricci_eigenvalues=evals[i],
            ricci_axes=axes[i],
            scalar=scal,
            symmetric=parallel,
            constant_curvature=mult == 3,
            ricci_simple=simp if mult == 2 else None,
            isotropy=isotropy[i],
        )
        for i, (g, (scal, parallel, mult, simp)) in enumerate(zip(gs, decisions))
    ]


@dataclass(frozen=True)
class KillingAlgebra:
    values: np.ndarray  # (3 + k, 3): value of each generator at the identity
    derivatives: np.ndarray  # (3 + k, 3, 3): its covariant derivative there
    structure: np.ndarray  # structure[a, b, m]: coefficient of generator m in [gen_a, gen_b]
    closure_residual: float

    @property
    def labels(self) -> tuple[str, ...]:
        k = len(self.values) - 3
        return tuple(f"r{i}" for i in range(3)) + tuple(f"A{j + 1}" for j in range(k))


def killing_algebra(a: MetricAnalysis) -> KillingAlgebra:
    """Full Killing algebra: right-invariant generators plus isotropy.

    Generators are ordered (r0, r1, r2, A1, ..., Ak): r_i has value e_i and
    derivative conn[i], A_j value 0 and derivative isotropy[j].  Every
    bracket is formed at once and re-expanded in the basis: its value gives
    the r-coefficients, and what is left of its derivative is projected onto
    the isotropy by one least-squares solve with one right-hand side per
    pair.  A projection residual, over max(1, max|derivative|), above
    CLOSURE_TOL raises InternalConsistencyError: the algebra must close.
    """
    derivs = a.killing_derivatives
    n, k = len(derivs), len(a.isotropy)
    values = np.eye(n, 3)
    first, second = np.triu_indices(n, 1)
    va, vb, ba, bb = values[first], values[second], derivs[first], derivs[second]
    # [X_a, X_b] = (B_b v_a - B_a v_b, R(v_a, v_b) - [B_a, B_b]); the products
    # B_a B_b are the einsum that ``curvature`` forms L(e_a) L(e_b) with, so
    # between right-invariant generators the [L_a, L_b] of R cancels exactly
    value = np.einsum("pkl,pl->pk", bb, va) - np.einsum("pkl,pl->pk", ba, vb)
    comm = np.einsum("pab,pbc->pac", ba, bb) - np.einsum("pab,pbc->pac", bb, ba)
    deriv = np.einsum("ijkl,pi,pj->plk", a.curv, va, vb) - comm
    rest = (deriv - np.einsum("pi,ikl->pkl", value, a.conn)).reshape(-1, 9).T
    iso_cols = a.isotropy.reshape(k, 9).T
    sol = np.linalg.lstsq(iso_cols, rest, rcond=None)[0] if k else np.zeros((0, len(first)))
    worst = float(np.max(np.abs(iso_cols @ sol - rest))) / max(1.0, float(np.max(np.abs(derivs))))
    if worst > CLOSURE_TOL:
        raise InternalConsistencyError(
            f"Killing algebra does not close on its generators (residual {worst:.3e})"
        )
    coeffs = np.concatenate([value, sol.T], axis=1)
    structure = np.zeros((n, n, n))
    structure[first, second] = coeffs
    structure[second, first] = -coeffs
    return KillingAlgebra(values=values, derivatives=derivs, structure=structure, closure_residual=worst)


def killing_form(ka: KillingAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """Killing form K(x, y) = tr(ad x ad y) and its eigenvalues (ascending)."""
    c = ka.structure
    k = np.einsum("anm,bmn->ab", c, c)
    k = 0.5 * (k + k.T)
    return k, np.sort(np.linalg.eigvalsh(k))


def _ricci_product_signature(a: MetricAnalysis) -> bool:
    """Detect the metric-product signature: Ricci eigenvalues (0, -b, -b) with
    the kernel direction parallel (so the flat factor splits off)."""
    evals, simple = a.ricci_eigenvalues, a.ricci_simple
    # evals[1] always belongs to the double pair
    if simple is None or abs(evals[simple]) > RICCI_TOL * float(np.max(np.abs(evals))) or evals[1] >= 0:
        return False
    v = a.ricci_axes[:, simple]
    v = v / np.linalg.norm(v)
    parallel_defect = float(np.max(np.abs(a.conn @ v)))
    return parallel_defect <= RICCI_TOL * max(1.0, float(np.max(np.abs(a.conn))))


def classify_isometry_group(a: MetricAnalysis) -> IsometryDescriptor:
    """Classify the identity component of the isometry group.

    Decision procedure on the Singer isotropy dimension k:
      k = 3: constant negative curvature, full SO(3,1)
      k = 1 and parallel curvature: metric product line x hyperbolic plane
      k = 1 otherwise: the group itself times a circle of isotropies
      k = 0: only the simply transitive translations
    """
    if a.alg.family not in (FAMILY_I, FAMILY_C):
        raise UnsupportedFamilyError("classification requires family I or c")
    symmetric, iso = a.symmetric, a.isotropy
    k = len(iso)
    # a constant curvature K is scal / 6 in dimension 3
    sec = a.scalar / 6.0 if a.constant_curvature else None

    if k == 3:
        if sec is None or sec >= 0.0 or not symmetric:
            raise InternalConsistencyError(
                "3-dimensional isotropy must come with constant negative curvature"
            )
        tag = IsometryGroupTag.SO31
    elif k == 1:
        if symmetric:
            if not _ricci_product_signature(a):
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
