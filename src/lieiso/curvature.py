"""Levi-Civita connection, curvature and tensor calculus at the identity.

For a left-invariant metric everything is determined by linear algebra on the
structure constants.  Sign conventions, pinned by golden tests against
closed-form Ricci data:

* Koszul:    2 <L(x) y, z> = <[x,y], z> - <[y,z], x> + <[z,x], y>
* curvature: R(x, y) = L(x) L(y) - L(y) L(x) - L([x, y])
* Ricci:     Ric(y, z) = trace of x -> R(x, y) z
* sectional: K(x, y) = <R(x,y) y, x> / (|x|^2 |y|^2 - <x,y>^2)

Covariant tensors of type (1, k) are stored with input slots first and the
output slot last: ``comps[i1, ..., ik, l]`` is the e_l component of
T(e_{i1}, ..., e_{ik}).  The kernels also take a stack of metrics: a
leading axis on the Gram matrices carries through the connection and every
tensor built from it, and item i of each result equals, bit for bit, the
result for metric i alone.  The so(V) action on such tensors follows the
convention with a minus sign on the output (covector) slot and plus signs on
the input slots; note that this makes A |-> (A . ) an *anti*-homomorphism of
Lie algebras, which is harmless here because only its kernels are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra3
from .metrics import InnerProduct


@dataclass(frozen=True)
class ConnectionOperator:
    """The family of endomorphisms L(x) = nabla_x; ``mats[..., i, :, :]`` is L(e_i)."""

    mats: np.ndarray  # (3, 3, 3), or (n, 3, 3, 3) for a stack

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("i,ikl->kl", np.asarray(x, float), self.mats)


@dataclass(frozen=True)
class CovTensor:
    """A type-(1, k) tensor; comps[i1, ..., ik, l] with the output slot last.

    A stack of tensors puts the stack axis first; ``order`` and ``norm``
    hold for an unstacked tensor only.
    """

    comps: np.ndarray

    @property
    def order(self) -> int:
        return self.comps.ndim - 1

    def norm(self) -> float:
        return float(np.max(np.abs(self.comps))) if self.comps.size else 0.0


def levi_civita(alg: LieAlgebra3, gram: np.ndarray) -> ConnectionOperator:
    """Solve the Koszul formula for the connection endomorphisms.

    ``gram`` is one Gram matrix (3, 3) or a stack of them (n, 3, 3); the
    connection gets the same leading axes.
    """
    s = alg.structure
    gram = np.asarray(gram, dtype=float)
    b1 = np.einsum("ijk,...kl->...ijl", s, gram)
    b2 = np.einsum("jlk,...ki->...ijl", s, gram)
    b3 = np.einsum("lik,...kj->...ijl", s, gram)
    rhs = 0.5 * (b1 - b2 + b3)
    # columns of L(e_i) are Gamma_{i j}; solve G Gamma = rhs row-wise
    mats = np.linalg.solve(gram[..., None, :, :], np.swapaxes(rhs, -1, -2))
    return ConnectionOperator(mats=mats)


def curvature(conn: ConnectionOperator, alg: LieAlgebra3) -> CovTensor:
    """R(e_i, e_j) e_k as a type-(1,3) tensor, with the leading axes of ``conn``."""
    lam = conn.mats
    comm = np.einsum("...iab,...jbc->...ijac", lam, lam)
    comm = comm - np.swapaxes(comm, -4, -3)
    lam_bracket = np.einsum("ijm,...mac->...ijac", alg.structure, lam)
    end = comm - lam_bracket  # end[..., i, j] is the endomorphism R(e_i, e_j)
    return CovTensor(comps=np.swapaxes(end, -1, -2))  # comps[..., i, j, k, l] = end[..., i, j][l, k]


def ricci(curv: CovTensor) -> np.ndarray:
    """Ric(e_j, e_k) = sum_i <R(e_i, e_j) e_k, e^i> (metric-free contraction)."""
    return np.einsum("...ijki->...jk", curv.comps)


def scalar_curvature(ric: np.ndarray, g: InnerProduct) -> float:
    return float(np.trace(np.linalg.solve(g.coeffs, ric)))


def sectional_curvature(curv: CovTensor, g: InnerProduct, x: np.ndarray, y: np.ndarray) -> float:
    """Sectional curvature of the plane spanned by x, y (must be independent)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    rxyy = np.einsum("ijkl,i,j,k->l", curv.comps, x, y, y)
    num = g.pairing(rxyy, x)
    den = g.pairing(x, x) * g.pairing(y, y) - g.pairing(x, y) ** 2
    if den <= 0.0:
        raise ValueError("sectional curvature needs two linearly independent vectors")
    return num / den


#: Largest spread of the probed sectional curvatures, relative to
#: 1 + max|K|, for which the curvature counts as constant.
SECTIONAL_TOL = 1e-9

# Planes probed when deciding whether the curvature is constant: the three
# coordinate planes plus a few slanted ones.
_PROBE_PLANES = [
    (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
    (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    (np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])),
    (np.array([1.0, -1.0, 2.0]), np.array([2.0, 1.0, -1.0])),
    (np.array([1.0, 2.0, -1.0]), np.array([-1.0, 1.0, 1.0])),
]


def constant_sectional(curv: CovTensor, g: InnerProduct) -> float | None:
    """The common sectional curvature if it is plane-independent, else None."""
    values = [sectional_curvature(curv, g, x, y) for x, y in _PROBE_PLANES]
    spread = max(values) - min(values)
    if spread <= SECTIONAL_TOL * (1.0 + max(abs(v) for v in values)):
        return float(np.mean(values))
    return None


# Letters for the input slots of a tensor in the einsum subscripts below.
_SLOTS = "bcdefghij"


def so_action(a: np.ndarray, t: CovTensor) -> CovTensor:
    """Action of a matrix on a type-(1, k) tensor (minus on the output slot).

    ``a`` may be a stack of matrices (n, 3, 3); ``t.comps`` then carries the
    same leading axis and item i of the result is ``a[i]`` acting on item i.
    """
    a = np.asarray(a, float)
    lead = a.ndim - 2
    order = t.comps.ndim - 1 - lead
    slots = _SLOTS[:order]
    comps = -np.einsum(f"...lm,...{slots}m->...{slots}l", a, t.comps)
    for slot in range(order):
        # contract the slot with the rows of a: one GEMM per item, with the
        # factors np.tensordot would form, so each item keeps its bits
        moved = np.moveaxis(t.comps, lead + slot, -1)
        hit = (moved.reshape(moved.shape[:lead] + (-1, 3)) @ a).reshape(moved.shape)
        comps += np.moveaxis(hit, -1, lead + slot)
    return CovTensor(comps=comps)


def covariant_derivative(t: CovTensor, conn: ConnectionOperator) -> CovTensor:
    """(nabla T)(x; v1..vk) = L(x) T(v...) - sum_i T(..., L(x) v_i, ...).

    The differentiation slot is prepended after the leading axes of ``conn``,
    so the order grows by one.
    """
    lam = conn.mats
    lead = lam.ndim - 3
    order = t.comps.ndim - 1 - lead
    slots = _SLOTS[:order]
    out = np.einsum(f"...alm,...{slots}m->...a{slots}l", lam, t.comps)
    # lam_t[..., a * 3 + i, m] = lam[..., a, m, i]
    lam_t = np.swapaxes(lam, -1, -2).reshape(lam.shape[:lead] + (9, 3))
    for slot in range(order):
        # term[a, i1..ik, l] = sum_m T[i1..m..ik, l] * lam[a, m, i_slot]
        # one GEMM per item, with the factors np.tensordot would form
        moved = np.moveaxis(t.comps, lead + slot, lead)  # (m, rest..., l)
        hit = lam_t @ moved.reshape(moved.shape[:lead] + (3, -1))
        hit = hit.reshape(lam.shape[:lead] + (3,) + moved.shape[lead:])  # (a, i_slot, rest..., l)
        out = out - np.moveaxis(hit, lead + 1, lead + slot + 1)
    return CovTensor(comps=out)


def curvature_derivatives(conn: ConnectionOperator, alg: LieAlgebra3) -> list[CovTensor]:
    """[R, nabla R, nabla^2 R]: the curvature data the Singer conditions need."""
    tensors = [curvature(conn, alg)]
    for _ in range(2):
        tensors.append(covariant_derivative(tensors[-1], conn))
    return tensors


def metric_compatibility_defect(conn: ConnectionOperator, g: InnerProduct) -> float:
    """Max norm of L(e_i)^T G + G L(e_i); zero for a metric connection."""
    gram = g.coeffs
    vals = [np.max(np.abs(m.T @ gram + gram @ m)) for m in conn.mats]
    return float(max(vals))


def torsion_defect(conn: ConnectionOperator, alg: LieAlgebra3) -> float:
    """Max norm of L(e_i) e_j - L(e_j) e_i - [e_i, e_j]."""
    cols = conn.mats.transpose(0, 2, 1)  # cols[i, j, :] = L(e_i) e_j
    t = cols - cols.transpose(1, 0, 2) - alg.structure
    return float(np.max(np.abs(t)))


def first_bianchi_defect(curv: CovTensor) -> float:
    c = curv.comps
    cyc = c + c.transpose(1, 2, 0, 3) + c.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(cyc)))


def second_bianchi_defect(nabla_r: CovTensor) -> float:
    """Max norm of the cyclic sum of nabla R over its first three slots."""
    d = nabla_r.comps  # d[a, i, j, k, l]
    cyc = d + d.transpose(1, 2, 0, 3, 4) + d.transpose(2, 0, 1, 3, 4)
    return float(np.max(np.abs(cyc)))
