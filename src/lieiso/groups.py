"""Coordinate models of the groups: products, frames and numeric oracles.

Each group is R^2 x| R with product (v, t) (w, s) = (v + phi(t) w, t + s),
where phi is the one-parameter group generated by the 2x2 block
M = d phi / dt |_0 (the transpose of the adjoint block):

* family I:  phi(t) = e^t Id
* family c:  M = [[0, -c], [1, 2]]; writing N = M - Id and c1^2 = |1 - c|,
    c < 1:  phi(t) = e^t (cosh(c1 t) Id + sinh(c1 t) N / c1)
    c = 1:  phi(t) = e^t (Id + t N)
    c > 1:  phi(t) = e^t (cos(c1 t) Id + sin(c1 t) N / c1)

The three branches are the same analytic function of (1 - c) t^2; they are
split so each is evaluated in real arithmetic without cancellation.

Left translation by (v, t) is affine with constant linear part
blockdiag(phi(t), 1), so the left-invariant frame at p = (x0, x1, x2) is
blockdiag(phi(x2), 1) and the right-invariant frame is [[Id, M xv], [0, 1]].

The finite-difference routines below are deliberately independent of the
algebraic engine: they differentiate the coordinate metric field and serve
as numeric oracles for the structure-constant computations.  First
derivatives of metric fields, frames and vector fields take the step
FD_STEP.  The curvature is a difference of Christoffel symbols that are
themselves differences; both nested stencils take the coarser
FD_STEP_CURVATURE, since their rounding error grows as the step shrinks.
Frames and metric fields take stacks of points (..., 3), and each stencil
is evaluated as one stack: the point and its twelve neighbours.  phi runs
once per distinct x2 with the scalar ``math`` functions, since vectorised
ones round differently, so every result equals a point-by-point
evaluation bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import FAMILY_C, FAMILY_CUSTOM, FAMILY_I, LieAlgebra3
from .metrics import InnerProduct
from .errors import UnsupportedFamilyError


def generator_block(alg: LieAlgebra3) -> np.ndarray:
    """d phi / dt at t = 0, a 2x2 matrix."""
    if alg.family == FAMILY_CUSTOM:
        raise UnsupportedFamilyError("the coordinate model requires family I or c")
    return alg.adjoint_block().T


def phi(alg: LieAlgebra3, t: float) -> np.ndarray:
    """The 2x2 block phi(t) acting on the normal R^2 factor."""
    t = float(t)
    if alg.family == FAMILY_I:
        return math.exp(t) * np.eye(2)
    if alg.family != FAMILY_C:
        raise UnsupportedFamilyError("the coordinate model requires family I or c")
    c = float(alg.c)
    n = np.array([[-1.0, -c], [1.0, 1.0]])  # M - Id, squares to (1 - c) Id
    if c < 1.0:
        c1 = math.sqrt(1.0 - c)
        core = math.cosh(c1 * t) * np.eye(2) + (math.sinh(c1 * t) / c1) * n
    elif c == 1.0:
        core = np.eye(2) + t * n
    else:
        c1 = math.sqrt(c - 1.0)
        core = math.cos(c1 * t) * np.eye(2) + (math.sin(c1 * t) / c1) * n
    return math.exp(t) * core


def left_frame(alg: LieAlgebra3, p: np.ndarray) -> np.ndarray:
    """Columns are the left-invariant frame fields e_0, e_1, e_2 at p.

    ``p`` is one point (3,) or a stack (..., 3); the frames have shape
    (..., 3, 3).  phi runs once per distinct x2 of the stack.
    """
    p = np.asarray(p, float)
    t = p[..., 2]
    values, where = np.unique(t, return_inverse=True)
    frame = np.broadcast_to(np.eye(3), p.shape[:-1] + (3, 3)).copy()
    frame[..., :2, :2] = np.array([phi(alg, v) for v in values])[where.reshape(t.shape)]
    return frame


def right_frame(alg: LieAlgebra3, p: np.ndarray) -> np.ndarray:
    """Columns are the right-invariant frame fields r_0, r_1, r_2 at p (3,) or (..., 3)."""
    p = np.asarray(p, float)
    frame = np.broadcast_to(np.eye(3), p.shape[:-1] + (3, 3)).copy()
    frame[..., :2, 2] = p[..., :2] @ generator_block(alg).T
    return frame


def right_invariant_field(alg: LieAlgebra3, v: np.ndarray):
    """The field r(p) v, mapping points (..., 3) to vectors (..., 3)."""
    v = np.asarray(v, float)
    return lambda p: right_frame(alg, p) @ v


def metric_field(alg: LieAlgebra3, g: InnerProduct, p: np.ndarray) -> np.ndarray:
    """Coordinate components of the left-invariant metric at p (3,) or (..., 3)."""
    e_inv = np.linalg.inv(left_frame(alg, p))
    return np.swapaxes(e_inv, -1, -2) @ g.coeffs @ e_inv


# ---------------------------------------------------------------------------
# finite differences (a fourth-order central stencil)

#: Step of the first derivatives of metric fields, frames and vector fields.
FD_STEP = 1e-4
#: Step of both stencils behind the curvature (metric -> Christoffels -> R).
FD_STEP_CURVATURE = 1e-3

_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_WEIGHTS = (1.0, -8.0, 8.0, -1.0)  # /(12 h)


def _value_and_gradient(f, p: np.ndarray, h: float):
    """f at the points p (..., 3) and its derivatives d_a f, from one call of f.

    f maps a stack of points (..., 3) to a stack of values (..., *shape).  It
    is called once, on p and the twelve stencil points p + offset h e_axis of
    each point.  Returns f(p), shape (..., *shape), and the derivatives,
    shape (3, ..., *shape), summed term by term in stencil order.
    """
    points = np.empty((13,) + p.shape)
    points[:] = p
    shift = (_OFFSETS * h).reshape((4,) + (1,) * (p.ndim - 1))
    for axis in range(3):
        points[1 + 4 * axis : 5 + 4 * axis, ..., axis] += shift
    values = f(points)
    terms = values[1:].reshape((3, 4) + values.shape[1:])
    w0, w1, w2, w3 = _WEIGHTS
    grad = (w0 * terms[:, 0] + w1 * terms[:, 1] + w2 * terms[:, 2] + w3 * terms[:, 3]) / (12.0 * h)
    return values[0], grad


def christoffels(alg: LieAlgebra3, g: InnerProduct, p: np.ndarray, h: float) -> np.ndarray:
    """Coordinate Christoffel symbols Gamma^k_{ij} at p (..., 3), by differencing the metric."""
    gp, dg = _value_and_gradient(lambda q: metric_field(alg, g, q), np.asarray(p, float), h)
    dg = np.moveaxis(dg, 0, -3)
    ginv = np.linalg.inv(gp)
    # dg[..., a, i, j] = d_a g_{ij};  Gamma^k_{ij} = 1/2 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij})
    lowered = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, lowered)


def numeric_curvature(alg: LieAlgebra3, g: InnerProduct, p: np.ndarray) -> np.ndarray:
    """Coordinate curvature tensor at p, comps[i, j, k, l] for R(d_i, d_j) d_k.

    Built purely from finite differences of the coordinate metric field; used
    as an oracle against the structure-constant curvature.  The Christoffels
    at p and at its twelve stencil points come from one stacked call.
    """
    h = FD_STEP_CURVATURE
    gamma, dgamma = _value_and_gradient(lambda q: christoffels(alg, g, q, h), np.asarray(p, float), h)
    # R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}
    # with gamma[k, i, j] = Gamma^k_{ij} and dgamma[a, l, i, j] = d_a Gamma^l_{ij}.
    d_term = np.einsum("iljk->ijkl", dgamma)
    quad = np.einsum("lim,mjk->ijkl", gamma, gamma)
    return d_term - d_term.transpose(1, 0, 2, 3) + quad - quad.transpose(1, 0, 2, 3)


def numeric_ricci(alg: LieAlgebra3, g: InnerProduct, p: np.ndarray) -> np.ndarray:
    comps = numeric_curvature(alg, g, p)
    return np.einsum("ijki->jk", comps)


def numeric_ricci_frame(alg: LieAlgebra3, g: InnerProduct, p: np.ndarray) -> np.ndarray:
    """Numeric Ricci at p in the left-invariant frame.

    By left-invariance this is independent of p and must reproduce the
    structure-constant Ricci computed at the identity.
    """
    frame = left_frame(alg, np.asarray(p, float))
    return frame.T @ numeric_ricci(alg, g, p) @ frame


def killing_residual(alg: LieAlgebra3, g: InnerProduct, field, p: np.ndarray) -> float:
    """Max norm of the Lie derivative (L_X g)_{ij} at p for a vector field X.

    (L_X g)_{ij} = X^m d_m g_{ij} + g_{mj} d_i X^m + g_{im} d_j X^m,
    all derivatives taken by central differences of the coordinate data.
    ``field`` maps a stack of points (..., 3) to vectors (..., 3).
    """
    h = FD_STEP
    p = np.asarray(p, float)
    gp, dg = _value_and_gradient(lambda q: metric_field(alg, g, q), p, h)
    xp, dx = _value_and_gradient(field, p, h)  # dx[a, m] = d_a X^m
    lie = np.einsum("m,mij->ij", xp, dg)
    lie += np.einsum("mj,im->ij", gp, dx)
    lie += np.einsum("im,jm->ij", gp, dx)
    return float(np.max(np.abs(lie)))


def bracket_field_residual(alg: LieAlgebra3, p: np.ndarray) -> float:
    """Check the left frame brackets against the structure constants at p.

    Computes [e_i, e_j] as coordinate vector fields by finite differences and
    compares with c^k_{ij} e_k(p).  Returns the max norm of the difference.
    """
    h = FD_STEP
    frame_p, dframe = _value_and_gradient(lambda q: left_frame(alg, q), np.asarray(p, float), h)
    # dX[j, a, m] = d_a (e_j)^m, contiguous: the products below round
    # differently on a strided view
    dX = np.ascontiguousarray(dframe.transpose(2, 0, 1))
    worst = 0.0
    for i in range(3):
        for j in range(3):
            lie = frame_p[:, i] @ dX[j] - frame_p[:, j] @ dX[i]
            expected = frame_p @ alg.structure[i, j]
            worst = max(worst, float(np.max(np.abs(lie - expected))))
    return worst
