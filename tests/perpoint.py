"""Per-point reference forms of the stacked analysis kernels.

These are the one-metric-at-a-time kernels the stacked ones replaced,
kept verbatim as the bit-for-bit reference for ``tests/test_stacked.py``:
the ``tensordot`` covariant derivative, the per-basis so(3) action loop,
the per-form skew-algebra solve and the per-point analysis.
"""

import numpy as np

from lieiso.isometry import MetricAnalysis, _normalize_isotropy
from lieiso.linalg import canonical_matrix_basis, rank_and_kernel
from lieiso.metrics import intersect_skew


def levi_civita(alg, g):
    s = alg.structure
    gram = g.coeffs
    b1 = np.einsum("ijk,kl->ijl", s, gram)
    b2 = np.einsum("jlk,ki->ijl", s, gram)
    b3 = np.einsum("lik,kj->ijl", s, gram)
    rhs = 0.5 * (b1 - b2 + b3)
    mats = np.empty((3, 3, 3))
    for i in range(3):
        mats[i] = np.linalg.solve(gram, rhs[i].T)
    return mats


def curvature(conn, alg):
    comm = np.einsum("iab,jbc->ijac", conn, conn)
    comm = comm - comm.transpose(1, 0, 2, 3)
    lam_bracket = np.einsum("ijm,mac->ijac", alg.structure, conn)
    end = comm - lam_bracket
    return end.transpose(0, 1, 3, 2)


def ricci(curv):
    return np.einsum("ijki->jk", curv)


def so_action(a, t):
    a = np.asarray(a, float)
    out = -np.einsum("lm,...m->...l", a, t)
    for slot in range(t.ndim - 1):
        hit = np.tensordot(t, a, axes=([slot], [0]))
        out += np.moveaxis(hit, -1, slot)
    return out


def covariant_derivative(t, conn):
    out = np.einsum("alm,...m->a...l", conn, t)
    for slot in range(t.ndim - 1):
        hit = np.tensordot(conn, t, axes=([1], [slot]))
        out = out - np.moveaxis(hit, 1, slot + 1)
    return out


def _skew_operator(s):
    eye = np.eye(3)
    return (np.einsum("kj,li->ijkl", s, eye) + np.einsum("ik,lj->ijkl", s, eye)).reshape(9, 9)


def skew_algebra(form):
    s = np.asarray(form, dtype=float)
    s = 0.5 * (s + s.T)
    _, kernel = rank_and_kernel(_skew_operator(s))
    return canonical_matrix_basis(kernel.reshape(-1, 3, 3))


def singer_isotropy(g, tensors, ric):
    space = skew_algebra(g.coeffs)
    ric_stab = skew_algebra(ric)
    space = intersect_skew(space, ric_stab)
    if len(space) == 0:
        return np.zeros((0, 3, 3))
    blocks = [
        np.stack([so_action(basis_mat, t).ravel() for basis_mat in space], axis=1)
        for t in tensors
    ]
    scale = max(float(np.max(np.abs(t))) for t in tensors) * float(np.max(np.abs(space)))
    _, kernel = rank_and_kernel(np.vstack(blocks), scale=scale)
    if len(kernel) == 0:
        return np.zeros((0, 3, 3))
    mats = np.einsum("ks,sij->kij", kernel, space)
    return _normalize_isotropy(canonical_matrix_basis(mats))


def right_invariant_b(alg, conn, v):
    v = np.asarray(v, float)
    cols = [conn[j] @ v - alg.bracket(np.eye(3)[j], v) for j in range(3)]
    return np.column_stack(cols)


def analyze_metric(alg, g):
    conn = levi_civita(alg, g)
    curv = curvature(conn, alg)
    nabla_r = covariant_derivative(curv, conn)
    nabla2_r = covariant_derivative(nabla_r, conn)
    ric = ricci(curv)
    return MetricAnalysis(
        alg=alg,
        g=g,
        conn=conn,
        curv=curv,
        nabla_r=nabla_r,
        ric=ric,
        symmetric=float(np.max(np.abs(nabla_r))) <= 1e-9 * max(1.0, float(np.max(np.abs(curv)))),
        isotropy=singer_isotropy(g, (curv, nabla_r, nabla2_r), ric),
        right_b=np.stack([right_invariant_b(alg, conn, e) for e in np.eye(3)]),
    )
