"""Per-point reference forms of the stacked analysis kernels.

These are the one-metric-at-a-time kernels the stacked ones replaced,
kept verbatim as the bit-for-bit reference for ``tests/test_stacked.py``:
the ``tensordot`` covariant derivative, the per-basis so(3) action loop,
the per-form skew-algebra solve and the per-point analysis.
"""

import numpy as np

from lieiso.curvature import ConnectionOperator, CovTensor
from lieiso.errors import DegenerateFormError
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
    return ConnectionOperator(mats=mats)


def curvature(conn, alg):
    lam = conn.mats
    comm = np.einsum("iab,jbc->ijac", lam, lam)
    comm = comm - comm.transpose(1, 0, 2, 3)
    lam_bracket = np.einsum("ijm,mac->ijac", alg.structure, lam)
    end = comm - lam_bracket
    return CovTensor(comps=end.transpose(0, 1, 3, 2))


def ricci(curv):
    return np.einsum("ijki->jk", curv.comps)


def so_action(a, t):
    a = np.asarray(a, float)
    comps = -np.einsum("lm,...m->...l", a, t.comps)
    for slot in range(t.order):
        hit = np.tensordot(t.comps, a, axes=([slot], [0]))
        comps += np.moveaxis(hit, -1, slot)
    return CovTensor(comps=comps)


def covariant_derivative(t, conn):
    lam = conn.mats
    out = np.einsum("alm,...m->a...l", lam, t.comps)
    for slot in range(t.order):
        hit = np.tensordot(lam, t.comps, axes=([1], [slot]))
        out = out - np.moveaxis(hit, 1, slot + 1)
    return CovTensor(comps=out)


def _skew_operator(s):
    eye = np.eye(3)
    return (np.einsum("kj,li->ijkl", s, eye) + np.einsum("ik,lj->ijkl", s, eye)).reshape(9, 9)


def skew_algebra(form, *, allow_degenerate=False):
    s = np.asarray(form, dtype=float)
    s = 0.5 * (s + s.T)
    rank, _ = rank_and_kernel(s)
    if rank < 3 and not allow_degenerate:
        raise DegenerateFormError(f"symmetric form is degenerate (rank {rank})", rank=rank)
    _, kernel = rank_and_kernel(_skew_operator(s))
    return canonical_matrix_basis(kernel.reshape(-1, 3, 3))


def singer_isotropy(g, tensors, ric):
    space = skew_algebra(g.coeffs)
    ric_stab = skew_algebra(ric, allow_degenerate=True)
    space = intersect_skew(space, ric_stab)
    if len(space) == 0:
        return np.zeros((0, 3, 3))
    blocks = [
        np.stack([so_action(basis_mat, t).comps.ravel() for basis_mat in space], axis=1)
        for t in tensors
    ]
    scale = max(float(np.max(np.abs(t.comps))) for t in tensors) * float(np.max(np.abs(space)))
    _, kernel = rank_and_kernel(np.vstack(blocks), scale=scale)
    if len(kernel) == 0:
        return np.zeros((0, 3, 3))
    mats = np.einsum("ks,sij->kij", kernel, space)
    return _normalize_isotropy(canonical_matrix_basis(mats))


def right_invariant_b(alg, conn, v):
    v = np.asarray(v, float)
    cols = [conn.mats[j] @ v - alg.bracket(np.eye(3)[j], v) for j in range(3)]
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
        nabla2_r=nabla2_r,
        ric=ric,
        symmetric=nabla_r.norm() <= 1e-9 * max(1.0, curv.norm()),
        isotropy=singer_isotropy(g, (curv, nabla_r, nabla2_r), ric),
        right_b=np.stack([right_invariant_b(alg, conn, e) for e in np.eye(3)]),
    )
