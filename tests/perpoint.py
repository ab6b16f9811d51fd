"""Per-point reference forms of the stacked analysis kernels.

These are the one-metric-at-a-time kernels the stacked ones replaced,
kept verbatim as the bit-for-bit reference for ``tests/test_stacked.py``:
the ``tensordot`` covariant derivative, the per-basis so(3) action loop,
the per-point so(g) and Ricci stabilizer, the per-point Singer residual
test, the per-point Ricci spectrum and its cluster decisions, the
per-point analysis and the per-point index of symmetry.
"""

import numpy as np

from lieiso.errors import InternalConsistencyError
from lieiso.isometry import PARALLEL_TOL, MetricAnalysis, _normalize_isotropy
from lieiso.linalg import PIVOT_TOL, RANK_TOL, canonical_matrix_basis
from lieiso.metrics import SO3_BASIS, ricci_clusters
from lieiso.symmetry import CERTIFICATE_TOL, SymmetryReport


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


def skew_algebra(linv, gram):
    frame = linv.T
    inverse = frame.T @ gram
    return np.stack([(frame @ e) @ inverse for e in SO3_BASIS])


def intersect_skew(algebra, evals, evecs):
    multiplicity, simple, _ = ricci_clusters(evals)
    if multiplicity == 3:
        return algebra
    if multiplicity == 2:
        return np.tensordot(evecs[:, simple], algebra, axes=1)[None]
    return np.zeros((0, 3, 3))


def singer_isotropy(g, linv, evals, evecs, tensors):
    space = intersect_skew(skew_algebra(linv, g.coeffs), evals, evecs)
    if len(space) == 0:
        return np.zeros((0, 3, 3))
    blocks = [
        np.stack([so_action(basis_mat, t).ravel() for basis_mat in space], axis=1)
        for t in tensors
    ]
    scale = max(float(np.max(np.abs(t))) for t in tensors) * float(np.max(np.abs(space)))
    if np.linalg.norm(np.vstack(blocks).T, 2) > RANK_TOL * scale:
        return np.zeros((0, 3, 3))
    return _normalize_isotropy(canonical_matrix_basis(space))


def ricci_frame(g, ric):
    """L^-1 of G = L L^T, and Ric in the g-orthonormal frame L^-T."""
    l = np.linalg.cholesky(g.coeffs)
    linv = np.linalg.inv(l)
    sym = linv @ ric @ linv.T
    return linv, 0.5 * (sym + sym.T)


def analyze_metric(alg, g):
    conn = levi_civita(alg, g)
    curv = curvature(conn, alg)
    nabla_r = covariant_derivative(curv, conn)
    ric = ricci(curv)
    linv, sym = ricci_frame(g, ric)
    evals, evecs = np.linalg.eigh(sym)
    multiplicity, simple, _ = ricci_clusters(evals)
    return MetricAnalysis(
        alg=alg,
        g=g,
        frame=linv.T,
        conn=conn,
        curv=curv,
        nabla_r=nabla_r,
        ric=ric,
        ricci_eigenvalues=evals,
        ricci_axes=linv.T @ evecs,
        scalar=float(np.trace(np.linalg.solve(g.coeffs, ric))),
        symmetric=float(np.max(np.abs(nabla_r))) <= PARALLEL_TOL * max(1.0, float(np.max(np.abs(curv)))),
        constant_curvature=bool(multiplicity == 3),
        ricci_simple=int(simple) if multiplicity == 2 else None,
        isotropy=singer_isotropy(g, linv, evals, evecs, (curv, nabla_r)),
    )


def index_of_symmetry(a):
    frame, k = a.frame, len(a.isotropy)
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
        generator = v / v[np.argmax(np.abs(v) > PIVOT_TOL * np.max(np.abs(v)))]
        generator[np.abs(generator) < PIVOT_TOL] = 0.0
    return SymmetryReport(index=index, generator=generator, certificate_residual=residual)
