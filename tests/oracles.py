"""Group-model helpers that only the tests use.

The group product and inverse in coordinates, left-invariant vector fields,
the finite-difference sectional curvature, the closed form of the
0 < c < 1 catalog Gram matrix, the six-plane sectional-curvature probe
that is the reference for the constant-curvature decision of
``lieiso.isometry.classify_isometry_group``, and the e-frame Singer search
space (so(g) and the Ricci stabilizer each solved as a 9x9 operator, then
intersected) with the Singer solve on it, the reference for
``lieiso.metrics.skew_algebra`` and ``intersect_skew``, the 9x3 rank
decision on the commutators in the g-orthonormal frame, the reference for
the stabilizer dimension that ``intersect_skew`` reads off the Ricci
spectrum, and the pairwise Killing bracket, the reference for the batched
brackets of ``lieiso.isometry.killing_algebra``.  The curvature jets
[R, nabla R, nabla^2 R] check that the Singer filtration stops at nabla R,
and the 9x(3+k) e-frame index of symmetry is the reference for the 3x3
frame decision of ``lieiso.symmetry.index_of_symmetry``.  They check
``lieiso.groups``, ``lieiso.metrics``, ``lieiso.isometry`` and
``lieiso.symmetry`` from outside; nothing in the package calls them.

Sectional curvature: K(x, y) = <R(x,y) y, x> / (|x|^2 |y|^2 - <x,y>^2).
"""

import numpy as np

from lieiso.curvature import covariant_derivative, curvature, so_action
from lieiso.groups import left_frame, metric_field, numeric_curvature, phi
from lieiso.isometry import _normalize_isotropy
from lieiso.linalg import PIVOT_TOL, RANK_TOL, canonical_matrix_basis, rank_and_kernel
from lieiso.metrics import SO3_BASIS


def multiply(alg, p, q):
    """Group product in coordinates (x0, x1, x2)."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    out = np.empty(3)
    out[:2] = p[:2] + phi(alg, p[2]) @ q[:2]
    out[2] = p[2] + q[2]
    return out


def inverse(alg, p):
    p = np.asarray(p, float)
    out = np.empty(3)
    out[:2] = -(phi(alg, -p[2]) @ p[:2])
    out[2] = -p[2]
    return out


def left_invariant_field(alg, v):
    """The field e(p) v, mapping points (..., 3) to vectors (..., 3)."""
    v = np.asarray(v, float)
    return lambda p: left_frame(alg, p) @ v


def numeric_sectional(alg, g, p, x, y):
    comps = numeric_curvature(alg, g, p)
    gp = metric_field(alg, g, p)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    rxyy = np.einsum("ijkl,i,j,k->l", comps, x, y, y)
    num = float(x @ gp @ rxyy)
    den = float((x @ gp @ x) * (y @ gp @ y) - (x @ gp @ y) ** 2)
    return num / den


def mid_c_gram_closed_form(c, mu, nu):
    """Closed form of the 0 < c < 1 Gram matrix (used as an independent check)."""
    g00 = (c * mu + c - 2.0) / (2.0 * (c - 1.0) * c * c)
    g01 = (mu - 1.0) / (2.0 * (c - 1.0) * c)
    g11 = (mu - 1.0) / (2.0 * (c - 1.0))
    return np.array([[g00, g01, 0.0], [g01, g11, 0.0], [0.0, 0.0, nu]])


def sectional_curvature(curv, g, x, y):
    """Sectional curvature of the plane spanned by x, y (must be independent)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    rxyy = np.einsum("ijkl,i,j,k->l", curv, x, y, y)
    gram = g.coeffs
    num = float(x @ gram @ rxyy)
    den = float((x @ gram @ x) * (y @ gram @ y) - (x @ gram @ y) ** 2)
    if den <= 0.0:
        raise ValueError("sectional curvature needs two linearly independent vectors")
    return num / den


#: Largest spread of the probed sectional curvatures, relative to
#: 1 + max|K|, for which the curvature counts as constant.
SECTIONAL_TOL = 1e-9

# Planes probed when deciding whether the curvature is constant: the three
# coordinate planes plus a few slanted ones.
PROBE_PLANES = [
    (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
    (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    (np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])),
    (np.array([1.0, -1.0, 2.0]), np.array([2.0, 1.0, -1.0])),
    (np.array([1.0, 2.0, -1.0]), np.array([-1.0, 1.0, 1.0])),
]


def constant_sectional(curv, g):
    """The common sectional curvature if it is plane-independent, else None."""
    values = [sectional_curvature(curv, g, x, y) for x, y in PROBE_PLANES]
    spread = max(values) - min(values)
    if spread <= SECTIONAL_TOL * (1.0 + max(abs(v) for v in values)):
        return float(np.mean(values))
    return None


def skew_operator(s):
    """vec(M^T S + S M) as a 9x9 linear operator on vec(M), row-major, per form of a stack.

    (M^T S)_ij = sum_k M_ki S_kj and (S M)_ij = sum_k S_ik M_kj.
    """
    eye = np.eye(3)
    op = np.einsum("...kj,li->...ijkl", s, eye) + np.einsum("...ik,lj->...ijkl", s, eye)
    return op.reshape(s.shape[:-2] + (9, 9))


def skew_algebra(form):
    """Canonical basis (k, 3, 3) of the solutions of M^T S + S M = 0.

    A nondegenerate S gives a 3-dimensional space; a degenerate one (a Ricci
    form, say) a larger one.
    """
    s = np.asarray(form, dtype=float)
    s = 0.5 * (s + s.T)
    _, kernel = rank_and_kernel(skew_operator(s))
    return canonical_matrix_basis(kernel.reshape(-1, 3, 3))


def intersect_skew(a, b):
    """Intersection of the spans of two stacks (k, 3, 3) of matrices, canonically re-based."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros((0, 3, 3))
    stacked = np.hstack([a.reshape(len(a), 9).T, -b.reshape(len(b), 9).T])
    _, kernel = rank_and_kernel(stacked)
    if len(kernel) == 0:
        return np.zeros((0, 3, 3))
    combos = kernel[:, : len(a)] @ a.reshape(len(a), 9)
    return canonical_matrix_basis(combos.reshape(-1, 3, 3))


def singer_search_space(gram, ric):
    """so(g) ∩ so(Ric), each solved in the e-frame."""
    return intersect_skew(skew_algebra(gram), skew_algebra(ric))


def singer_isotropy(gram, tensors, ric):
    """The Singer solve on the e-frame search space."""
    return solve_singer(singer_search_space(gram, ric), tensors)


def kernel_at_scale(m, scale):
    """Null space (rows) of a tall matrix, at the cutoff RANK_TOL * ``scale``.

    A residual system may be rounding noise as a whole, so its cutoff is
    taken at the scale of the data it was built from, not at max|m|.
    """
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    return vt[int(np.sum(s > RANK_TOL * scale)):]


def frame_stabilizer(algebra, form):
    """The stabilizer (k, 3, 3) of a form S in so(g), by one 9x3 rank decision.

    ``algebra`` (3, 3, 3) holds the basis M_k = F E_k F^-1 of
    ``lieiso.metrics.skew_algebra`` and ``form`` S, written in the same frame
    F.  M_k fixes S when E_k commutes with it, so the kernel of the 9x3
    matrix of columns vec(S E_k - E_k S), at the scale max|S|, combines the
    M_k; its singular values are the gaps between the eigenvalues of S.
    """
    form = np.asarray(form, dtype=float)
    comm = form @ SO3_BASIS - SO3_BASIS @ form
    kernel = kernel_at_scale(comm.reshape(3, 9).T, float(np.max(np.abs(form))))
    return (kernel @ algebra.reshape(3, 9)).reshape(-1, 3, 3)


def solve_singer(space, tensors):
    """The isotropy basis within a search space (k, 3, 3), one metric at a time.

    The SVD rank-and-kernel solve of the stacked Singer system; the reference
    for the isotropy dimension that the engine's residual test decides.
    """
    if len(space) == 0:
        return np.zeros((0, 3, 3))
    blocks = [np.stack([so_action(m, t).ravel() for m in space], axis=1) for t in tensors]
    scale = max(float(np.max(np.abs(t))) for t in tensors) * float(np.max(np.abs(space)))
    kernel = kernel_at_scale(np.vstack(blocks), scale)
    if len(kernel) == 0:
        return np.zeros((0, 3, 3))
    return _normalize_isotropy(canonical_matrix_basis(np.einsum("ks,sij->kij", kernel, space)))


def killing_bracket(curv, a, b):
    """[X_a, X_b] of two Killing fields given as (value v, derivative B) pairs.

    value B_b v_a - B_a v_b, derivative R(v_a, v_b) - [B_a, B_b], with
    R(v, w) the matrix [l, k] of z -> R(v, w) z.
    """
    (va, ba), (vb, bb) = a, b
    r = np.einsum("ijkl,i,j->lk", curv, va, vb)
    return bb @ va - ba @ vb, r - (ba @ bb - bb @ ba)


def killing_structure(a):
    """Structure constants of the Killing algebra of an analysis, one pair at a time.

    Each bracket is re-expanded on the generators r0, r1, r2 (value e_i,
    derivative conn[i]) and A1..Ak (value 0, derivative isotropy[j]) by its
    value and one least-squares solve for what is left of its derivative.
    Returns (structure, worst projection residual).
    """
    iso = a.isotropy
    gens = [(np.eye(3)[i], a.conn[i]) for i in range(3)] + [(np.zeros(3), m) for m in iso]
    n = len(gens)
    structure = np.zeros((n, n, n))
    worst = 0.0
    for p in range(n):
        for q in range(p + 1, n):
            v, b = killing_bracket(a.curv, gens[p], gens[q])
            rest = (b - sum(v[i] * a.conn[i] for i in range(3))).ravel()
            coeffs = np.zeros(n)
            coeffs[:3] = v
            if len(iso):
                cols = iso.reshape(len(iso), 9).T
                coeffs[3:] = np.linalg.lstsq(cols, rest, rcond=None)[0]
                rest = cols @ coeffs[3:] - rest
            worst = max(worst, float(np.max(np.abs(rest))))
            structure[p, q] = coeffs
            structure[q, p] = -coeffs
    return structure, worst


def span_sine(a, b):
    """Sine of the largest principal angle between the spans of two stacks (k, 3, 3).

    1.0 when the dimensions differ.
    """
    a, b = np.asarray(a, float).reshape(len(a), 9), np.asarray(b, float).reshape(len(b), 9)
    if len(a) != len(b):
        return 1.0
    if len(a) == 0:
        return 0.0
    qa, _ = np.linalg.qr(a.T)
    qb, _ = np.linalg.qr(b.T)
    # the part of span(b) outside span(a); its norm is the sine, without the
    # cancellation of sqrt(1 - cos^2)
    return float(np.linalg.norm(qb - qa @ (qa.T @ qb), 2))


def curvature_jets(conn, alg):
    """[R, nabla R, nabla^2 R] of a connection, with its leading axes."""
    tensors = [curvature(conn, alg)]
    for _ in range(2):
        tensors.append(covariant_derivative(tensors[-1], conn))
    return tensors


def e_frame_index(a):
    """(index, generator) of an analysis by one SVD of the 9x(3+k) e-frame matrix.

    The columns are vec B of r0, r1, r2 (the connection endomorphisms), then
    of the isotropy generators A_j; the kernel at RANK_TOL * max|entry| gives
    the pairs (v, alpha) with B_v + sum_j alpha_j A_j = 0, and the generator
    of index 1 is its v-part divided by its first entry above PIVOT_TOL.
    """
    _, kernel = rank_and_kernel(a.killing_derivatives.reshape(-1, 9).T)
    if len(kernel) != 1:
        return len(kernel), None
    v = kernel[0][:3]
    generator = v / next(x for x in v if abs(x) > PIVOT_TOL)
    generator[np.abs(generator) < PIVOT_TOL] = 0.0
    return 1, generator
