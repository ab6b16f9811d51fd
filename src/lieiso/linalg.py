"""Dense linear-algebra helpers: rank/kernel decisions and canonical bases.

Rank decisions apply the one relative cutoff ``RANK_TOL``.  A classify
report makes one through :func:`rank_and_kernel`, on the Gram matrix when
its metric is built (``metrics.check_spd``); the index of symmetry counts
singular values of one 3x3 matrix at ``RANK_TOL`` times its norm, and the
Ricci stabilizer is read off the eigenvalue multiplicities with no rank
decision (``metrics.ricci_clusters``).  :func:`canonical_matrix_basis`
reduces only the isotropy basis the Singer residual test keeps.
"""

from __future__ import annotations

import numpy as np

# Coordinate scan order used to canonicalize bases of 3x3 matrix subspaces:
# lower triangle first, then the diagonal, then the upper triangle.  For
# metric-skew subspaces this pivots on the lower-triangle entries, which is
# the parameterization the closed-form data is written in.
MATRIX_PIVOT_ORDER = [(1, 0), (2, 0), (2, 1), (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
_FLAT_PIVOTS = [3 * i + j for i, j in MATRIX_PIVOT_ORDER]

#: A singular value counts as zero below RANK_TOL times the scale of its matrix.
#: Rank jumps are where the classification switches strata, so this cutoff
#: decides borderline cases.
RANK_TOL = 1e-9
#: Entries below PIVOT_TOL * max(1, max|entry|) are not taken as pivots.
PIVOT_TOL = 1e-12


def rank_and_kernel(m: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank of ``m`` and an orthonormal basis of its (right) null space.

    Returns ``(rank, kernel)`` where ``kernel`` has one row per null vector.
    The cutoff is relative: singular values below ``RANK_TOL * max|m|`` are
    treated as zero.  A zero matrix has rank 0 and full kernel.

    A matrix with at least as many rows as columns gets the thin SVD, whose
    square ``vt`` already spans the whole null space; a wide one the full
    SVD, because its thin ``vt`` would drop null vectors.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    ncols = m.shape[1]
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if scale <= 0.0:
        return 0, np.eye(ncols)
    _, s, vt = np.linalg.svd(m, full_matrices=m.shape[0] < ncols)
    rank = int(np.sum(s > RANK_TOL * scale))
    return rank, vt[rank:]


def canonical_matrix_basis(mats: np.ndarray) -> np.ndarray:
    """Reduce a spanning set of 3x3 matrices to a canonical (RREF-like) basis.

    Pivot columns are scanned in MATRIX_PIVOT_ORDER and each basis matrix is
    scaled so its pivot entry is 1 with zeros at the other pivots.  The result
    is deterministic for a given span, which keeps reported generators stable.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.size == 0:
        return np.zeros((0, 3, 3))
    rows = mats.reshape(len(mats), 9).copy()
    scale = max(float(np.max(np.abs(rows))), 1.0)
    pivots: list[tuple[int, int]] = []  # (column, row index) in discovery order
    used = np.zeros(len(rows), dtype=bool)
    for col in _FLAT_PIVOTS:
        best, best_val = -1, PIVOT_TOL * scale
        for i in range(len(rows)):
            if not used[i] and abs(rows[i, col]) > best_val:
                best, best_val = i, abs(rows[i, col])
        if best < 0:
            continue
        used[best] = True
        pivot_row = rows[best] / rows[best, col]
        for i in range(len(rows)):
            if i != best:
                rows[i] = rows[i] - rows[i, col] * pivot_row
        pivots.append((col, best))
    if not pivots:
        return np.zeros((0, 3, 3))
    # the working rows keep being eliminated by later pivots, so normalizing
    # them only now yields a fully reduced (input-independent) basis
    return np.array([(rows[i] / rows[i, col]).reshape(3, 3) for col, i in pivots])
