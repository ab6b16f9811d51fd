"""Dense linear-algebra helpers: rank/kernel decisions and canonical bases.

Every rank decision in the package funnels through :func:`rank_and_kernel`,
which applies the one relative cutoff ``RANK_TOL``.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFormError, NonPositiveDefiniteError

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
#: Largest asymmetry |G - G^T| a Gram matrix may have, relative to max(1, max|G|).
SYMMETRY_TOL = 1e-10


def rank_and_kernel(m: np.ndarray, *, scale: float | None = None) -> tuple[int, np.ndarray]:
    """Rank of ``m`` and an orthonormal basis of its (right) null space.

    Returns ``(rank, kernel)`` where ``kernel`` has one row per null vector.
    The cutoff is relative: singular values below ``RANK_TOL * scale`` are
    treated as zero, where ``scale`` defaults to ``max|m|``.  Callers solving
    a residual system (where the whole matrix may be numerically zero) must
    pass the natural scale of the data the matrix was built from; otherwise
    rounding noise is mistaken for full rank.  A matrix at scale zero has
    rank 0 and full kernel.

    The SVD is thin when ``m`` has at least as many rows as columns: ``vt``
    is then square and already spans the whole null space, and the large
    ``U`` of a tall matrix (such as the stacked Singer constraints) is never
    built.  A wide matrix gets the full SVD, because its thin ``vt`` would
    drop null vectors.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    ncols = m.shape[1]
    if scale is None:
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


def check_spd(gram: np.ndarray) -> np.ndarray:
    """Validate a symmetric positive-definite Gram matrix.

    The entries must be finite.  Symmetry is checked relative to the
    magnitude of the entries; positive definiteness through the leading
    principal minors.  Raises NonPositiveDefiniteError otherwise.  A matrix
    that passes but is singular at ``RANK_TOL`` raises DegenerateFormError.
    Returns the symmetrized matrix.
    """
    g = np.asarray(gram, dtype=float)
    if g.shape != (3, 3):
        raise NonPositiveDefiniteError(f"Gram matrix must be 3x3, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise NonPositiveDefiniteError("Gram matrix has non-finite entries")
    scale = max(float(np.max(np.abs(g))), 1.0)
    if np.max(np.abs(g - g.T)) > SYMMETRY_TOL * scale:
        raise NonPositiveDefiniteError("Gram matrix is not symmetric")
    g = 0.5 * (g + g.T)
    for k in range(1, 4):
        if np.linalg.det(g[:k, :k]) <= 0.0:
            raise NonPositiveDefiniteError(
                f"Gram matrix is not positive definite (leading {k}x{k} minor <= 0)"
            )
    rank, _ = rank_and_kernel(g)
    if rank < 3:
        raise DegenerateFormError(f"symmetric form is degenerate (rank {rank})")
    return g
