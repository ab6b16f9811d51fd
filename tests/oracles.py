"""Group-model helpers that only the tests use.

The group product and inverse in coordinates, left-invariant vector fields,
the finite-difference sectional curvature, the closed form of the
0 < c < 1 catalog Gram matrix, and the six-plane sectional-curvature probe
that is the reference for the constant-curvature decision of
``lieiso.isometry.classify_isometry_group``.  They check ``lieiso.groups``,
``lieiso.metrics`` and ``lieiso.isometry`` from outside; nothing in the
package calls them.

Sectional curvature: K(x, y) = <R(x,y) y, x> / (|x|^2 |y|^2 - <x,y>^2).
"""

import numpy as np

from lieiso.groups import left_frame, metric_field, numeric_curvature, phi


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
