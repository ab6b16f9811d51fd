"""Group-model helpers that only the tests use.

The group product and inverse in coordinates, left-invariant vector fields,
the finite-difference sectional curvature and the closed form of the
0 < c < 1 catalog Gram matrix.  They check ``lieiso.groups`` and
``lieiso.metrics`` from outside; nothing in the package calls them.
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
