"""Three-dimensional Lie algebras presented by structure constants.

This package works with the non-unimodular 3-dimensional Lie algebras that
carry a basis (e0, e1, e2) in which e0, e1 commute and ad(e2) acts on
span(e0, e1) with trace 2.  Two families cover all of them up to isomorphism:

* family ``I``:  [e2, e0] = e0,  [e2, e1] = e1
* family ``c``:  [e2, e0] = e1,  [e2, e1] = -c e0 + 2 e1   (one real c)

For family c the determinant ``c`` of the 2x2 adjoint block is a complete
isomorphism invariant.  Custom structure constants are accepted for the
curvature machinery but not for the classification routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, RangeError, UnsupportedFamilyError

FAMILY_I = "I"
FAMILY_C = "c"
FAMILY_CUSTOM = "custom"

#: Relative size of the antisymmetry and Jacobi defects a custom algebra may
#: have, and of the ad-traces of a unimodular one.
STRUCTURE_TOL = 1e-12


@dataclass(frozen=True)
class LieAlgebra3:
    """A 3-dimensional Lie algebra in a fixed basis.

    ``structure[i, j, k]`` is the e_k coefficient of [e_i, e_j].
    """

    structure: np.ndarray
    family: str
    c: float | None = None

    def __post_init__(self):
        s = np.asarray(self.structure, dtype=float)
        if s.shape != (3, 3, 3):
            raise ValueError(f"structure constants must be 3x3x3, got {s.shape}")
        s.flags.writeable = False
        object.__setattr__(self, "structure", s)

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[x, y] by bilinear expansion of the structure constants."""
        return np.einsum("ijk,i,j->k", self.structure, np.asarray(x, float), np.asarray(y, float))

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x) = [x, .] acting on column vectors."""
        return np.einsum("ijk,i->kj", self.structure, np.asarray(x, float))

    def jacobi_defect(self) -> float:
        """Max norm of the cyclic sum [[x,y],z] + [[y,z],x] + [[z,x],y] on basis triples."""
        d = np.einsum("ijm,mkl->ijkl", self.structure, self.structure)
        cyc = d + d.transpose(1, 2, 0, 3) + d.transpose(2, 0, 1, 3)
        return float(np.max(np.abs(cyc)))

    def is_unimodular(self) -> bool:
        traces = np.einsum("ijj->i", self.structure)
        return bool(np.max(np.abs(traces)) <= STRUCTURE_TOL)

    def adjoint_block(self) -> np.ndarray:
        """Transpose of ad(e2) restricted to span(e0, e1), as a 2x2 matrix.

        For family I this is the identity; for family c it is [[0, 1], [-c, 2]].
        """
        if self.family == FAMILY_CUSTOM:
            raise UnsupportedFamilyError("adjoint block is only defined for families I and c")
        s = self.structure
        return np.array([[s[2, 0, 0], s[2, 0, 1]], [s[2, 1, 0], s[2, 1, 1]]])


def _antisymmetrized(pairs: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    s = np.zeros((3, 3, 3))
    for (i, j), v in pairs.items():
        s[i, j] = v
        s[j, i] = -np.asarray(v)
    return s


def make_algebra_I() -> LieAlgebra3:
    """[e2, e0] = e0 and [e2, e1] = e1; e0, e1 commute."""
    s = _antisymmetrized({(2, 0): np.array([1.0, 0.0, 0.0]), (2, 1): np.array([0.0, 1.0, 0.0])})
    return LieAlgebra3(structure=s, family=FAMILY_I)


def make_algebra_c(c: float) -> LieAlgebra3:
    """[e2, e0] = e1 and [e2, e1] = -c e0 + 2 e1; e0, e1 commute."""
    c = float(c)
    if not math.isfinite(c):
        raise RangeError(f"c={c} is not a finite number")
    s = _antisymmetrized({(2, 0): np.array([0.0, 1.0, 0.0]), (2, 1): np.array([-c, 2.0, 0.0])})
    return LieAlgebra3(structure=s, family=FAMILY_C, c=c)


def custom_algebra(structure: np.ndarray) -> LieAlgebra3:
    """Wrap arbitrary structure constants, validating the Lie axioms."""
    s = np.asarray(structure, dtype=float)
    alg = LieAlgebra3(structure=0.5 * (s - s.transpose(1, 0, 2)), family=FAMILY_CUSTOM)
    anti = float(np.max(np.abs(s + s.transpose(1, 0, 2))))
    if anti > STRUCTURE_TOL * max(1.0, float(np.max(np.abs(s)))):
        raise InternalConsistencyError(f"structure constants are not antisymmetric (defect {anti:g})")
    defect = alg.jacobi_defect()
    if defect > STRUCTURE_TOL * max(1.0, float(np.max(np.abs(s))) ** 2):
        raise InternalConsistencyError(f"Jacobi identity fails (defect {defect:g})")
    return alg
