"""The catalog of left-invariant inner products, and metric-skew algebras.

Every left-invariant metric on the groups handled here is isometric, via an
automorphism, to one of a short catalog of Gram matrices in the (e0, e1, e2)
basis.  ``metric_from_table`` builds those Gram matrices and validates the
parameter ranges; arbitrary SPD Gram matrices can be wrapped with
``inner_product_from_gram`` and flow through the generic machinery.
``stratum_table`` gives the strata of each group: their boundary lines (the
snap targets), keys and singular locus.

Catalog (nu > 0 throughout):

* family I:            g_nu      = diag(1, 1, nu)
* family c, c < 0:     g_mu_nu   = diag(1, mu, nu),             0 < mu <= |c|
* family c, c = 0:     g_mu_nu   = diag(1, mu, nu),             mu > 0
                       g_nu      = [[1, 1/2, 0], [1/2, 1, 0], [0, 0, nu]]
* family c, 0 < c < 1: g_mu_nu   = P^T diag-block(1, mu; nu) P, 0 <= mu < 1
* family c, c = 1:     g_mu_nu   = diag(1, mu, nu),             0 < mu <= 1
                       g_lam_nu  = [[1, lam, 0], [lam, 1, 0], [0, 0, nu]],
                       0 <= lam < 1 (lam = 0 coincides with g_mu_nu at mu = 1)
* family c, c > 1:     g_mu_nu   = [[1, 1, 0], [1, mu, 0], [0, 0, nu]],
                       1 < mu <= c
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import FAMILY_C, FAMILY_I, LieAlgebra3
from .errors import RangeError, UnsupportedFamilyError
from .linalg import canonical_matrix_basis, check_spd, rank_and_kernel

METRIC_NU = "g_nu"
METRIC_MU_NU = "g_mu_nu"
METRIC_LAMBDA_NU = "g_lambda_nu"
METRIC_GRAM = "gram"

#: A parameter closer than TOL_CASE to a stratum boundary (but not on it) is
#: snapped onto the boundary.
TOL_CASE = 1e-7


@dataclass(frozen=True)
class InnerProduct:
    """An inner product on the algebra, as a Gram matrix in the e-basis."""

    coeffs: np.ndarray
    name: str
    params: dict[str, float] = field(default_factory=dict)
    boundary_snapped: bool = False

    def __post_init__(self):
        g = check_spd(self.coeffs)
        g.flags.writeable = False
        object.__setattr__(self, "coeffs", g)

    def pairing(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.asarray(x, float) @ self.coeffs @ np.asarray(y, float))

    def norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(self.pairing(x, x), 0.0))


def inner_product_from_gram(gram: np.ndarray) -> InnerProduct:
    return InnerProduct(coeffs=np.asarray(gram, dtype=float), name=METRIC_GRAM)


def canonical_frame_change(c: float) -> np.ndarray:
    """Basis change expressing the canonical 0 < c < 1 inner products in the e-frame.

    Only defined for 0 < c < 1 (the square root below must be real and nonzero).
    """
    if not 0.0 < c < 1.0:
        raise RangeError(f"frame change only defined for 0 < c < 1, got c={c}")
    s = math.sqrt(1.0 - c)
    return np.array(
        [
            [-(1.0 + s) / (2.0 * c * s), -1.0 / (2.0 * s), 0.0],
            [(1.0 - s) / (2.0 * c * s), 1.0 / (2.0 * s), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


# Named tuples, not frozen dataclasses: every snap builds a table, and they
# are built three times faster.
class StratumSpec(NamedTuple):
    """One stratum of a group's moduli space: one row of ``lieiso table``.

    ``boundary`` is the value of mu on a line mu = const, None otherwise;
    ``samples`` holds the sheet parameter at the three sample points of an
    open stratum.
    """

    key: str
    metric_name: str
    constraint: str
    boundary: float | None = None
    singular: bool = False
    samples: tuple[float, ...] = ()

    def sample_params(self) -> tuple[dict[str, float], ...]:
        """The three sample points of the stratum, at nu = 0.5, 1 and 2."""
        param = SHEET_PARAMETER.get(self.metric_name)
        values = self.samples or (self.boundary,) * 3
        return tuple({param: v, "nu": nu} if param else {"nu": nu} for v, nu in zip(values, (0.5, 1.0, 2.0)))


#: The parameter that moves along each catalog sheet besides nu.
SHEET_PARAMETER = {METRIC_MU_NU: "mu", METRIC_LAMBDA_NU: "lam"}


class StratumTable(NamedTuple):
    """The strata of one group in ``lieiso table`` order, and its scan data.

    ``equality_asserted``: the maximal-index set is asserted to coincide with
    the singular locus.  ``scan_mu(n)``: the base mu grid of a scan.
    """

    c: float | None
    strata: tuple[StratumSpec, ...]
    equality_asserted: bool
    scan_mu: Callable[[int], Sequence[float]] | None = None

    def lines(self) -> list[float]:
        """Values of mu on the boundary lines, singular lines first."""
        lines = [s for s in self.strata if s.boundary is not None]
        return [s.boundary for s in sorted(lines, key=lambda s: not s.singular)]

    def locate(self, g: InnerProduct) -> StratumSpec | None:
        """The stratum of a catalog metric (None for any other metric).

        Snapping puts a metric on a line exactly onto its boundary value, so
        lines are matched by equality.
        """
        value = g.params.get(SHEET_PARAMETER.get(g.name))
        sheet = [s for s in self.strata if s.metric_name == g.name]
        on_line = [s for s in sheet if s.boundary is not None and s.boundary == value]
        return next(iter(on_line or [s for s in sheet if s.boundary is None]), None)


def stratum_table(family: str, c: float | None) -> StratumTable:
    """The stratification of one group's moduli space.

    The singular locus is the line mu = |c| (c < 0), the sheet g_nu (c = 0),
    the line mu = 0 (0 < c < 1), the line mu = 1 where the second sheet glues
    on at lam = 0 (c = 1) or the line mu = c (c > 1); family I has none.
    """
    if family == FAMILY_I:
        return StratumTable(None, (StratumSpec("I:g_nu", METRIC_NU, "nu > 0"),), False)
    if family != FAMILY_C or c is None:
        raise UnsupportedFamilyError("strata are defined for families I and c")
    c = float(c)
    equality = True
    if c < 0.0:
        strata = (
            StratumSpec("c<0:mu<|c|", METRIC_MU_NU, "0 < mu < |c|",
                        samples=tuple(abs(c) * t for t in (0.25, 0.55, 0.85))),
            StratumSpec("c<0:mu=|c|", METRIC_MU_NU, "mu = |c|", abs(c), True),
        )
        scan_mu = lambda n: np.linspace(abs(c) / n, abs(c), n)
    elif c == 0.0:
        strata = (
            StratumSpec("c=0:g_mu_nu", METRIC_MU_NU, "mu > 0", samples=(0.5, 1.0, 2.0)),
            StratumSpec("c=0:g_nu", METRIC_NU, "nu > 0", singular=True),
        )
        scan_mu = lambda n: np.geomspace(0.4, 2.5, n)
    elif c < 1.0:
        root = math.sqrt(c)
        strata = (
            StratumSpec("0<c<1:mu=0", METRIC_MU_NU, "mu = 0", 0.0, True),
            StratumSpec("0<c<1:mu generic", METRIC_MU_NU, "0 < mu < 1, mu != sqrt(c)",
                        samples=tuple(m for m in np.linspace(0.1, 0.9, 4) if abs(m - root) > 1e-3)[:3]),
            StratumSpec("0<c<1:mu=sqrt(c)", METRIC_MU_NU, "mu = sqrt(c)", root),
        )
        scan_mu = lambda n: np.linspace(0.0, 0.95, n)
        equality = False
    elif c == 1.0:
        strata = (
            StratumSpec("c=1:mu<1", METRIC_MU_NU, "0 < mu < 1", samples=(0.3, 0.55, 0.8)),
            StratumSpec("c=1:mu=1", METRIC_MU_NU, "mu = 1", 1.0, True),
            StratumSpec("c=1:g_lambda_nu", METRIC_LAMBDA_NU, "0 < lam < 1",
                        samples=(0.2, 0.5, 0.8)),
        )
        scan_mu = lambda n: np.linspace(1.0 / n, 1.0, n)
    else:
        special = (math.sqrt(c) - 1.0) ** 2 + 1.0
        # the samples keep clear of the special line; near c = 1 the gap
        # shrinks with the range (1, c], which would otherwise hold none
        gap = min(1e-3, 0.01 * (c - 1.0))
        strata = (
            StratumSpec("c>1:mu generic", METRIC_MU_NU, "1 < mu < c, mu != (sqrt(c)-1)^2+1",
                        samples=tuple(m for m in np.linspace(1.0 + 0.1 * (c - 1.0), 1.0 + 0.9 * (c - 1.0), 4)
                                      if abs(m - special) > gap)[:3]),
            StratumSpec("c>1:mu special", METRIC_MU_NU, "mu = (sqrt(c)-1)^2+1", special),
            StratumSpec("c>1:mu=c", METRIC_MU_NU, "mu = c", c, True),
        )
        scan_mu = lambda n: np.linspace(1.0 + (c - 1.0) / n, c, n)
    return StratumTable(c, strata, equality, scan_mu)


def _snap(value: float, targets: list[float]) -> tuple[float, bool]:
    for t in targets:
        if value != t and abs(value - t) < TOL_CASE:
            return t, True
    return value, False


def snap_parameters(alg: LieAlgebra3, name: str, params: dict[str, float]) -> tuple[dict[str, float], bool]:
    """Snap metric parameters onto nearby stratum boundaries.

    Classification strata are cut out by exact parameter coincidences
    (mu = |c|, mu = sqrt(c), mu = c, ...).  Parameters within ``TOL_CASE`` of
    such a value are replaced by it, and the second return value records
    whether anything moved.  The boundary lines of ``stratum_table`` are
    tried singular line first; lam snaps onto 0, where the second c = 1
    sheet glues onto the line mu = 1.
    """
    param = SHEET_PARAMETER.get(name)
    if alg.family != FAMILY_C or param not in params:
        return dict(params), False
    targets = [0.0] if name == METRIC_LAMBDA_NU else stratum_table(FAMILY_C, alg.c).lines()
    out = dict(params)
    out[param], snapped = _snap(float(params[param]), targets)
    return out, snapped


def metric_from_table(
    alg: LieAlgebra3,
    *,
    mu: float | None = None,
    nu: float | None = None,
    lam: float | None = None,
) -> InnerProduct:
    """Build a catalog inner product for ``alg`` from its parameters.

    Exactly one parameter signature is accepted per family (see the module
    docstring).  Out-of-range parameters raise RangeError naming the violated
    constraint; parameters within ``TOL_CASE`` of a stratum boundary are
    snapped onto it first and the result is flagged as boundary-snapped.
    """
    if alg.family not in (FAMILY_I, FAMILY_C):
        raise UnsupportedFamilyError("catalog metrics are only defined for families I and c")
    if nu is None:
        raise RangeError("every catalog metric requires nu")
    for name, value in (("mu", mu), ("nu", nu), ("lam", lam)):
        if value is not None and not math.isfinite(value):
            raise RangeError(f"{name}={value} is not a finite number")
    nu = float(nu)
    if not nu > 0.0:
        raise RangeError(f"nu={nu} violates the catalog constraint nu > 0")

    if alg.family == FAMILY_I:
        if mu is not None or lam is not None:
            raise RangeError("family I admits only the one-parameter metric g_nu")
        return InnerProduct(np.diag([1.0, 1.0, nu]), METRIC_NU, {"nu": nu})

    c = float(alg.c)
    if mu is not None and lam is not None:
        raise RangeError("give either mu or lam, not both")

    if lam is not None:
        if c != 1.0:
            raise RangeError("the two-parameter metric g_lambda_nu exists only at c = 1")
        params, snapped = snap_parameters(alg, METRIC_LAMBDA_NU, {"lam": float(lam), "nu": nu})
        lam = params["lam"]
        if not 0.0 <= lam < 1.0:
            raise RangeError(f"lam={lam} violates the catalog constraint 0 <= lam < 1")
        if lam == 0.0:
            # Glued to the diagonal sheet: g'_{0,nu} is literally g_{1,nu}.
            return InnerProduct(np.diag([1.0, 1.0, nu]), METRIC_MU_NU, {"mu": 1.0, "nu": nu}, snapped)
        g = np.array([[1.0, lam, 0.0], [lam, 1.0, 0.0], [0.0, 0.0, nu]])
        return InnerProduct(g, METRIC_LAMBDA_NU, {"lam": lam, "nu": nu}, snapped)

    if mu is None:
        if c == 0.0:
            g = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, nu]])
            return InnerProduct(g, METRIC_NU, {"nu": nu})
        raise RangeError("the one-parameter metric g_nu exists only at c = 0 (or for family I)")

    params, snapped = snap_parameters(alg, METRIC_MU_NU, {"mu": float(mu), "nu": nu})
    mu = params["mu"]
    if c < 0.0:
        if not 0.0 < mu <= abs(c):
            raise RangeError(f"mu={mu} violates the catalog constraint 0 < mu <= |c| = {abs(c)} for c < 0")
        g = np.diag([1.0, mu, nu])
    elif c == 0.0:
        if not mu > 0.0:
            raise RangeError(f"mu={mu} violates the catalog constraint mu > 0 for c = 0")
        g = np.diag([1.0, mu, nu])
    elif c < 1.0:
        if not 0.0 <= mu < 1.0:
            raise RangeError(f"mu={mu} violates the catalog constraint 0 <= mu < 1 for 0 < c < 1")
        p = canonical_frame_change(c)
        core = np.array([[1.0, mu, 0.0], [mu, 1.0, 0.0], [0.0, 0.0, nu]])
        g = p.T @ core @ p
    elif c == 1.0:
        if not 0.0 < mu <= 1.0:
            raise RangeError(f"mu={mu} violates the catalog constraint 0 < mu <= 1 for c = 1")
        g = np.diag([1.0, mu, nu])
    else:
        if not 1.0 < mu <= c:
            raise RangeError(f"mu={mu} violates the catalog constraint 1 < mu <= c = {c} for c > 1")
        g = np.array([[1.0, 1.0, 0.0], [1.0, mu, 0.0], [0.0, 0.0, nu]])
    return InnerProduct(g, METRIC_MU_NU, {"mu": mu, "nu": nu}, snapped)


def _skew_operator(s: np.ndarray) -> np.ndarray:
    """vec(M^T S + S M) as a 9x9 linear operator on vec(M), row-major, per form of a stack.

    (M^T S)_ij = sum_k M_ki S_kj and (S M)_ij = sum_k S_ik M_kj.
    """
    eye = np.eye(3)
    op = np.einsum("...kj,li->...ijkl", s, eye) + np.einsum("...ik,lj->...ijkl", s, eye)
    return op.reshape(s.shape[:-2] + (9, 9))


def skew_algebra(forms: np.ndarray) -> list[np.ndarray]:
    """Solve M^T S + S M = 0 for each symmetric form S of a stack (n, 3, 3).

    Returns one canonical basis (k, 3, 3) per form.  The solution space of a
    nondegenerate S is 3-dimensional; a degenerate S (a Ricci form, say) has
    a larger stabilizer, returned with whatever dimension it has.  Gram
    matrices are checked for degeneracy when their metric is built, so no
    rank of S is decided here.
    """
    s = np.asarray(forms, dtype=float)
    s = 0.5 * (s + np.swapaxes(s, -1, -2))
    bases = []
    for op in _skew_operator(s):
        _, kernel = rank_and_kernel(op)
        bases.append(canonical_matrix_basis(kernel.reshape(-1, 3, 3)))
    return bases


def intersect_skew(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of the spans of two stacks (k, 3, 3) of matrices, canonically re-based."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros((0, 3, 3))
    stacked = np.hstack([a.reshape(len(a), 9).T, -b.reshape(len(b), 9).T])
    _, kernel = rank_and_kernel(stacked)
    if len(kernel) == 0:
        return np.zeros((0, 3, 3))
    combos = kernel[:, : len(a)] @ a.reshape(len(a), 9)
    return canonical_matrix_basis(combos.reshape(-1, 3, 3))
