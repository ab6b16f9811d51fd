"""Seeded inputs for the benchmark workloads, kept apart from the program.

Every input is a catalog point (family, c, metric parameters) together with
the stratum it was drawn from and the classification the paper gives for that
stratum.  The program only ever sees the point; the expected values are the
benchmark's own and serve as its correctness gate.

Parameters are drawn well inside each stratum and away from the branch points
c -> 0 and c -> 1: this benchmark measures speed, and a point that fails to
classify would turn a timing into a failure count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TRANSLATIONS = "TranslationsOnly"
PRODUCT_SO2 = "Product_SO2"
E1_X_SO21 = "E1_x_SO21"
SO31 = "SO31"

#: stratum key -> (isometry group tag, index of symmetry, metric, constraint),
#: per the paper's tables; the constraint is spelled as ``lieiso table`` prints
#: it, and within each regime the strata are in table order.
STRATA = {
    "I:g_nu": (SO31, 3, "g_nu", "nu > 0"),
    "c<0:mu<|c|": (TRANSLATIONS, 0, "g_mu_nu", "0 < mu < |c|"),
    "c<0:mu=|c|": (TRANSLATIONS, 1, "g_mu_nu", "mu = |c|"),
    "c=0:g_mu_nu": (PRODUCT_SO2, 1, "g_mu_nu", "mu > 0"),
    "c=0:g_nu": (E1_X_SO21, 3, "g_nu", "nu > 0"),
    "0<c<1:mu=0": (TRANSLATIONS, 1, "g_mu_nu", "mu = 0"),
    "0<c<1:mu generic": (TRANSLATIONS, 0, "g_mu_nu", "0 < mu < 1, mu != sqrt(c)"),
    "0<c<1:mu=sqrt(c)": (TRANSLATIONS, 1, "g_mu_nu", "mu = sqrt(c)"),
    "c=1:mu<1": (TRANSLATIONS, 0, "g_mu_nu", "0 < mu < 1"),
    "c=1:mu=1": (TRANSLATIONS, 1, "g_mu_nu", "mu = 1"),
    "c=1:g_lambda_nu": (TRANSLATIONS, 0, "g_lambda_nu", "0 < lam < 1"),
    "c>1:mu generic": (TRANSLATIONS, 0, "g_mu_nu", "1 < mu < c, mu != (sqrt(c)-1)^2+1"),
    "c>1:mu special": (TRANSLATIONS, 1, "g_mu_nu", "mu = (sqrt(c)-1)^2+1"),
    "c>1:mu=c": (SO31, 3, "g_mu_nu", "mu = c"),
}


def regime(family: str, c: float | None) -> str:
    """The stratum-key prefix of a group: I, c<0, c=0, 0<c<1, c=1 or c>1."""
    if family == "I":
        return "I"
    if c < 0.0:
        return "c<0"
    if c == 0.0:
        return "c=0"
    if c < 1.0:
        return "0<c<1"
    return "c=1" if c == 1.0 else "c>1"


def table_strata(family: str, c: float | None) -> list[str]:
    """The stratum keys of one group, in the order ``lieiso table`` lists them."""
    prefix = regime(family, c) + ":"
    return [key for key in STRATA if key.startswith(prefix)]


#: Strata whose isotropy algebra is trivial: the Ricci prefilter leaves no
#: Singer search space, so the large constraint SVD never runs.
TRANSLATION_STRATA = [key for key, row in STRATA.items() if row[0] == TRANSLATIONS]
#: Strata with isotropy of dimension 1 or 3: every report solves the Singer system.
ISOTROPIC_STRATA = [key for key, row in STRATA.items() if row[0] != TRANSLATIONS]


@dataclass(frozen=True)
class Point:
    """One catalog metric and the classification expected for its stratum."""

    stratum: str
    family: str
    c: float | None
    mu: float | None = None
    nu: float | None = None
    lam: float | None = None

    @property
    def expected(self) -> tuple[str, int]:
        """(isometry group tag, index of symmetry) of the point's stratum."""
        return STRATA[self.stratum][:2]

    def kwargs(self) -> dict[str, float]:
        """Keyword arguments for ``metric_from_table``."""
        out = {"nu": self.nu}
        if self.mu is not None:
            out["mu"] = self.mu
        if self.lam is not None:
            out["lam"] = self.lam
        return out

    def cli_args(self) -> list[str]:
        """The same point as ``lieiso classify`` arguments."""
        args = ["--family", self.family]
        if self.c is not None:
            args += ["--c", repr(self.c)]
        if self.mu is not None:
            args += ["--mu", repr(self.mu)]
        if self.lam is not None:
            args += ["--lambda", repr(self.lam)]
        return args + ["--nu", repr(self.nu)]


def _away_from(rng: random.Random, lo: float, hi: float, avoid: float, gap: float) -> float:
    while True:
        x = rng.uniform(lo, hi)
        if abs(x - avoid) > gap:
            return x


def draw_point(rng: random.Random, stratum: str) -> Point:
    """A point drawn from the interior of ``stratum`` (or on its defining line)."""
    nu = math.exp(rng.uniform(math.log(0.4), math.log(2.5)))
    if stratum == "I:g_nu":
        return Point(stratum, "I", None, nu=nu)
    if stratum.startswith("c<0"):
        c = rng.uniform(-4.0, -0.5)
        mu = abs(c) if stratum == "c<0:mu=|c|" else abs(c) * rng.uniform(0.2, 0.85)
        return Point(stratum, "c", c, mu=mu, nu=nu)
    if stratum == "c=0:g_mu_nu":
        return Point(stratum, "c", 0.0, mu=math.exp(rng.uniform(math.log(0.3), math.log(3.0))), nu=nu)
    if stratum == "c=0:g_nu":
        return Point(stratum, "c", 0.0, nu=nu)
    if stratum.startswith("0<c<1"):
        c = rng.uniform(0.15, 0.85)
        if stratum == "0<c<1:mu=0":
            mu = 0.0
        elif stratum == "0<c<1:mu=sqrt(c)":
            mu = math.sqrt(c)
        else:
            mu = _away_from(rng, 0.05, 0.95, math.sqrt(c), 0.05)
        return Point(stratum, "c", c, mu=mu, nu=nu)
    if stratum == "c=1:mu<1":
        return Point(stratum, "c", 1.0, mu=rng.uniform(0.2, 0.9), nu=nu)
    if stratum == "c=1:mu=1":
        return Point(stratum, "c", 1.0, mu=1.0, nu=nu)
    if stratum == "c=1:g_lambda_nu":
        return Point(stratum, "c", 1.0, lam=rng.uniform(0.1, 0.9), nu=nu)
    c = rng.uniform(1.5, 6.0)
    special = (math.sqrt(c) - 1.0) ** 2 + 1.0
    if stratum == "c>1:mu=c":
        mu = c
    elif stratum == "c>1:mu special":
        mu = special
    else:
        t = _away_from(rng, 0.05, 0.95, (special - 1.0) / (c - 1.0), 0.05)
        mu = 1.0 + t * (c - 1.0)
    return Point(stratum, "c", c, mu=mu, nu=nu)


def stratified_points(seed: int, strata: list[str], per_stratum: int) -> list[Point]:
    """``per_stratum`` points from each stratum, in a seeded order.

    Every seed gives the same number of points per stratum, so the work in a
    pass is the same mix for every seed and only the parameter values move.
    """
    rng = random.Random(seed)
    points = [draw_point(rng, s) for s in strata for _ in range(per_stratum)]
    rng.shuffle(points)
    return points


def atlas_groups(seed: int) -> list[tuple[str, float | None]]:
    """The six groups of the atlas: one per regime of c, plus family I.

    c = 0 and c = 1 are single groups; the seed picks c inside each open
    regime (c < 0, 0 < c < 1, c > 1).
    """
    rng = random.Random(seed)
    return [
        ("I", None),
        ("c", rng.uniform(-4.0, -0.5)),
        ("c", 0.0),
        ("c", rng.uniform(0.15, 0.85)),
        ("c", 1.0),
        ("c", rng.uniform(1.5, 6.0)),
    ]


def verify_seeds(seed: int, count: int) -> list[int]:
    """Seeds handed to ``lieiso verify`` for its own random draws."""
    rng = random.Random(seed)
    return [rng.randrange(1_000_000) for _ in range(count)]
