"""The two numerical tolerances a user can set."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RangeError


@dataclass(frozen=True)
class EngineSettings:
    """Knobs controlling rank decisions and case snapping.

    tol_rank is a *relative* SVD cutoff, finite with 0 < tol_rank < 1: a
    singular value counts as zero when it falls below
    ``tol_rank * max(|entries|)`` of the matrix under test.  Rank jumps are
    exactly where the classification switches strata, so this is the one knob
    that decides borderline cases.

    tol_case is the absolute distance, finite with tol_case >= 0, at which a
    metric parameter is snapped onto a stratum boundary (e.g. mu onto c for
    c > 1).  Values outside these ranges raise RangeError.
    """

    tol_rank: float = 1e-9
    tol_case: float = 1e-7

    def __post_init__(self):
        if not (math.isfinite(self.tol_rank) and 0.0 < self.tol_rank < 1.0):
            raise RangeError(f"tol_rank={self.tol_rank} must be finite with 0 < tol_rank < 1")
        if not (math.isfinite(self.tol_case) and self.tol_case >= 0.0):
            raise RangeError(f"tol_case={self.tol_case} must be finite with tol_case >= 0")


DEFAULT = EngineSettings()
