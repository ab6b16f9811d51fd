"""Numerical tolerances and step sizes used across the engine."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineSettings:
    """Knobs controlling rank decisions, case snapping and finite differences.

    tol_rank is a *relative* SVD cutoff: a singular value counts as zero when
    it falls below ``tol_rank * max(|entries|)`` of the matrix under test.
    Rank jumps are exactly where the classification switches strata, so this
    is the one knob that decides borderline cases.

    tol_case is the absolute distance at which a metric parameter is snapped
    onto a stratum boundary (e.g. mu onto c for c > 1).
    """

    tol_rank: float = 1e-9
    tol_case: float = 1e-7
    fd_step: float = 1e-4
    fd_step_curvature: float = 1e-3


DEFAULT = EngineSettings()
