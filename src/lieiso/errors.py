"""Exception types shared by the public API.

A Gram matrix is validated once, when its metric is built
(``linalg.check_spd``, reached through ``metrics.InnerProduct``): a matrix
that is not finite, not symmetric or not positive definite raises
NonPositiveDefiniteError, and one that is singular at the rank cutoff
``linalg.RANK_TOL`` raises DegenerateFormError.  Nothing after construction
makes a rank decision on the Gram matrix again.
"""

from __future__ import annotations


class LieIsoError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(LieIsoError):
    """A metric parameter falls outside its catalog range."""


class NonPositiveDefiniteError(LieIsoError):
    """A Gram matrix is not symmetric positive definite."""


class DegenerateFormError(LieIsoError):
    """A Gram matrix is singular at the rank cutoff; the message gives its rank."""


class UnsupportedFamilyError(LieIsoError):
    """An operation needs a catalog family (I or c) but got a custom algebra."""


class InternalConsistencyError(LieIsoError):
    """A structural invariant failed (e.g. a symmetry index of 2)."""
