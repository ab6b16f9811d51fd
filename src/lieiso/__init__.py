"""Isometry groups and indices of symmetry of a two-parameter family of
3-dimensional solvable Lie groups with left-invariant metrics.

The family consists of the non-unimodular solvable groups whose defining
2x2 block has trace 2: a single exceptional group (family ``I``) and a
one-parameter pencil indexed by the block determinant ``c`` (family ``c``).
For each group the package builds the catalog of left-invariant metrics up
to isometric automorphism, computes their curvature, classifies the full
isometry group, and computes the index of symmetry, entirely from structure
constants (with finite-difference cross-checks on the group model).
"""

from .algebra import (
    FAMILY_C,
    FAMILY_CUSTOM,
    FAMILY_I,
    LieAlgebra3,
    custom_algebra,
    make_algebra_c,
    make_algebra_I,
)
from .curvature import (
    constant_sectional,
    covariant_derivative,
    curvature,
    curvature_derivatives,
    levi_civita,
    ricci,
    scalar_curvature,
    sectional_curvature,
    so_action,
)
from .errors import (
    DegenerateFormError,
    InternalConsistencyError,
    LieIsoError,
    NonPositiveDefiniteError,
    RangeError,
    UnsupportedFamilyError,
)
from .isometry import (
    IsometryDescriptor,
    IsometryGroupTag,
    KillingAlgebra,
    KillingGenerator,
    MetricAnalysis,
    analyze_metrics,
    classify_isometry_group,
    killing_algebra,
    killing_bracket,
    killing_form,
    singer_isotropy,
)
from .metrics import (
    METRIC_GRAM,
    METRIC_LAMBDA_NU,
    METRIC_MU_NU,
    METRIC_NU,
    InnerProduct,
    inner_product_from_gram,
    metric_from_table,
    snap_parameters,
)
from .reports import build_report, render_text, stratification_rows, to_json
from .symmetry import (
    ModuliScanResult,
    SymmetryReport,
    index_of_symmetry,
    scan_moduli,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILY_C",
    "FAMILY_CUSTOM",
    "FAMILY_I",
    "METRIC_GRAM",
    "METRIC_LAMBDA_NU",
    "METRIC_MU_NU",
    "METRIC_NU",
    "DegenerateFormError",
    "InnerProduct",
    "InternalConsistencyError",
    "IsometryDescriptor",
    "IsometryGroupTag",
    "KillingAlgebra",
    "KillingGenerator",
    "LieAlgebra3",
    "LieIsoError",
    "MetricAnalysis",
    "ModuliScanResult",
    "NonPositiveDefiniteError",
    "RangeError",
    "SymmetryReport",
    "UnsupportedFamilyError",
    "analyze_metrics",
    "build_report",
    "classify_isometry_group",
    "constant_sectional",
    "covariant_derivative",
    "curvature",
    "curvature_derivatives",
    "custom_algebra",
    "index_of_symmetry",
    "inner_product_from_gram",
    "killing_algebra",
    "killing_bracket",
    "killing_form",
    "levi_civita",
    "make_algebra_I",
    "make_algebra_c",
    "metric_from_table",
    "render_text",
    "ricci",
    "scalar_curvature",
    "scan_moduli",
    "sectional_curvature",
    "singer_isotropy",
    "snap_parameters",
    "so_action",
    "stratification_rows",
    "to_json",
    "__version__",
]
