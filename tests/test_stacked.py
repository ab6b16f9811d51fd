"""The stacked analysis equals the per-point analysis, bit for bit.

``perpoint`` holds the one-metric-at-a-time kernels as the reference.  Every
field of every MetricAnalysis is compared with ``np.array_equal`` and with
equal sign bits, so that a zero of the other sign counts as a difference.
"""

import numpy as np
import pytest

import perpoint
from lieiso.algebra import FAMILY_C, FAMILY_I, make_algebra_c, make_algebra_I
from lieiso.cli import DEFAULT_GROUPS
from lieiso.curvature import covariant_derivative, curvature, levi_civita, so_action
from lieiso.errors import DegenerateFormError, RangeError
from lieiso.isometry import analyze_metrics
from lieiso.metrics import metric_from_table
from lieiso.symmetry import analyze_catalog_points, scan_moduli

GROUPS = DEFAULT_GROUPS + [(FAMILY_C, -0.7), (FAMILY_C, 0.81), (FAMILY_C, 5.5)]
FIELDS = ("conn", "curv", "nabla_r", "ric", "symmetric", "isotropy", "right_b")


def _scan_metrics(family, c):
    alg = make_algebra_I() if family == FAMILY_I else make_algebra_c(c)
    points = scan_moduli(family, c, grid_mu=12).points
    return alg, [metric_from_table(alg, **pt.params) for pt in points]


def assert_bits_equal(got, want, label):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, label
    assert np.array_equal(got, want), label
    assert np.array_equal(np.signbit(got), np.signbit(want)), f"{label}: sign of zero"


def assert_same_analysis(got, want, label):
    assert got.alg is want.alg and got.g is want.g, label
    for name in FIELDS:
        assert_bits_equal(getattr(got, name), getattr(want, name), f"{label} {name}")


@pytest.mark.parametrize("family,c", GROUPS)
def test_stack_equals_per_point_analysis(family, c):
    alg, gs = _scan_metrics(family, c)
    stacked = analyze_metrics(alg, gs)
    assert len(stacked) == len(gs)
    for n, (g, got) in enumerate(zip(gs, stacked)):
        want = perpoint.analyze_metric(alg, g)
        assert_same_analysis(got, want, f"{family} c={c} point {n}")
        assert_same_analysis(analyze_metrics(alg, [g])[0], want, f"{family} c={c} point {n} alone")


@pytest.mark.parametrize("family,c", GROUPS)
def test_stacked_tensor_kernels_equal_the_tensordot_forms(family, c):
    alg, gs = _scan_metrics(family, c)
    conn = levi_civita(alg, np.stack([g.coeffs for g in gs]))
    stack = [curvature(conn, alg)]
    stack += [covariant_derivative(stack[-1], conn)]
    stack += [covariant_derivative(stack[-1], conn)]
    rng = np.random.default_rng(7)
    a = rng.normal(size=(len(gs), 3, 3))
    for n, g in enumerate(gs):
        one = perpoint.levi_civita(alg, g)
        want = [perpoint.curvature(one, alg)]
        want += [perpoint.covariant_derivative(want[-1], one)]
        want += [perpoint.covariant_derivative(want[-1], one)]
        for order, (t, w) in enumerate(zip(stack, want)):
            assert_bits_equal(t[n], w, f"point {n} derivative {order}")
            acted = so_action(a, t)
            assert_bits_equal(acted[n], perpoint.so_action(a[n], w), f"point {n} action {order}")


def test_catalog_points_fail_in_point_order():
    # point 1 cannot be analysed (a degenerate Gram matrix at RANK_TOL) and
    # point 2 cannot be built; the point before them still comes first
    c = 1.0001
    alg = make_algebra_c(c)
    special = (np.sqrt(c) - 1.0) ** 2 + 1.0
    params = [{"mu": 1.00005, "nu": 1.0}, {"mu": special, "nu": 2.0}, {"mu": 9.0, "nu": 1.0}]
    with pytest.raises(DegenerateFormError):
        analyze_metrics(alg, [metric_from_table(alg, **params[1])])
    points = iter(analyze_catalog_points(alg, params))
    g, analysis = next(points)
    assert g.params == params[0] and analysis.g is g
    assert_same_analysis(analysis, perpoint.analyze_metric(alg, g), "first point")
    with pytest.raises(DegenerateFormError, match="rank 2"):
        next(points)
    points = iter(analyze_catalog_points(alg, params[::2]))
    next(points)
    with pytest.raises(RangeError, match="mu=9.0"):
        next(points)
