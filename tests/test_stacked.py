"""The stacked analysis equals the per-point analysis, bit for bit.

``perpoint`` holds the one-metric-at-a-time kernels as the reference.  Every
field of every MetricAnalysis is compared with ``np.array_equal`` and with
equal sign bits, so that a zero of the other sign counts as a difference.
The constant-curvature decision read off the stacked Ricci spectrum is also
checked, on the same scan points, against the six-plane probe of ``oracles``,
the Singer search space read off the Ricci spectrum against the 9x3
rank decision in the g-orthonormal frame and the e-frame intersection
so(g) ∩ so(Ric) of ``oracles``, the isotropy against the Singer solves with
and without nabla^2 R, and the index of symmetry against the 9x(3+k)
e-frame SVD.  The index of symmetry of a stack equals, bit for bit, that
of each metric alone and the per-point reference, and a stack hands out
the points before a failed index check before raising it.
"""

import dataclasses

import numpy as np
import pytest

import perpoint
from lieiso import reports, symmetry
from lieiso.algebra import FAMILY_C, FAMILY_I, make_algebra_c, make_algebra_I
from lieiso.cli import DEFAULT_GROUPS
from lieiso.curvature import covariant_derivative, curvature, levi_civita, so_action
from lieiso.errors import DegenerateFormError, InternalConsistencyError, RangeError
from lieiso.isometry import analyze_metrics, classify_isometry_group
from lieiso.metrics import intersect_skew, metric_from_table, ricci_clusters, skew_algebra, stratum_table
from lieiso.reports import stratification_rows
from lieiso.symmetry import analyze_catalog_points, index_of_symmetry, scan_moduli
from oracles import (
    constant_sectional,
    curvature_jets,
    e_frame_index,
    frame_stabilizer,
    singer_isotropy,
    singer_search_space,
    solve_singer,
    span_sine,
)

GROUPS = DEFAULT_GROUPS + [(FAMILY_C, -0.7), (FAMILY_C, 0.81), (FAMILY_C, 5.5)]
FIELDS = ("frame", "conn", "curv", "nabla_r", "ric", "ricci_eigenvalues", "ricci_axes", "scalar",
          "symmetric", "constant_curvature", "ricci_simple", "isotropy")


def _scan_metrics(family, c):
    alg = make_algebra_I() if family == FAMILY_I else make_algebra_c(c)
    points = scan_moduli(family, c, grid_mu=12).points
    return alg, [metric_from_table(alg, **pt.params) for pt in points]


def assert_bits_equal(got, want, label):
    if got is None or want is None:
        assert got is want, label
        return
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


def assert_same_report(got, want, label):
    assert got.index == want.index, label
    assert_bits_equal(got.generator, want.generator, f"{label} generator")
    assert_bits_equal(got.certificate_residual, want.certificate_residual, f"{label} certificate")


@pytest.mark.parametrize("family,c", GROUPS)
def test_stacked_index_equals_the_stack_of_one(family, c):
    alg = make_algebra_I() if family == FAMILY_I else make_algebra_c(c)
    params = [pt.params for pt in scan_moduli(family, c, grid_mu=12).points]
    points = analyze_catalog_points(alg, params)
    assert len(points) == len(params)
    for n, (g, a, got) in enumerate(points):
        label = f"{family} c={c} point {n}"
        alone = analyze_metrics(alg, [g])[0]
        assert_same_report(got, index_of_symmetry(alone), label)
        assert_same_report(got, perpoint.index_of_symmetry(alone), f"{label} per point")


@pytest.mark.parametrize("family,c", GROUPS)
def test_ricci_spectrum_decides_constant_curvature_as_the_six_probes_do(family, c):
    alg, gs = _scan_metrics(family, c)
    for n, (g, a) in enumerate(zip(gs, analyze_metrics(alg, gs))):
        got = classify_isometry_group(a).sectional_constant
        want = constant_sectional(a.curv, g)
        assert (got is None) == (want is None), f"{family} c={c} point {n}"
        if got is not None:
            assert abs(got - want) <= 1e-15 * abs(want), f"{family} c={c} point {n}"
            assert got == a.scalar / 6.0, f"{family} c={c} point {n}"


def test_scan_points_of_the_groups():
    assert sum(len(_scan_metrics(family, c)[1]) for family, c in GROUPS) == 330


@pytest.mark.parametrize("family,c", GROUPS)
def test_search_space_agrees_with_the_e_frame_intersection(family, c):
    alg, gs = _scan_metrics(family, c)
    grams = np.stack([g.coeffs for g in gs])
    linv = np.linalg.inv(np.linalg.cholesky(grams))
    frames = np.swapaxes(linv, -1, -2)
    analyses = analyze_metrics(alg, gs)
    forms = linv @ np.stack([a.ric for a in analyses]) @ frames
    forms = 0.5 * (forms + np.swapaxes(forms, -1, -2))
    evals, evecs = np.linalg.eigh(forms)
    algebras = skew_algebra(frames, grams)
    spaces = intersect_skew(algebras, *ricci_clusters(evals)[:2], evecs)
    for n, (g, a, space) in enumerate(zip(gs, analyses, spaces)):
        label = f"{family} c={c} point {n}"
        assert len(space) == len(frame_stabilizer(algebras[n], forms[n])), label
        want = singer_search_space(g.coeffs, a.ric)
        assert len(space) == len(want), label
        assert span_sine(space, want) <= 1e-14, label
        tensors = (a.curv, a.nabla_r, perpoint.covariant_derivative(a.nabla_r, a.conn))
        assert len(a.isotropy) == len(singer_isotropy(g.coeffs, tensors, a.ric)), label


@pytest.mark.parametrize("family,c", GROUPS)
def test_singer_filtration_stops_at_nabla_r_and_the_index_equals_the_e_frame_svd(family, c):
    # g_2 = g_1: the Singer solve on (R, nabla R, nabla^2 R) and on (R, nabla R)
    # over so(g) have the engine's isotropy dimension; the frame index and
    # generator are those of the 9x(3+k) e-frame SVD
    alg, gs = _scan_metrics(family, c)
    grams = np.stack([g.coeffs for g in gs])
    tensors = curvature_jets(levi_civita(alg, grams), alg)
    analyses = analyze_metrics(alg, gs)
    algebras = skew_algebra(np.stack([a.frame for a in analyses]), grams)
    for n, a in enumerate(analyses):
        label = f"{family} c={c} point {n}"
        g2 = solve_singer(algebras[n], [t[n] for t in tensors])
        g1 = solve_singer(algebras[n], [t[n] for t in tensors[:2]])
        assert len(a.isotropy) == len(g1) == len(g2), label
        got = index_of_symmetry(a)
        index, generator = e_frame_index(a)
        assert got.index == index, label
        if generator is not None:
            np.testing.assert_allclose(got.generator, generator, rtol=0, atol=1e-12, err_msg=label)


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
    g, analysis, report = next(points)
    assert g.params == params[0] and analysis.g is g
    assert_same_analysis(analysis, perpoint.analyze_metric(alg, g), "first point")
    assert_same_report(report, perpoint.index_of_symmetry(analysis), "first point")
    with pytest.raises(DegenerateFormError, match="rank 2"):
        next(points)
    points = iter(analyze_catalog_points(alg, params[::2]))
    next(points)
    with pytest.raises(RangeError, match="mu=9.0"):
        next(points)


def _plant_parallel_curvature(monkeypatch, at):
    """Mark the analysis of point ``at`` of every stack as having parallel
    curvature, so that its index check fails there (its index is not 3)."""
    analyze = symmetry.analyze_metrics

    def planted(alg, gs):
        analyses = analyze(alg, gs)
        analyses[at] = dataclasses.replace(analyses[at], symmetric=True)
        return analyses

    monkeypatch.setattr(symmetry, "analyze_metrics", planted)


@pytest.mark.parametrize("classify_fails_at", [None, 0, 1])
def test_a_scan_classifies_the_points_before_a_failed_index_check(monkeypatch, classify_fails_at):
    # c < 0 on a 3 x 1 grid: two points of index 0, then the line mu = |c|
    # of index 1, where the index check fails after points 0 and 1 are
    # classified; a classify failure before it comes first
    at = 2
    _plant_parallel_curvature(monkeypatch, at)
    classify, classified = symmetry.classify_isometry_group, []

    def recording(a):
        classified.append(a.g.params)
        if len(classified) - 1 == classify_fails_at:
            raise InternalConsistencyError("planted classify failure")
        return classify(a)

    monkeypatch.setattr(symmetry, "classify_isometry_group", recording)
    message = "parallel curvature" if classify_fails_at is None else "planted classify failure"
    with pytest.raises(InternalConsistencyError, match=message):
        scan_moduli("c", -2.0, grid_mu=3, grid_nu=1)
    mus = [p["mu"] for p in classified]
    assert mus == sorted(mus) and len(mus) == (at if classify_fails_at is None else classify_fails_at + 1)


def test_a_table_takes_the_points_before_a_failed_index_check(monkeypatch):
    # the sample points of c < 0 are three of the open stratum, then three
    # on the line mu = |c|; the index check fails at point 4
    at = 4
    _plant_parallel_curvature(monkeypatch, at)
    points, handed = reports.analyze_catalog_points, []

    def recording(alg, params):
        for point in points(alg, params):
            handed.append(point[0].params)
            yield point

    monkeypatch.setattr(reports, "analyze_catalog_points", recording)
    with pytest.raises(InternalConsistencyError, match="parallel curvature"):
        stratification_rows("c", -2.0)
    samples = [p for stratum in stratum_table("c", -2.0).strata for p in stratum.sample_params()]
    assert handed == samples[:at]
