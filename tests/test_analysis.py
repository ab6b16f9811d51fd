"""One analysis per metric: the classifiers share one MetricAnalysis."""

import importlib
import sys

import numpy as np
import pytest

from lieiso.algebra import make_algebra_c, make_algebra_I
from lieiso.isometry import analyze_metrics, classify_isometry_group, killing_algebra
from lieiso.metrics import intersect_skew, metric_from_table, ricci_clusters, skew_algebra
from lieiso.reports import build_report, stratification_rows, to_json
from lieiso.symmetry import index_of_symmetry, scan_moduli

# the package re-exports the function ``curvature``, which shadows the
# submodule of the same name as an attribute of ``lieiso``
LEVI_CIVITA = importlib.import_module("lieiso.curvature").levi_civita
SINGER_ISOTROPY = importlib.import_module("lieiso.isometry").singer_isotropy
RICCI_CLUSTERS = importlib.import_module("lieiso.metrics").ricci_clusters
RANK_AND_KERNEL = importlib.import_module("lieiso.linalg").rank_and_kernel


def _count_calls(monkeypatch, fn) -> list:
    """Replace ``fn`` under every name that binds it in a lieiso module with
    a wrapper that records each call; at least one module besides the
    defining one must bind ``fn``."""
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    bindings = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "lieiso" or name.startswith("lieiso.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if obj is fn:
                monkeypatch.setattr(mod, attr, counting)
                bindings += 1
    assert bindings >= 2
    return calls


def test_build_report_computes_connection_and_isotropy_once(monkeypatch):
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=0.7, nu=1.3)
    want = to_json(build_report(alg, g))
    lc = _count_calls(monkeypatch, LEVI_CIVITA)
    singer = _count_calls(monkeypatch, SINGER_ISOTROPY)
    assert to_json(build_report(alg, g)) == want
    assert len(lc) == 1
    assert len(singer) == 1


def test_right_invariant_derivatives_are_the_connection():
    # killing_algebra and index_of_symmetry both read B of r_e0, r_e1, r_e2
    # as conn[0], conn[1], conn[2], stacked on the isotropy
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=0.7, nu=1.3)
    analysis = analyze_metrics(alg, [g])[0]
    derivs = analysis.killing_derivatives
    np.testing.assert_array_equal(derivs[:3], analysis.conn)
    np.testing.assert_array_equal(derivs[3:], analysis.isotropy)
    np.testing.assert_array_equal(killing_algebra(analysis).derivatives, derivs)


@pytest.mark.parametrize("family,c,params", [
    ("I", None, {"nu": 2.0}),
    ("c", 0.0, {"mu": 0.7, "nu": 1.3}),
    ("c", 4.0, {"mu": 4.0, "nu": 0.5}),
])
def test_build_report_decides_constant_curvature_once(monkeypatch, family, c, params):
    # constant curvature and the product splitting both read the one Ricci
    # spectrum of the analysis
    alg = make_algebra_I() if family == "I" else make_algebra_c(c)
    g = metric_from_table(alg, **params)
    eigh = np.linalg.eigh
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    report = build_report(alg, g)
    assert len(calls) == 1
    descriptor = classify_isometry_group(analyze_metrics(alg, [g])[0])
    assert report["curvature"]["sectional_constant"] == descriptor.sectional_constant


def test_scan_solves_singer_once_per_point(monkeypatch):
    # one stacked call covers every point of the scan
    lc = _count_calls(monkeypatch, LEVI_CIVITA)
    singer = _count_calls(monkeypatch, SINGER_ISOTROPY)
    result = scan_moduli("c", 0.0, grid_mu=2, grid_nu=1)
    assert len(result.points) == 3
    assert len(lc) == 1
    assert len(singer) == 1


def test_table_solves_singer_once_per_sample(monkeypatch):
    # one stacked call covers the three sample points of both strata
    lc = _count_calls(monkeypatch, LEVI_CIVITA)
    singer = _count_calls(monkeypatch, SINGER_ISOTROPY)
    rows = stratification_rows("c", 0.0)
    assert len(rows) == 2
    assert len(lc) == 1
    assert len(singer) == 1


def _count_svds_in_symmetry(monkeypatch) -> list:
    """Record the shape of every np.linalg.svd call made from lieiso.symmetry."""
    svd, shapes = np.linalg.svd, []

    def counting(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "lieiso.symmetry":
            shapes.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


@pytest.mark.parametrize("op,solved", [
    (lambda: scan_moduli("c", 0.0, grid_mu=2, grid_nu=1), 3),
    (lambda: scan_moduli("c", 0.25, grid_mu=4, grid_nu=2), 10),
    (lambda: stratification_rows("c", 0.0), 6),
    (lambda: stratification_rows("c", 4.0), 6),
], ids=["scan_c0", "scan_c0.25", "table_c0", "table_c4"])
def test_index_and_ricci_decisions_run_once_per_stack(monkeypatch, op, solved):
    # one SVD covers the index of every point of the stack whose isotropy is
    # below so(g) (at c = 4, the three samples of the line mu = c have all of
    # it), and the Ricci clusters are decided once, in analyze_metrics:
    # classify and the index read the analysis (c = 0 has points on the
    # product sheet g_nu)
    clusters = _count_calls(monkeypatch, RICCI_CLUSTERS)
    shapes = _count_svds_in_symmetry(monkeypatch)
    op()
    assert len(clusters) == 1
    assert shapes == [(solved, 3, 3)]


def test_shared_analysis_gives_the_same_answers(monkeypatch):
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=0.7, nu=1.3)
    analysis = analyze_metrics(alg, [g])[0]
    assert analysis.symmetric is False
    assert len(analysis.isotropy) == 1
    lc = _count_calls(monkeypatch, LEVI_CIVITA)
    singer = _count_calls(monkeypatch, SINGER_ISOTROPY)
    descriptor = classify_isometry_group(analysis)
    ka = killing_algebra(analysis)
    sym = index_of_symmetry(analysis)
    assert lc == [] and singer == []  # the classifiers only read the analysis
    assert descriptor.group_tag.value == "Product_SO2"
    np.testing.assert_array_equal(descriptor.isotropy_generators, analysis.isotropy)
    np.testing.assert_array_equal(ka.derivatives[3], analysis.isotropy[0])
    assert sym.index == 1
    np.testing.assert_allclose(sym.generator, [1.0, -0.5, 0.0], atol=1e-9)


def test_rank_decisions_of_an_isotropy_zero_report(monkeypatch):
    # one decision on the Gram matrix, when the metric is built; the
    # stabilizer of the Ricci form (empty here, so no Singer test) is read
    # off the spectrum, and the index is a 3x3 SVD in the orthonormal frame
    alg = make_algebra_c(4.0)
    calls = _count_calls(monkeypatch, RANK_AND_KERNEL)
    g = metric_from_table(alg, mu=2.0, nu=1.0)
    assert len(calls) == 1
    report = build_report(alg, g)
    assert report["isometry"]["isotropy_dim"] == 0
    assert len(calls) == 1


def test_rank_decisions_of_an_isotropic_report(monkeypatch):
    # the Gram matrix only; the Ricci stabilizer (all of so(g) here) is read
    # off the spectrum and kept whole by the Singer residual test, and the
    # index of a 3-dimensional isotropy is 3 with no decision
    alg = make_algebra_I()
    calls = _count_calls(monkeypatch, RANK_AND_KERNEL)
    g = metric_from_table(alg, nu=1.5)
    report = build_report(alg, g)
    assert report["isometry"]["isotropy_dim"] == 3
    assert len(calls) == 1


@pytest.mark.parametrize("n", [1, 4])
def test_skew_algebra_and_its_stabilizers_make_no_rank_decision(monkeypatch, n):
    # so(g) comes in closed form, and the stabilizer of each Ricci form in
    # it is read off the eigenvalue multiplicities
    grams = np.stack([np.diag([1.0, 1.0 + k, 2.0]) for k in range(n)])
    frames = np.swapaxes(np.linalg.inv(np.linalg.cholesky(grams)), -1, -2)
    forms = np.stack([np.diag([-1.0, -2.0 - k, -3.0]) for k in range(n)])
    calls = _count_calls(monkeypatch, RANK_AND_KERNEL)
    algebras = skew_algebra(frames, grams)
    assert algebras.shape == (n, 3, 3, 3)
    evals, evecs = np.linalg.eigh(forms)
    spaces = intersect_skew(algebras, *ricci_clusters(evals)[:2], evecs)
    assert [len(s) for s in spaces] == [1 if k == 1 else 0 for k in range(n)]
    assert calls == []


