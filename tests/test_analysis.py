"""One analysis per metric: the classifiers share one MetricAnalysis."""

import importlib
import sys

import numpy as np
import pytest

from lieiso.algebra import make_algebra_c, make_algebra_I
from lieiso.isometry import analyze_metrics, classify_isometry_group, killing_algebra
from lieiso.metrics import metric_from_table, skew_algebra
from lieiso.reports import build_report, stratification_rows, to_json
from lieiso.symmetry import index_of_symmetry, scan_moduli

# the package re-exports the function ``curvature``, which shadows the
# submodule of the same name as an attribute of ``lieiso``
LEVI_CIVITA = importlib.import_module("lieiso.curvature").levi_civita
SINGER_ISOTROPY = importlib.import_module("lieiso.isometry").singer_isotropy
CONSTANT_SECTIONAL = importlib.import_module("lieiso.curvature").constant_sectional
RIGHT_INVARIANT_B = importlib.import_module("lieiso.isometry").right_invariant_b
RANK_AND_KERNEL = importlib.import_module("lieiso.linalg").rank_and_kernel


def _count_calls(monkeypatch, fn, importers: int = 1) -> list:
    """Replace ``fn`` under every name that binds it in a lieiso module with
    a wrapper that records each call.  ``importers``: the least number of
    modules besides the defining one expected to bind ``fn``."""
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
    assert bindings >= 1 + importers
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


def test_build_report_builds_each_right_invariant_derivative_once(monkeypatch):
    # killing_algebra and index_of_symmetry both read B of r_e0, r_e1, r_e2
    alg = make_algebra_c(0.25)
    g = metric_from_table(alg, mu=0.5, nu=1.3)
    want = to_json(build_report(alg, g))
    calls = _count_calls(monkeypatch, RIGHT_INVARIANT_B, importers=0)
    assert to_json(build_report(alg, g)) == want
    assert len(calls) == 3


@pytest.mark.parametrize("family,c,params", [
    ("I", None, {"nu": 2.0}),
    ("c", 0.0, {"mu": 0.7, "nu": 1.3}),
    ("c", 4.0, {"mu": 4.0, "nu": 0.5}),
])
def test_build_report_decides_constant_curvature_once(monkeypatch, family, c, params):
    alg = make_algebra_I() if family == "I" else make_algebra_c(c)
    g = metric_from_table(alg, **params)
    sec = _count_calls(monkeypatch, CONSTANT_SECTIONAL)
    report = build_report(alg, g)
    assert len(sec) == 1
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
    np.testing.assert_array_equal(ka.generators[3].b, analysis.isotropy[0])
    assert sym.index == 1
    np.testing.assert_allclose(sym.generator, [1.0, -0.5, 0.0], atol=1e-9)


def test_rank_decisions_of_an_isotropy_zero_report(monkeypatch):
    # one decision on the Gram matrix, when the metric is built; the report
    # solves the skew algebras of the metric and of its Ricci form, their
    # intersection (empty here, so no Singer solve) and the index
    alg = make_algebra_c(4.0)
    calls = _count_calls(monkeypatch, RANK_AND_KERNEL)
    g = metric_from_table(alg, mu=2.0, nu=1.0)
    assert len(calls) == 1
    report = build_report(alg, g)
    assert report["isometry"]["isotropy_dim"] == 0
    assert len(calls) == 5


@pytest.mark.parametrize("n", [1, 4])
def test_skew_algebra_makes_one_rank_decision_per_form(monkeypatch, n):
    forms = np.stack([np.diag([1.0, 1.0 + k, 2.0]) for k in range(n)])
    calls = _count_calls(monkeypatch, RANK_AND_KERNEL)
    assert [len(b) for b in skew_algebra(forms)] == [3] * n
    assert len(calls) == n
