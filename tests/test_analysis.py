"""One analysis per metric: the classifiers share one MetricAnalysis."""

import importlib
import sys

import numpy as np
import pytest

from lieiso.algebra import make_algebra_c
from lieiso.isometry import analyze_metric, classify_isometry_group, killing_algebra
from lieiso.metrics import metric_from_table
from lieiso.reports import build_report, stratification_rows, to_json
from lieiso.symmetry import index_of_symmetry, scan_moduli

# the package re-exports the function ``curvature``, which shadows the
# submodule of the same name as an attribute of ``lieiso``
LEVI_CIVITA = importlib.import_module("lieiso.curvature").levi_civita
SINGER_ISOTROPY = importlib.import_module("lieiso.isometry").singer_isotropy


def _count_calls(monkeypatch, fn) -> list:
    """Replace ``fn`` under every name that binds it in a lieiso module with
    a wrapper that records each call."""
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
    assert bindings >= 2  # the defining module and at least one importer
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


def test_scan_solves_singer_once_per_point(monkeypatch):
    singer = _count_calls(monkeypatch, SINGER_ISOTROPY)
    result = scan_moduli("c", 0.0, grid_mu=2, grid_nu=1)
    assert len(result.points) == 3
    assert len(singer) == len(result.points)


def test_table_solves_singer_once_per_sample(monkeypatch):
    singer = _count_calls(monkeypatch, SINGER_ISOTROPY)
    rows = stratification_rows("c", 0.0)
    assert len(rows) == 2
    assert len(singer) == 2 * 3  # two strata, three sample points each


def test_shared_analysis_gives_the_same_answers():
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=0.7, nu=1.3)
    analysis = analyze_metric(alg, g)
    assert analysis.symmetric is False
    assert len(analysis.isotropy) == 1
    shared = classify_isometry_group(alg, g, analysis=analysis)
    alone = classify_isometry_group(alg, g)
    assert shared.group_tag is alone.group_tag
    np.testing.assert_array_equal(shared.isotropy_generators, alone.isotropy_generators)
    np.testing.assert_array_equal(
        killing_algebra(alg, g, analysis=analysis).structure, killing_algebra(alg, g).structure
    )
    sym_shared = index_of_symmetry(alg, g, analysis=analysis)
    sym_alone = index_of_symmetry(alg, g)
    assert sym_shared.index == sym_alone.index == 1
    np.testing.assert_array_equal(sym_shared.generator, sym_alone.generator)


def test_analysis_of_another_metric_is_rejected():
    alg = make_algebra_c(0.25)
    g = metric_from_table(alg, mu=0.5, nu=1.0)
    other = metric_from_table(alg, mu=0.3, nu=1.0)
    analysis = analyze_metric(alg, other)
    with pytest.raises(ValueError):
        classify_isometry_group(alg, g, analysis=analysis)
    with pytest.raises(ValueError):
        killing_algebra(alg, g, analysis=analysis)
    with pytest.raises(ValueError):
        index_of_symmetry(alg, g, analysis=analysis)
