import math

import numpy as np
import pytest

from lieiso.algebra import make_algebra_I, make_algebra_c
from lieiso.errors import UnsupportedFamilyError
from lieiso.isometry import analyze_metric
from lieiso.metrics import metric_from_table, stratum_table
from lieiso.reports import stratification_rows
from lieiso.symmetry import CERTIFICATE_TOL, index_of_symmetry, scan_moduli

NUS = [0.5, 1.0, 2.0]


def report_for(alg, **kwargs):
    return index_of_symmetry(analyze_metric(alg, metric_from_table(alg, **kwargs)))


def index_and_key(alg, g):
    """The index of symmetry of g and the key of its stratum."""
    return index_of_symmetry(analyze_metric(alg, g)).index, stratum_table(alg.family, alg.c).locate(g).key


@pytest.mark.parametrize("nu", NUS)
def test_family_I_has_full_index(nu):
    r = report_for(make_algebra_I(), nu=nu)
    assert r.index == 3
    assert r.symmetric_space
    assert r.generator is None
    assert r.certificate_residual <= CERTIFICATE_TOL


@pytest.mark.parametrize("nu", NUS)
def test_c_zero_sheets(nu):
    alg = make_algebra_c(0.0)
    # diagonal sheet: index 1 along (1, -1/2, 0) for every mu
    for mu in (0.5, 1.0, 2.0):
        r = report_for(alg, mu=mu, nu=nu)
        assert r.index == 1 and not r.symmetric_space
        np.testing.assert_allclose(r.generator, [1.0, -0.5, 0.0], atol=1e-9)
    # one-parameter sheet: a symmetric product, full index
    r = report_for(alg, nu=nu)
    assert r.index == 3 and r.symmetric_space


@pytest.mark.parametrize("nu", NUS)
def test_c_negative_strata(nu):
    alg = make_algebra_c(-2.0)
    r = report_for(alg, mu=1.0, nu=nu)
    assert r.index == 0 and r.generator is None
    r = report_for(alg, mu=2.0, nu=nu)
    assert r.index == 1
    np.testing.assert_allclose(r.generator, [0.0, 0.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("nu", NUS)
def test_mid_c_strata(nu):
    c = 0.25
    alg = make_algebra_c(c)
    r = report_for(alg, mu=0.0, nu=nu)
    assert r.index == 1
    np.testing.assert_allclose(r.generator, [0.0, 0.0, 1.0], atol=1e-9)
    r = report_for(alg, mu=0.3, nu=nu)
    assert r.index == 0
    r = report_for(alg, mu=math.sqrt(c), nu=nu)
    assert r.index == 1
    np.testing.assert_allclose(r.generator, [1.0, 1.0 / math.sqrt(c), 0.0], atol=1e-9)


@pytest.mark.parametrize("nu", NUS)
def test_c_one_strata(nu):
    alg = make_algebra_c(1.0)
    r = report_for(alg, mu=0.5, nu=nu)
    assert r.index == 0
    r = report_for(alg, mu=1.0, nu=nu)
    assert r.index == 1
    np.testing.assert_allclose(r.generator, [1.0, 0.0, 0.0], atol=1e-9)
    r = report_for(alg, lam=0.4, nu=nu)
    assert r.index == 0


@pytest.mark.parametrize("nu", NUS)
def test_c_above_one_strata(nu):
    c = 4.0
    alg = make_algebra_c(c)
    r = report_for(alg, mu=2.5, nu=nu)
    assert r.index == 0
    special = (math.sqrt(c) - 1.0) ** 2 + 1.0
    r = report_for(alg, mu=special, nu=nu)
    assert r.index == 1
    # generator proportional to (sqrt(c) - 2, 1, 0); at c = 4 that direction
    # degenerates to e1
    np.testing.assert_allclose(r.generator, [0.0, 1.0, 0.0], atol=1e-9)
    r = report_for(alg, mu=c, nu=nu)
    assert r.index == 3 and r.symmetric_space


def test_index_one_generator_direction_c_above_one_generic_root():
    c = 2.25
    alg = make_algebra_c(c)
    special = (math.sqrt(c) - 1.0) ** 2 + 1.0
    r = report_for(alg, mu=special, nu=1.0)
    assert r.index == 1
    want = np.array([math.sqrt(c) - 2.0, 1.0, 0.0])
    want = want / want[0]  # normalized to leading entry 1
    np.testing.assert_allclose(r.generator, want, atol=1e-9)


def test_certificate_residuals_are_tiny_everywhere():
    cases = [
        (make_algebra_I(), dict(nu=1.0)),
        (make_algebra_c(0.0), dict(mu=2.0, nu=0.5)),
        (make_algebra_c(-2.0), dict(mu=2.0, nu=1.0)),
        (make_algebra_c(0.25), dict(mu=0.5, nu=1.0)),
        (make_algebra_c(4.0), dict(mu=4.0, nu=2.0)),
    ]
    for alg, kwargs in cases:
        r = report_for(alg, **kwargs)
        assert r.index > 0
        assert r.certificate_residual <= CERTIFICATE_TOL


def test_index_values_stay_in_range_on_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(60):
        kind = rng.integers(0, 5)
        nu = float(rng.uniform(0.3, 2.5))
        if kind == 0:
            alg, kwargs = make_algebra_I(), dict(nu=nu)
        elif kind == 1:
            c = float(-rng.uniform(0.2, 3.0))
            alg = make_algebra_c(c)
            kwargs = dict(mu=float(rng.uniform(0.05, 1.0)) * abs(c), nu=nu)
        elif kind == 2:
            alg = make_algebra_c(0.0)
            kwargs = dict(mu=float(rng.uniform(0.2, 2.5)), nu=nu)
        elif kind == 3:
            c = float(rng.uniform(0.1, 0.9))
            alg = make_algebra_c(c)
            kwargs = dict(mu=float(rng.uniform(0.0, 0.95)), nu=nu)
        else:
            c = float(rng.uniform(1.1, 4.0))
            alg = make_algebra_c(c)
            kwargs = dict(mu=float(1.0 + rng.uniform(0.01, 1.0) * (c - 1.0)), nu=nu)
        r = report_for(alg, **kwargs)
        assert r.index in (0, 1, 3)
        if r.symmetric_space:
            assert r.index == 3


def test_strata_counts_per_family():
    assert len(stratum_table("I", None).strata) == 1
    assert len(stratum_table("c", -2.0).strata) == 2
    assert len(stratum_table("c", 0.0).strata) == 2
    assert len(stratum_table("c", 0.25).strata) == 3
    assert len(stratum_table("c", 1.0).strata) == 3
    assert len(stratum_table("c", 4.0).strata) == 3
    with pytest.raises(UnsupportedFamilyError):
        stratum_table("c", None)
    with pytest.raises(UnsupportedFamilyError):
        stratum_table("so3", 0.0)
    with pytest.raises(UnsupportedFamilyError):
        stratification_rows("c", None)


EXPECTED_STRATUM_INDEX = {
    "I:g_nu": 3,
    "c<0:mu<|c|": 0,
    "c<0:mu=|c|": 1,
    "c=0:g_mu_nu": 1,
    "c=0:g_nu": 3,
    "0<c<1:mu=0": 1,
    "0<c<1:mu generic": 0,
    "0<c<1:mu=sqrt(c)": 1,
    "c=1:mu<1": 0,
    "c=1:mu=1": 1,
    "c=1:g_lambda_nu": 0,
    "c>1:mu generic": 0,
    "c>1:mu special": 1,
    "c>1:mu=c": 3,
}


@pytest.mark.parametrize(
    "family,c",
    [("I", None), ("c", -2.0), ("c", 0.0), ("c", 0.25), ("c", 1.0), ("c", 4.0)],
)
def test_stratum_samples_reproduce_their_index(family, c):
    alg = make_algebra_I() if family == "I" else make_algebra_c(c)
    for stratum in stratum_table(family, c).strata:
        want = EXPECTED_STRATUM_INDEX[stratum.key]
        for params in stratum.sample_params():
            g = metric_from_table(alg, **params)
            index, key = index_and_key(alg, g)
            assert key == stratum.key
            assert index == want, f"{stratum.key} at {params}"


@pytest.mark.parametrize(
    "family,c,equality",
    [
        ("I", None, False),
        ("c", -2.0, True),
        ("c", 0.0, True),
        ("c", 0.25, False),
        ("c", 1.0, True),
        ("c", 4.0, True),
    ],
)
def test_scan_containment_and_equality(family, c, equality):
    assert stratum_table(family, c).equality_asserted is equality
    result = scan_moduli(family, c, grid_mu=7, grid_nu=2)
    assert result.containment_ok
    assert result.equality_asserted is equality
    if equality:
        assert result.equality_observed
        assert result.witnesses == ()
    assert result.passed


def test_mid_c_scan_finds_the_interior_maximal_line():
    # For 0 < c < 1 the maximal-index set is strictly larger than the
    # singular locus: the line mu = sqrt(c) shows up as witnesses.
    c = 0.25
    result = scan_moduli("c", c, grid_mu=7, grid_nu=2)
    assert result.max_index == 1
    assert not result.equality_asserted
    assert len(result.witnesses) >= 2
    for pt in result.witnesses:
        assert pt.params["mu"] == pytest.approx(math.sqrt(c), abs=1e-9)
        assert not pt.on_singular_locus


def test_family_I_scan_is_all_maximal():
    result = scan_moduli("I", grid_mu=5, grid_nu=2)
    assert result.max_index == 3
    assert all(pt.index == 3 for pt in result.points)
    assert all(not pt.on_singular_locus for pt in result.points)
    assert result.passed


def test_scan_points_carry_classification_tags():
    result = scan_moduli("c", 0.0, grid_mu=5, grid_nu=2)
    tags = {pt.metric_name: pt.group_tag for pt in result.points}
    assert tags["g_mu_nu"] == "Product_SO2"
    assert tags["g_nu"] == "E1_x_SO21"
    sheet = [pt for pt in result.points if pt.metric_name == "g_nu"]
    assert all(pt.on_singular_locus and pt.index == 3 for pt in sheet)


def test_scan_rejects_bad_family():
    with pytest.raises(UnsupportedFamilyError):
        scan_moduli("c")
    with pytest.raises(UnsupportedFamilyError):
        scan_moduli("spin", 1.0)


def test_stratum_key_follows_the_snapped_parameters():
    # mu = tol_case is not snapped onto mu = 0, so it lies in the open
    # stratum and its key must say so; anything closer is snapped.
    alg = make_algebra_c(0.25)
    g = metric_from_table(alg, mu=1e-7, nu=1.0)
    assert not g.boundary_snapped
    index, key = index_and_key(alg, g)
    assert (key, index) == ("0<c<1:mu generic", 0)
    g = metric_from_table(alg, mu=5e-8, nu=1.0)
    assert g.boundary_snapped
    index, key = index_and_key(alg, g)
    assert (key, index) == ("0<c<1:mu=0", 1)
