"""Acceptance suite: the headline guarantees of the package, one test per
criterion.  Each test prints one ``ACCEPT nn name: PASS/FAIL`` line (visible
with ``pytest -s`` or on failure) and its verbose test name doubles as the
pass/fail line in ``pytest -v`` output.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

import goldens
from lieiso.algebra import make_algebra_I, make_algebra_c
from lieiso.cli import _random_cases
from lieiso.curvature import (
    covariant_derivative,
    curvature,
    curvature_derivatives,
    constant_sectional,
    first_bianchi_defect,
    levi_civita,
    metric_compatibility_defect,
    ricci,
    scalar_curvature,
    second_bianchi_defect,
    so_action,
    torsion_defect,
)
from lieiso.groups import (
    bracket_field_residual,
    killing_residual,
    numeric_ricci_frame,
    right_invariant_field,
)
from lieiso.isometry import (
    IsometryGroupTag,
    analyze_metrics,
    classify_isometry_group,
    killing_algebra,
    killing_form,
    singer_isotropy,
)
from lieiso.metrics import metric_from_table, stratum_table
from lieiso.symmetry import index_of_symmetry, scan_moduli
from oracles import numeric_sectional

GRID = [0.5, 1.0, 2.0]


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPT {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPT {num:02d} {name}: PASS")


def build(alg, **kwargs):
    g = metric_from_table(alg, **kwargs)
    conn = levi_civita(alg, g.coeffs)
    return g, conn, curvature(conn, alg)


def test_accept_01_ricci_closed_forms():
    with criterion(1, "ricci-closed-forms"):
        alg0 = make_algebra_c(0.0)
        for mu in GRID:
            for nu in GRID:
                _, _, curv = build(alg0, mu=mu, nu=nu)
                np.testing.assert_allclose(
                    ricci(curv), goldens.ricci_c0_diag(mu, nu), atol=1e-9
                )
        alg1 = make_algebra_c(1.0)
        for mu in [0.5, 1.0]:
            for nu in GRID:
                _, _, curv = build(alg1, mu=mu, nu=nu)
                np.testing.assert_allclose(
                    ricci(curv), goldens.ricci_c1_diag(mu, nu), atol=1e-9
                )
        for lam in [0.25, 0.5, 0.75]:
            for nu in GRID:
                _, _, curv = build(alg1, lam=lam, nu=nu)
                np.testing.assert_allclose(
                    ricci(curv), goldens.ricci_c1_lambda(lam, nu), atol=1e-9
                )
        algn = make_algebra_c(-2.0)
        for mu in GRID:
            for nu in GRID:
                _, _, curv = build(algn, mu=mu, nu=nu)
                np.testing.assert_allclose(
                    ricci(curv), goldens.ricci_cneg_diag(-2.0, mu, nu), atol=1e-9
                )


def test_accept_02_isotropy_dimensions_and_generator():
    with criterion(2, "isotropy-dimensions"):
        alg0 = make_algebra_c(0.0)
        for mu in GRID:
            for nu in GRID:
                g = metric_from_table(alg0, mu=mu, nu=nu)
                tensors = curvature_derivatives(levi_civita(alg0, g.coeffs), alg0)
                iso = singer_isotropy(g.coeffs[None], [t[None] for t in tensors], ricci(tensors[0])[None])[0]
                assert len(iso) == 1
                np.testing.assert_allclose(
                    iso[0], goldens.isotropy_generator_c0(mu, nu), atol=1e-9
                )
                for t in tensors:
                    assert np.max(np.abs(so_action(iso[0], t))) <= 1e-9 * max(1.0, np.max(np.abs(t)))
        zero_dim = [
            (make_algebra_c(1.0), dict(mu=0.3, nu=1.0)),
            (make_algebra_c(1.0), dict(mu=0.7, nu=2.0)),
            (make_algebra_c(1.0), dict(lam=0.3, nu=1.0)),
            (make_algebra_c(1.0), dict(lam=0.6, nu=0.5)),
            (make_algebra_c(-2.0), dict(mu=1.0, nu=1.0)),
            (make_algebra_c(-2.0), dict(mu=2.0, nu=2.0)),
            (make_algebra_c(-0.5), dict(mu=0.25, nu=1.0)),
            (make_algebra_c(0.25), dict(mu=0.0, nu=1.0)),
            (make_algebra_c(0.25), dict(mu=0.3, nu=1.0)),
            (make_algebra_c(0.25), dict(mu=0.5, nu=2.0)),
            (make_algebra_c(4.0), dict(mu=2.0, nu=1.0)),
            (make_algebra_c(4.0), dict(mu=2.5, nu=0.5)),
            (make_algebra_c(2.25), dict(mu=1.5, nu=1.0)),
        ]
        for alg, kwargs in zero_dim:
            g = metric_from_table(alg, **kwargs)
            tensors = curvature_derivatives(levi_civita(alg, g.coeffs), alg)
            iso = singer_isotropy(g.coeffs[None], [t[None] for t in tensors], ricci(tensors[0])[None])[0]
            assert len(iso) == 0, (alg.c, kwargs)


def test_accept_03_killing_bracket_table():
    with criterion(3, "killing-bracket-table"):
        alg = make_algebra_c(0.0)
        for mu in GRID:
            for nu in GRID:
                g = metric_from_table(alg, mu=mu, nu=nu)
                ka = killing_algebra(analyze_metrics(alg, [g])[0])
                assert ka.dim == 4
                expected = goldens.killing_bracket_table_c0(mu, nu)
                for (a, b), coeffs in expected.items():
                    np.testing.assert_allclose(
                        ka.structure[a, b], coeffs, atol=1e-9
                    )


def test_accept_04_killing_form_eigenvalues():
    with criterion(4, "killing-form-eigenvalues"):
        alg = make_algebra_c(0.0)
        for mu in GRID:
            g = metric_from_table(alg, mu=mu, nu=1.0)
            _, eigs = killing_form(killing_algebra(analyze_metrics(alg, [g])[0]))
            np.testing.assert_allclose(
                eigs, goldens.killing_eigenvalues_c0(mu), atol=1e-9
            )


def test_accept_05_symmetric_cases_and_isometric_twins():
    with criterion(5, "symmetric-cases"):
        for nu in (0.5, 1.0, 2.0):
            for alg, kwargs in [
                (make_algebra_I(), dict(nu=nu)),
                (make_algebra_c(4.0), dict(mu=4.0, nu=nu)),
                (make_algebra_c(2.25), dict(mu=2.25, nu=nu)),
            ]:
                g, conn, curv = build(alg, **kwargs)
                assert np.max(np.abs(covariant_derivative(curv, conn))) <= 1e-9
                assert constant_sectional(curv, g) == pytest.approx(
                    -1.0 / nu, abs=1e-9
                )
                assert numeric_sectional(
                    alg, g, np.array([0.2, -0.1, 0.3]),
                    np.array([1.0, 0.5, -0.2]), np.array([0.1, 1.0, 0.7]),
                ) == pytest.approx(-1.0 / nu, abs=1e-4)
                d = classify_isometry_group(analyze_metrics(alg, [g])[0])
                assert d.group_tag is IsometryGroupTag.SO31
            g = metric_from_table(make_algebra_c(0.0), nu=nu)
            a = analyze_metrics(make_algebra_c(0.0), [g])[0]
            assert classify_isometry_group(a).group_tag is IsometryGroupTag.E1_X_SO21
            assert a.symmetric
        # two non-isomorphic groups with identical curvature reports
        for nu in (1.0, 2.0):
            report = {}
            for key, (alg, kwargs) in {
                "a": (make_algebra_I(), dict(nu=nu)),
                "b": (make_algebra_c(4.0), dict(mu=4.0, nu=nu)),
            }.items():
                g, conn, curv = build(alg, **kwargs)
                report[key] = (
                    classify_isometry_group(analyze_metrics(alg, [g])[0]).group_tag,
                    round(constant_sectional(curv, g), 12),
                    round(scalar_curvature(ricci(curv), g), 12),
                    round(np.max(np.abs(covariant_derivative(curv, conn))), 12),
                )
            assert report["a"] == report["b"]
            block_a = make_algebra_I().adjoint_block()
            block_b = make_algebra_c(4.0).adjoint_block()
            assert abs(np.linalg.det(block_a) - np.linalg.det(block_b)) > 1.0


EXPECTED_DIRECTION = {
    "c<0:mu=|c|": lambda c: np.array([0.0, 0.0, 1.0]),
    "c=0:g_mu_nu": lambda c: np.array([1.0, -0.5, 0.0]),
    "0<c<1:mu=0": lambda c: np.array([0.0, 0.0, 1.0]),
    "0<c<1:mu=sqrt(c)": lambda c: np.array([1.0, 1.0 / math.sqrt(c), 0.0]),
    "c=1:mu=1": lambda c: np.array([1.0, 0.0, 0.0]),
    "c>1:mu special": lambda c: np.array([math.sqrt(c) - 2.0, 1.0, 0.0]),
}

EXPECTED_INDEX = {
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


def test_accept_06_stratification_table_and_no_index_two():
    with criterion(6, "stratification-table"):
        seen = set()
        for c in (-2.0, 0.0, 0.25, 1.0, 4.0):
            alg = make_algebra_c(c)
            for stratum in stratum_table("c", c).strata:
                seen.add(stratum.key)
                for params in stratum.sample_params():
                    g = metric_from_table(alg, **params)
                    report = index_of_symmetry(analyze_metrics(alg, [g])[0])
                    assert report.index == EXPECTED_INDEX[stratum.key], (
                        stratum.key,
                        params,
                    )
                    if report.index == 1:
                        want = EXPECTED_DIRECTION[stratum.key](c)
                        got = np.asarray(report.generator)
                        # compare up to scale
                        cross = np.cross(want, got)
                        assert np.max(np.abs(cross)) <= 1e-9 * max(
                            1.0, float(np.max(np.abs(got)))
                        )
        assert len(seen) == 13
        # randomized sweep: the index never takes the value 2
        for family, c, params in _random_cases(500, seed=0):
            alg = make_algebra_I() if family == "I" else make_algebra_c(c)
            g = metric_from_table(alg, **params)
            report = index_of_symmetry(analyze_metrics(alg, [g])[0])
            assert report.index in (0, 1, 3)


def test_accept_07_scalar_curvature_collapse():
    with criterion(7, "scalar-curvature-collapse"):
        for c in (1.0 / 9.0, 0.25, 9.0 / 16.0):
            alg = make_algebra_c(c)
            for mu in (0.0, 0.2, 0.45, 0.7, 0.9):
                for nu in GRID:
                    g = metric_from_table(alg, mu=mu, nu=nu)
                    s = scalar_curvature(ricci(curvature(levi_civita(alg, g.coeffs), alg)), g)
                    assert s == pytest.approx(goldens.scal_mid_c(c, mu, nu), abs=1e-9)
            for nu in GRID:
                g = metric_from_table(alg, mu=math.sqrt(c), nu=nu)
                s = scalar_curvature(ricci(curvature(levi_civita(alg, g.coeffs), alg)), g)
                assert s == pytest.approx(-8.0 / nu, abs=1e-12)


def test_accept_08_moduli_scans():
    with criterion(8, "moduli-scans"):
        for family, c in [("I", None), ("c", -2.0), ("c", 0.0), ("c", 0.25),
                          ("c", 1.0), ("c", 4.0)]:
            result = scan_moduli(family, c, grid_mu=9, grid_nu=3)
            assert result.containment_ok, (family, c)
            assert result.passed, (family, c)
            if family == "c" and c in (-2.0, 0.0, 1.0, 4.0):
                assert result.equality_asserted and result.equality_observed
            else:
                assert not result.equality_asserted


def test_accept_09_finite_difference_oracle():
    with criterion(9, "finite-difference-oracle"):
        cases = [
            (make_algebra_I(), dict(nu=1.5)),
            (make_algebra_c(-2.0), dict(mu=1.2, nu=0.8)),
            (make_algebra_c(0.0), dict(mu=0.7, nu=1.3)),
            (make_algebra_c(0.25), dict(mu=0.4, nu=1.0)),
            (make_algebra_c(1.0), dict(mu=0.6, nu=2.0)),
            (make_algebra_c(1.0), dict(lam=0.3, nu=1.0)),
            (make_algebra_c(4.0), dict(mu=2.5, nu=0.7)),
        ]
        p = np.array([0.25, -0.15, 0.2])
        for alg, kwargs in cases:
            g = metric_from_table(alg, **kwargs)
            algebraic = ricci(curvature(levi_civita(alg, g.coeffs), alg))
            assert (
                float(np.max(np.abs(numeric_ricci_frame(alg, g, p) - algebraic)))
                <= 1e-3
            )
            assert bracket_field_residual(alg, p) <= 1e-4
            for v in np.eye(3):
                field = right_invariant_field(alg, v)
                assert killing_residual(alg, g, field, p) <= 1e-5


def test_accept_10_structural_identities_randomized():
    with criterion(10, "structural-identities"):
        for family, c, params in _random_cases(200, seed=1):
            alg = make_algebra_I() if family == "I" else make_algebra_c(c)
            g = metric_from_table(alg, **params)
            conn = levi_civita(alg, g.coeffs)
            curv = curvature(conn, alg)
            assert alg.jacobi_defect() <= 1e-8
            assert torsion_defect(conn, alg) <= 1e-12
            assert metric_compatibility_defect(conn, g) <= 1e-10
            assert first_bianchi_defect(curv) <= 1e-9
            assert second_bianchi_defect(covariant_derivative(curv, conn)) <= 1e-9
