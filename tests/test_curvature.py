import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import goldens
from lieiso.algebra import make_algebra_I, make_algebra_c
from lieiso.curvature import (
    covariant_derivative,
    curvature,
    first_bianchi_defect,
    levi_civita,
    metric_compatibility_defect,
    ricci,
    scalar_curvature,
    second_bianchi_defect,
    so_action,
    torsion_defect,
)
from lieiso.metrics import inner_product_from_gram, metric_from_table
from oracles import constant_sectional, curvature_jets, sectional_curvature

GRID = [0.5, 1.0, 2.0]


def ricci_of(alg, g):
    return ricci(curvature(levi_civita(alg, g.coeffs), alg))


@pytest.mark.parametrize("mu", GRID)
@pytest.mark.parametrize("nu", GRID)
def test_ricci_c_zero_diagonal(mu, nu):
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=mu, nu=nu)
    np.testing.assert_allclose(ricci_of(alg, g), goldens.ricci_c0_diag(mu, nu), atol=1e-12)


@pytest.mark.parametrize("mu", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("nu", GRID)
def test_ricci_c_one_diagonal(mu, nu):
    alg = make_algebra_c(1.0)
    g = metric_from_table(alg, mu=mu, nu=nu)
    np.testing.assert_allclose(ricci_of(alg, g), goldens.ricci_c1_diag(mu, nu), atol=1e-12)


@pytest.mark.parametrize("lam", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("nu", GRID)
def test_ricci_c_one_lambda_sheet(lam, nu):
    alg = make_algebra_c(1.0)
    g = metric_from_table(alg, lam=lam, nu=nu)
    np.testing.assert_allclose(ricci_of(alg, g), goldens.ricci_c1_lambda(lam, nu), atol=1e-12)


@pytest.mark.parametrize("c", [-2.0, -0.5])
@pytest.mark.parametrize("mu_frac", [0.25, 0.6, 1.0])
@pytest.mark.parametrize("nu", GRID)
def test_ricci_c_negative(c, mu_frac, nu):
    alg = make_algebra_c(c)
    mu = abs(c) * mu_frac
    g = metric_from_table(alg, mu=mu, nu=nu)
    np.testing.assert_allclose(ricci_of(alg, g), goldens.ricci_cneg_diag(c, mu, nu), atol=1e-12)


@pytest.mark.parametrize("c", [0.25, 0.5, 0.81])
@pytest.mark.parametrize("mu", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("nu", GRID)
def test_ricci_mid_c(c, mu, nu):
    alg = make_algebra_c(c)
    g = metric_from_table(alg, mu=mu, nu=nu)
    np.testing.assert_allclose(ricci_of(alg, g), goldens.ricci_mid_c(c, mu, nu), atol=1e-11)


@pytest.mark.parametrize("c", [2.25, 4.0])
@pytest.mark.parametrize("mu_frac", [0.3, 0.7, 1.0])
@pytest.mark.parametrize("nu", GRID)
def test_ricci_c_above_one(c, mu_frac, nu):
    alg = make_algebra_c(c)
    mu = 1.0 + (c - 1.0) * mu_frac
    g = metric_from_table(alg, mu=mu, nu=nu)
    np.testing.assert_allclose(ricci_of(alg, g), goldens.ricci_chigh(c, mu, nu), atol=1e-11)


@pytest.mark.parametrize("nu", GRID)
def test_family_I_is_hyperbolic(nu):
    alg = make_algebra_I()
    g = metric_from_table(alg, nu=nu)
    conn = levi_civita(alg, g.coeffs)
    curv = curvature(conn, alg)
    sec = constant_sectional(curv, g)
    assert sec == pytest.approx(-1.0 / nu, abs=1e-12)
    assert scalar_curvature(ricci(curv), g.coeffs) == pytest.approx(-6.0 / nu, abs=1e-11)
    # constant curvature kappa means Ric = 2 kappa g in dimension 3
    np.testing.assert_allclose(ricci(curv), -2.0 / nu * g.coeffs, atol=1e-12)


@pytest.mark.parametrize("c,nu", [(4.0, 0.5), (4.0, 1.0), (2.25, 2.0)])
def test_c_above_one_boundary_is_hyperbolic_and_einstein(c, nu):
    alg = make_algebra_c(c)
    g = metric_from_table(alg, mu=c, nu=nu)
    conn = levi_civita(alg, g.coeffs)
    curv = curvature(conn, alg)
    assert constant_sectional(curv, g) == pytest.approx(-1.0 / nu, abs=1e-10)
    np.testing.assert_allclose(ricci(curv), -2.0 / nu * g.coeffs, atol=1e-11)
    assert np.max(np.abs(covariant_derivative(curv, conn))) <= 1e-12


@pytest.mark.parametrize("c", [1.0 / 9.0, 0.25, 9.0 / 16.0])
@pytest.mark.parametrize("nu", GRID)
def test_scalar_curvature_mid_c(c, nu):
    alg = make_algebra_c(c)
    for mu in [0.0, 0.2, 0.6, 0.9]:
        g = metric_from_table(alg, mu=mu, nu=nu)
        conn = levi_civita(alg, g.coeffs)
        s = scalar_curvature(ricci(curvature(conn, alg)), g.coeffs)
        assert s == pytest.approx(goldens.scal_mid_c(c, mu, nu), abs=1e-11)
    # at mu = sqrt(c) the scalar curvature collapses to the constant -8/nu
    g = metric_from_table(alg, mu=np.sqrt(c), nu=nu)
    s = scalar_curvature(ricci(curvature(levi_civita(alg, g.coeffs), alg)), g.coeffs)
    assert s == pytest.approx(-8.0 / nu, abs=1e-12)


def test_generic_metric_is_not_constant_curvature():
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=1.0, nu=1.0)
    curv = curvature(levi_civita(alg, g.coeffs), alg)
    assert constant_sectional(curv, g) is None


def test_sectional_curvature_needs_independent_vectors():
    alg = make_algebra_I()
    g = metric_from_table(alg, nu=1.0)
    curv = curvature(levi_civita(alg, g.coeffs), alg)
    x = np.array([1.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        sectional_curvature(curv, g, x, 2.0 * x)


@pytest.mark.parametrize(
    "alg,kwargs",
    [
        (make_algebra_I(), dict(nu=2.0)),
        (make_algebra_c(0.0), dict(mu=0.7, nu=1.3)),
        (make_algebra_c(-2.0), dict(mu=1.1, nu=0.6)),
        (make_algebra_c(0.25), dict(mu=0.4, nu=1.0)),
        (make_algebra_c(1.0), dict(lam=0.3, nu=2.0)),
        (make_algebra_c(4.0), dict(mu=2.5, nu=1.0)),
    ],
)
def test_connection_and_curvature_identities(alg, kwargs):
    g = metric_from_table(alg, **kwargs)
    conn = levi_civita(alg, g.coeffs)
    curv = curvature(conn, alg)
    assert torsion_defect(conn, alg) <= 1e-13
    assert metric_compatibility_defect(conn, g) <= 1e-12
    assert first_bianchi_defect(curv) <= 1e-11
    assert second_bianchi_defect(covariant_derivative(curv, conn)) <= 1e-11
    # antisymmetry in the plane arguments
    np.testing.assert_allclose(
        curv, -curv.transpose(1, 0, 2, 3), atol=1e-13
    )
    # each R(x, y) is skew with respect to g
    gram = g.coeffs
    for i in range(3):
        for j in range(3):
            end = curv[i, j].T  # endomorphism matrix, output index first
            np.testing.assert_allclose(
                end.T @ gram + gram @ end, np.zeros((3, 3)), atol=1e-12
            )
    # pair symmetry <R(x,y)z, w> = <R(z,w)x, y>
    lowered = np.einsum("ijkl,lm->ijkm", curv, gram)
    np.testing.assert_allclose(lowered, lowered.transpose(2, 3, 0, 1), atol=1e-12)
    # Ricci contraction is symmetric
    ric = ricci(curv)
    np.testing.assert_allclose(ric, ric.T, atol=1e-13)


def test_curvature_derivatives_orders():
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=1.0, nu=1.0)
    conn = levi_civita(alg, g.coeffs)
    tensors = curvature_jets(conn, alg)
    assert [t.ndim - 1 for t in tensors] == [3, 4, 5]
    np.testing.assert_array_equal(tensors[0], curvature(conn, alg))
    np.testing.assert_array_equal(tensors[1], covariant_derivative(tensors[0], conn))
    np.testing.assert_array_equal(tensors[2], covariant_derivative(tensors[1], conn))


@pytest.mark.parametrize("mu", GRID)
@pytest.mark.parametrize("nu", GRID)
def test_isotropy_generator_annihilates_curvature_jets(mu, nu):
    # The distinguished skew operator of the c = 0 diagonal sheet kills the
    # curvature tensor and its first two derivatives.
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=mu, nu=nu)
    conn = levi_civita(alg, g.coeffs)
    a = goldens.isotropy_generator_c0(mu, nu)
    for t in curvature_jets(conn, alg):
        scale = max(1.0, np.max(np.abs(t)))
        assert np.max(np.abs(so_action(a, t))) <= 1e-9 * scale


def test_so_action_is_an_anti_homomorphism():
    alg = make_algebra_c(0.5)
    g = metric_from_table(alg, mu=0.3, nu=1.0)
    curv = curvature(levi_civita(alg, g.coeffs), alg)
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        lhs = so_action(a @ b - b @ a, curv)
        rhs = (
            so_action(b, so_action(a, curv))
            - so_action(a, so_action(b, curv))
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.max(np.abs(rhs))))


def test_so_action_on_vectors_and_metric_stabilizer():
    # A type-(1,0) tensor transforms as -a v; g-skew operators arise as the
    # stabilizer of the Gram matrix, so a . g = 0 reads a^T G + G a = 0.
    a = np.array([[0.0, -2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(so_action(a, v), -a @ np.array([1.0, 2.0, 3.0]))


@hyp_settings(max_examples=20, deadline=None)
@given(
    st.floats(-3, 3),
    st.floats(0.3, 3),
    st.floats(0.3, 3),
)
def test_levi_civita_solves_koszul_for_random_diagonal_data(c, a, b):
    # For any inner product (not only catalog ones) the defining identities
    # must hold exactly: zero torsion and metric compatibility.
    alg = make_algebra_c(c)
    g = inner_product_from_gram(np.diag([1.0, a, b]))
    conn = levi_civita(alg, g.coeffs)
    assert torsion_defect(conn, alg) <= 1e-12
    assert metric_compatibility_defect(conn, g) <= 1e-11
