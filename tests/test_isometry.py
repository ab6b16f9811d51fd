import dataclasses

import numpy as np
import pytest

import goldens
from lieiso.algebra import make_algebra_I, make_algebra_c
from lieiso.curvature import curvature, levi_civita, ricci, scalar_curvature
from lieiso.errors import InternalConsistencyError
from lieiso.isometry import (
    CLOSURE_TOL,
    IsometryGroupTag,
    analyze_metrics,
    classify_isometry_group,
    killing_algebra,
    killing_form,
)
from lieiso.metrics import inner_product_from_gram, metric_from_table, skew_algebra
from oracles import curvature_jets, killing_bracket, killing_structure, solve_singer

GRID = [0.5, 1.0, 2.0]


def _isotropy(alg, g):
    return analyze_metrics(alg, [g])[0].isotropy


@pytest.mark.parametrize("mu", GRID)
@pytest.mark.parametrize("nu", GRID)
def test_c_zero_isotropy_generator(mu, nu):
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=mu, nu=nu)
    iso = _isotropy(alg, g)
    assert len(iso) == 1
    np.testing.assert_allclose(
        iso[0], goldens.isotropy_generator_c0(mu, nu), atol=1e-9
    )


@pytest.mark.parametrize(
    "alg,kwargs",
    [
        (make_algebra_c(1.0), dict(mu=0.4, nu=1.0)),
        (make_algebra_c(1.0), dict(lam=0.6, nu=2.0)),
        (make_algebra_c(-2.0), dict(mu=1.0, nu=1.0)),
        (make_algebra_c(-2.0), dict(mu=2.0, nu=1.0)),
        (make_algebra_c(0.25), dict(mu=0.3, nu=1.0)),
        (make_algebra_c(0.25), dict(mu=0.5, nu=1.0)),
        (make_algebra_c(4.0), dict(mu=2.0, nu=1.0)),
        (make_algebra_c(4.0), dict(mu=3.0, nu=0.5)),
    ],
    ids=["c=1:diag", "c=1:lam", "c=-2:int", "c=-2:bdry", "c=.25", "c=.25:root", "c=4:special", "c=4"],
)
def test_trivial_isotropy_cases(alg, kwargs):
    g = metric_from_table(alg, **kwargs)
    assert len(_isotropy(alg, g)) == 0


@pytest.mark.parametrize("nu", GRID)
def test_full_isotropy_for_hyperbolic_metrics(nu):
    for alg, kwargs in [
        (make_algebra_I(), dict(nu=nu)),
        (make_algebra_c(4.0), dict(mu=4.0, nu=nu)),
    ]:
        g = metric_from_table(alg, **kwargs)
        iso = _isotropy(alg, g)
        assert len(iso) == 3
        # each generator is skew for g
        for a in iso:
            np.testing.assert_allclose(
                a.T @ g.coeffs + g.coeffs @ a, np.zeros((3, 3)), atol=1e-9
            )


def _singer_without_prefilter(alg, g):
    """The Singer solve on the whole metric-skew algebra, with no Ricci prefilter."""
    tensors = curvature_jets(levi_civita(alg, g.coeffs), alg)
    frame = np.linalg.inv(np.linalg.cholesky(g.coeffs)).T
    return solve_singer(skew_algebra(frame[None], g.coeffs[None])[0], tensors)


def test_ricci_prefilter_does_not_change_the_answer():
    for alg, kwargs in [
        (make_algebra_c(0.0), dict(mu=0.7, nu=1.3)),
        (make_algebra_c(0.25), dict(mu=0.4, nu=1.0)),
        (make_algebra_I(), dict(nu=2.0)),
    ]:
        g = metric_from_table(alg, **kwargs)
        with_filter = _isotropy(alg, g)
        without = _singer_without_prefilter(alg, g)
        assert len(with_filter) == len(without)
        np.testing.assert_allclose(with_filter, without, atol=1e-9)


def test_right_invariant_b_equals_connection_endomorphism():
    # (nabla r_v)_e has column j equal to L(e_j) v - [e_j, v]; torsion-freeness
    # makes it L(v), which the Killing algebra takes as the derivative of r_i
    alg = make_algebra_c(0.5)
    g = metric_from_table(alg, mu=0.3, nu=1.0)
    analysis = analyze_metrics(alg, [g])[0]
    conn = analysis.conn
    derivs = killing_algebra(analysis).derivatives
    for i, v in enumerate(np.eye(3)):
        by_columns = np.column_stack([conn[j] @ v - alg.bracket(e, v) for j, e in enumerate(np.eye(3))])
        np.testing.assert_allclose(by_columns, np.einsum("i,ikl->kl", v, conn), atol=1e-13)
        np.testing.assert_array_equal(derivs[i], conn[i])


@pytest.mark.parametrize("mu", GRID)
@pytest.mark.parametrize("nu", GRID)
def test_c_zero_killing_algebra_brackets(mu, nu):
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=mu, nu=nu)
    ka = killing_algebra(analyze_metrics(alg, [g])[0])
    assert len(ka.values) == 4
    assert ka.labels == ("r0", "r1", "r2", "A1")
    assert ka.closure_residual <= CLOSURE_TOL
    expected = goldens.killing_bracket_table_c0(mu, nu)
    for (a, b), coeffs in expected.items():
        np.testing.assert_allclose(ka.structure[a, b], coeffs, atol=1e-9)
        np.testing.assert_allclose(ka.structure[b, a], -coeffs, atol=1e-9)


def test_killing_algebra_structure_satisfies_jacobi():
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=0.8, nu=1.7)
    ka = killing_algebra(analyze_metrics(alg, [g])[0])
    s = ka.structure
    d = np.einsum("ijm,mkl->ijkl", s, s)
    cyc = d + d.transpose(1, 2, 0, 3) + d.transpose(2, 0, 1, 3)
    assert float(np.max(np.abs(cyc))) <= 1e-9


@pytest.mark.parametrize("mu", GRID)
def test_c_zero_killing_form_eigenvalues(mu):
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=mu, nu=1.0)
    _, eigs = killing_form(killing_algebra(analyze_metrics(alg, [g])[0]))
    np.testing.assert_allclose(eigs, goldens.killing_eigenvalues_c0(mu), atol=1e-9)


def test_killing_form_spectra_distinguish_the_metrics():
    alg = make_algebra_c(0.0)
    spectra = []
    for mu in GRID:
        g = metric_from_table(alg, mu=mu, nu=1.0)
        _, eigs = killing_form(killing_algebra(analyze_metrics(alg, [g])[0]))
        spectra.append(eigs)
    for i in range(len(spectra)):
        for j in range(i + 1, len(spectra)):
            assert float(np.max(np.abs(spectra[i] - spectra[j]))) > 1e-3


def test_killing_bracket_encoding():
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=1.0, nu=1.0)
    conn = levi_civita(alg, g.coeffs)
    curv = curvature(conn, alg)
    gens = [(np.eye(3)[i], conn[i]) for i in range(3)]
    # antisymmetry of the encoded bracket
    v01, b01 = killing_bracket(curv, gens[0], gens[1])
    v10, b10 = killing_bracket(curv, gens[1], gens[0])
    np.testing.assert_allclose(v01, -v10, atol=1e-12)
    np.testing.assert_allclose(b01, -b10, atol=1e-12)
    # [r0, r2] is again a Killing field: its derivative part must be the
    # connection endomorphism of its value part
    v02, b02 = killing_bracket(curv, gens[0], gens[2])
    np.testing.assert_allclose(b02, np.einsum("i,ikl->kl", v02, conn), atol=1e-10)


# one sample point of each row of the stratification table, at nu = 1.5
TABLE_POINTS = [
    (None, {}), (-2.0, {"mu": 1.7}), (-2.0, {"mu": 2.0}), (0.0, {"mu": 2.0}), (0.0, {}),
    (0.25, {"mu": 0.0}), (0.25, {"mu": 0.7}), (0.25, {"mu": 0.5}), (1.0, {"mu": 0.8}),
    (1.0, {"mu": 1.0}), (1.0, {"lam": 0.8}), (4.0, {"mu": 2.9}), (4.0, {"mu": 2.0}), (4.0, {"mu": 4.0}),
]


@pytest.mark.parametrize("c,params", TABLE_POINTS)
def test_batched_brackets_equal_the_pairwise_reference(c, params):
    alg = make_algebra_I() if c is None else make_algebra_c(c)
    analysis = analyze_metrics(alg, [metric_from_table(alg, nu=1.5, **params)])[0]
    ka = killing_algebra(analysis)
    want, worst = killing_structure(analysis)
    assert float(np.max(np.abs(ka.structure - want))) <= 1e-12 * float(np.max(np.abs(want)))
    # the closure residual is what is left of the bracket derivatives, whose
    # terms have the size of conn^2, over max(1, max|derivative|)
    size = max(1.0, float(np.max(np.abs(ka.derivatives))))
    assert abs(ka.closure_residual * size - worst) <= 1e-12 * float(np.max(np.abs(analysis.conn))) ** 2
    assert worst <= CLOSURE_TOL * size
    np.testing.assert_array_equal(ka.values, np.eye(len(want), 3))
    np.testing.assert_array_equal(ka.derivatives, np.concatenate([analysis.conn, analysis.isotropy]))


def test_killing_algebra_rejects_a_derivative_that_is_not_killing():
    # a g-skew matrix that no Killing field has as its derivative at e:
    # G^-1 S is g-skew for every antisymmetric S
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=0.7, nu=1.3)
    analysis = analyze_metrics(alg, [g])[0]
    skew = np.linalg.solve(g.coeffs, np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(skew.T @ g.coeffs + g.coeffs @ skew, 0.0, atol=1e-12)
    assert killing_algebra(analysis).closure_residual <= CLOSURE_TOL
    with pytest.raises(InternalConsistencyError, match="does not close"):
        killing_algebra(dataclasses.replace(analysis, isotropy=skew[None]))


CLASSIFY_CASES = [
    (make_algebra_I(), dict(nu=1.0), IsometryGroupTag.SO31, 3, True),
    (make_algebra_I(), dict(nu=2.0), IsometryGroupTag.SO31, 3, True),
    (make_algebra_c(4.0), dict(mu=4.0, nu=1.0), IsometryGroupTag.SO31, 3, True),
    (make_algebra_c(2.25), dict(mu=2.25, nu=0.5), IsometryGroupTag.SO31, 3, True),
    (make_algebra_c(0.0), dict(nu=1.0), IsometryGroupTag.E1_X_SO21, 1, True),
    (make_algebra_c(0.0), dict(nu=0.5), IsometryGroupTag.E1_X_SO21, 1, True),
    (make_algebra_c(0.0), dict(mu=1.0, nu=1.0), IsometryGroupTag.PRODUCT_SO2, 1, False),
    (make_algebra_c(0.0), dict(mu=0.4, nu=2.0), IsometryGroupTag.PRODUCT_SO2, 1, False),
    (make_algebra_c(-2.0), dict(mu=2.0, nu=1.0), IsometryGroupTag.TRANSLATIONS_ONLY, 0, False),
    (make_algebra_c(-2.0), dict(mu=1.0, nu=1.0), IsometryGroupTag.TRANSLATIONS_ONLY, 0, False),
    (make_algebra_c(0.25), dict(mu=0.0, nu=1.0), IsometryGroupTag.TRANSLATIONS_ONLY, 0, False),
    (make_algebra_c(0.25), dict(mu=0.5, nu=1.0), IsometryGroupTag.TRANSLATIONS_ONLY, 0, False),
    (make_algebra_c(1.0), dict(mu=1.0, nu=1.0), IsometryGroupTag.TRANSLATIONS_ONLY, 0, False),
    (make_algebra_c(1.0), dict(lam=0.3, nu=1.0), IsometryGroupTag.TRANSLATIONS_ONLY, 0, False),
    (make_algebra_c(4.0), dict(mu=2.0, nu=1.0), IsometryGroupTag.TRANSLATIONS_ONLY, 0, False),
    (make_algebra_c(4.0), dict(mu=2.5, nu=1.0), IsometryGroupTag.TRANSLATIONS_ONLY, 0, False),
]


@pytest.mark.parametrize("alg,kwargs,tag,iso_dim,symmetric", CLASSIFY_CASES)
def test_classification(alg, kwargs, tag, iso_dim, symmetric):
    g = metric_from_table(alg, **kwargs)
    a = analyze_metrics(alg, [g])[0]
    d = classify_isometry_group(a)
    assert d.group_tag is tag
    assert d.isotropy_dim == iso_dim
    assert d.total_dim == 3 + iso_dim
    assert a.symmetric is symmetric
    assert len(d.isotropy_generators) == iso_dim
    if tag is IsometryGroupTag.SO31:
        assert d.sectional_constant == pytest.approx(-1.0 / kwargs["nu"], abs=1e-9)
    else:
        assert d.sectional_constant is None


def test_classification_snaps_near_boundary():
    alg = make_algebra_c(4.0)
    g = metric_from_table(alg, mu=4.0 - 1e-8, nu=1.0)
    d = classify_isometry_group(analyze_metrics(alg, [g])[0])
    assert d.group_tag is IsometryGroupTag.SO31
    assert g.boundary_snapped


def test_isometric_but_not_isomorphic_groups():
    # Two non-isomorphic groups carry the same hyperbolic geometry: the
    # curvature data agree although the algebra invariant differs.
    for nu in (1.0, 2.0):
        alg_a = make_algebra_I()
        g_a = metric_from_table(alg_a, nu=nu)
        alg_b = make_algebra_c(4.0)
        g_b = metric_from_table(alg_b, mu=4.0, nu=nu)
        a_a, a_b = analyze_metrics(alg_a, [g_a])[0], analyze_metrics(alg_b, [g_b])[0]
        d_a, d_b = classify_isometry_group(a_a), classify_isometry_group(a_b)
        assert d_a.group_tag is d_b.group_tag is IsometryGroupTag.SO31
        assert d_a.sectional_constant == pytest.approx(d_b.sectional_constant, abs=1e-10)
        assert a_a.symmetric and a_b.symmetric
        # same Einstein constant Ric = -(2/nu) g on both sides
        for alg, g in [(alg_a, g_a), (alg_b, g_b)]:
            ric = ricci(curvature(levi_civita(alg, g.coeffs), alg))
            np.testing.assert_allclose(ric, -2.0 / nu * g.coeffs, atol=1e-10)
            assert scalar_curvature(ric, g.coeffs) == pytest.approx(-6.0 / nu, abs=1e-10)
        # and yet the algebras differ: ad(e2) restricted to the plane is
        # the identity for one and has determinant 4 for the other
        assert np.linalg.det(alg_a.adjoint_block()) == pytest.approx(1.0)
        assert np.linalg.det(alg_b.adjoint_block()) == pytest.approx(4.0)
        assert np.max(np.abs(alg_a.adjoint_block() - alg_b.adjoint_block())) > 1.0


def test_classify_rejects_custom_algebra():
    from lieiso.algebra import custom_algebra
    from lieiso.errors import UnsupportedFamilyError

    s = np.zeros((3, 3, 3))
    s[2, 0, 0] = 1.0
    s[0, 2, 0] = -1.0
    alg = custom_algebra(s)
    g = inner_product_from_gram(np.eye(3))
    analysis = analyze_metrics(alg, [g])[0]
    with pytest.raises(UnsupportedFamilyError):
        classify_isometry_group(analysis)


def test_killing_algebra_dims_follow_isotropy():
    for alg, kwargs, want in [
        (make_algebra_I(), dict(nu=1.0), 6),
        (make_algebra_c(0.0), dict(mu=1.0, nu=1.0), 4),
        (make_algebra_c(0.25), dict(mu=0.3, nu=1.0), 3),
    ]:
        g = metric_from_table(alg, **kwargs)
        ka = killing_algebra(analyze_metrics(alg, [g])[0])
        assert len(ka.values) == want
        assert ka.closure_residual <= CLOSURE_TOL
        form, eigs = killing_form(ka)
        np.testing.assert_allclose(form, form.T, atol=1e-12)
        assert list(eigs) == sorted(eigs)
