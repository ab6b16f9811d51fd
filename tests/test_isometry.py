import numpy as np
import pytest

import goldens
from lieiso.algebra import make_algebra_I, make_algebra_c
from lieiso.curvature import curvature, curvature_derivatives, levi_civita, ricci, scalar_curvature, so_action
from lieiso.isometry import (
    CLOSURE_TOL,
    IsometryGroupTag,
    KillingGenerator,
    analyze_metrics,
    classify_isometry_group,
    killing_algebra,
    killing_bracket,
    killing_form,
    right_invariant_b,
    _normalize_isotropy,
    singer_isotropy,
)
from lieiso.linalg import canonical_matrix_basis, rank_and_kernel
from lieiso.metrics import inner_product_from_gram, metric_from_table, skew_algebra

GRID = [0.5, 1.0, 2.0]


def _isotropy(alg, g):
    tensors = curvature_derivatives(levi_civita(alg, g.coeffs), alg)
    return singer_isotropy(g.coeffs[None], [t[None] for t in tensors], ricci(tensors[0])[None])[0]


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
    tensors = curvature_derivatives(levi_civita(alg, g.coeffs), alg)
    space = skew_algebra(g.coeffs[None])[0]
    blocks = [np.stack([so_action(m, t).ravel() for m in space], axis=1) for t in tensors]
    scale = max(float(np.max(np.abs(t))) for t in tensors) * float(np.max(np.abs(space)))
    _, kernel = rank_and_kernel(np.vstack(blocks), scale=scale)
    if len(kernel) == 0:
        return np.zeros((0, 3, 3))
    return _normalize_isotropy(canonical_matrix_basis(np.einsum("ks,sij->kij", kernel, space)))


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
    # Torsion-freeness makes (nabla r_v) at the identity equal to L(v).
    alg = make_algebra_c(0.5)
    g = metric_from_table(alg, mu=0.3, nu=1.0)
    conn = levi_civita(alg, g.coeffs)
    for v in np.eye(3):
        np.testing.assert_allclose(right_invariant_b(alg, conn, v), np.einsum("i,ikl->kl", v, conn), atol=1e-13)


@pytest.mark.parametrize("mu", GRID)
@pytest.mark.parametrize("nu", GRID)
def test_c_zero_killing_algebra_brackets(mu, nu):
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=mu, nu=nu)
    ka = killing_algebra(analyze_metrics(alg, [g])[0])
    assert ka.dim == 4
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
    gens = [
        KillingGenerator(v=np.eye(3)[i], b=right_invariant_b(alg, conn, np.eye(3)[i]))
        for i in range(3)
    ]
    # antisymmetry of the encoded bracket
    br01 = killing_bracket(gens[0], gens[1], curv)
    br10 = killing_bracket(gens[1], gens[0], curv)
    np.testing.assert_allclose(br01.v, -br10.v, atol=1e-12)
    np.testing.assert_allclose(br01.b, -br10.b, atol=1e-12)
    # [r0, r2] is again a Killing field: its derivative part must be the
    # connection endomorphism of its value part
    br02 = killing_bracket(gens[0], gens[2], curv)
    np.testing.assert_allclose(br02.b, np.einsum("i,ikl->kl", br02.v, conn), atol=1e-10)


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
            assert scalar_curvature(ric, g) == pytest.approx(-6.0 / nu, abs=1e-10)
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
        assert ka.dim == want
        assert ka.closure_residual <= CLOSURE_TOL
        form, eigs = killing_form(ka)
        np.testing.assert_allclose(form, form.T, atol=1e-12)
        assert list(eigs) == sorted(eigs)
