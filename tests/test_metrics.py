import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import oracles
from lieiso.algebra import make_algebra_I, make_algebra_c
from lieiso.errors import DegenerateFormError, NonPositiveDefiniteError, RangeError
from lieiso.metrics import (
    METRIC_LAMBDA_NU,
    METRIC_MU_NU,
    METRIC_NU,
    inner_product_from_gram,
    RICCI_TOL,
    intersect_skew,
    metric_from_table,
    ricci_clusters,
    skew_algebra,
    snap_parameters,
    stratum_table,
)


def test_family_I_metric_is_scaled_identity_block():
    g = metric_from_table(make_algebra_I(), nu=2.0)
    np.testing.assert_allclose(g.coeffs, np.diag([1.0, 1.0, 2.0]))
    assert g.name == METRIC_NU


def test_c_zero_diagonal_sheet():
    g = metric_from_table(make_algebra_c(0.0), mu=0.5, nu=2.0)
    np.testing.assert_allclose(g.coeffs, np.diag([1.0, 0.5, 2.0]))
    assert g.name == METRIC_MU_NU


def test_c_zero_one_parameter_sheet():
    g = metric_from_table(make_algebra_c(0.0), nu=3.0)
    np.testing.assert_allclose(
        g.coeffs, np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    )
    assert g.name == METRIC_NU


def test_c_above_one_off_diagonal_sheet():
    g = metric_from_table(make_algebra_c(4.0), mu=3.0, nu=0.5)
    np.testing.assert_allclose(
        g.coeffs, np.array([[1.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 0.5]])
    )


@pytest.mark.parametrize(
    "c,mu,nu",
    [(0.25, 0.3, 1.0), (0.5, 0.7, 2.0), (1.0 / 9.0, 0.0, 0.5), (0.81, 0.9, 1.0)],
)
def test_mid_c_gram_matches_closed_form(c, mu, nu):
    g = metric_from_table(make_algebra_c(c), mu=mu, nu=nu)
    np.testing.assert_allclose(g.coeffs, oracles.mid_c_gram_closed_form(c, mu, nu), atol=1e-12)


def test_lambda_sheet_construction():
    g = metric_from_table(make_algebra_c(1.0), lam=0.5, nu=2.0)
    assert g.name == METRIC_LAMBDA_NU
    np.testing.assert_allclose(
        g.coeffs, np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]])
    )
    assert g.params == {"lam": 0.5, "nu": 2.0}


def test_lambda_zero_glues_to_diagonal_sheet():
    # lam = 0 is the common boundary with the diagonal sheet at mu = 1.
    g = metric_from_table(make_algebra_c(1.0), lam=0.0, nu=2.0)
    assert g.name == METRIC_MU_NU
    assert g.params["mu"] == pytest.approx(1.0)
    np.testing.assert_allclose(g.coeffs, np.diag([1.0, 1.0, 2.0]))


@pytest.mark.parametrize(
    "c,kwargs",
    [
        (-2.0, dict(mu=5.0, nu=1.0)),  # mu must stay in (0, |c|]
        (-2.0, dict(mu=0.0, nu=1.0)),
        (0.0, dict(mu=-1.0, nu=1.0)),
        (0.25, dict(mu=1.0, nu=1.0)),  # mu must stay in [0, 1)
        (0.25, dict(mu=-0.1, nu=1.0)),
        (1.0, dict(mu=1.5, nu=1.0)),
        (1.0, dict(mu=0.0, nu=1.0)),
        (1.0, dict(lam=1.0, nu=1.0)),  # lam must stay in [0, 1)
        (4.0, dict(mu=0.5, nu=1.0)),  # mu must stay in (1, c]
        (4.0, dict(mu=5.0, nu=1.0)),
        (0.25, dict(lam=0.5, nu=1.0)),  # lambda sheet exists only at c = 1
        (0.25, dict(mu=0.5, lam=0.5, nu=1.0)),  # not both
    ],
)
def test_out_of_range_parameters_rejected(c, kwargs):
    with pytest.raises(RangeError):
        metric_from_table(make_algebra_c(c), **kwargs)


def test_nu_is_required_and_positive():
    with pytest.raises(RangeError):
        metric_from_table(make_algebra_I(), nu=-1.0)
    with pytest.raises(RangeError):
        metric_from_table(make_algebra_c(0.0), mu=1.0, nu=0.0)
    with pytest.raises(RangeError):
        metric_from_table(make_algebra_c(0.0), mu=1.0)


def test_family_I_takes_no_shape_parameter():
    with pytest.raises(RangeError):
        metric_from_table(make_algebra_I(), mu=0.5, nu=1.0)


def test_boundary_snapping_at_mu_equals_c():
    c = 4.0
    g = metric_from_table(make_algebra_c(c), mu=c - 1e-9, nu=1.0)
    assert g.boundary_snapped
    assert g.params["mu"] == pytest.approx(c)
    g2 = metric_from_table(make_algebra_c(c), mu=3.0, nu=1.0)
    assert not g2.boundary_snapped


def test_boundary_snapping_at_interior_special_values():
    # mu = sqrt(c) for 0 < c < 1, and mu = (sqrt(c)-1)^2 + 1 for c > 1,
    # are stratum boundaries even though they are interior to the range.
    g = metric_from_table(make_algebra_c(0.25), mu=0.5 + 1e-9, nu=1.0)
    assert g.boundary_snapped and g.params["mu"] == pytest.approx(0.5)
    g = metric_from_table(make_algebra_c(4.0), mu=2.0 - 1e-9, nu=1.0)
    assert g.boundary_snapped and g.params["mu"] == pytest.approx(2.0)


def test_snap_parameters_reports_motion():
    alg = make_algebra_c(-2.0)
    params, moved = snap_parameters(alg, METRIC_MU_NU, {"mu": 2.0 - 1e-9, "nu": 1.0})
    assert moved and params["mu"] == pytest.approx(2.0)
    params, moved = snap_parameters(alg, METRIC_MU_NU, {"mu": 1.0, "nu": 1.0})
    assert not moved


def test_non_spd_gram_rejected():
    with pytest.raises(NonPositiveDefiniteError):
        inner_product_from_gram(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(NonPositiveDefiniteError):
        inner_product_from_gram(
            np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        )


def test_non_symmetric_gram_rejected():
    with pytest.raises(NonPositiveDefiniteError):
        inner_product_from_gram(
            np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        )


def _so_g(gram):
    """so(g) of one Gram matrix, from its Cholesky frame."""
    frame = np.linalg.inv(np.linalg.cholesky(gram)).T
    return skew_algebra(frame[None], gram[None])[0]


def test_skew_algebra_of_diagonal_form():
    # For diag(1, mu, nu) the compatible skew operators span the same
    # three-dimensional space as this echelon basis.
    mu, nu = 2.0, 0.5
    space = _so_g(np.diag([1.0, mu, nu]))
    assert space.shape == (3, 3, 3)
    want = np.array([
        [[0.0, -mu, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 0.0, -nu], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, -nu / mu], [0.0, 1.0, 0.0]],
    ])
    assert oracles.span_sine(space, want) <= 1e-15


def test_skew_algebra_members_annihilate_the_form():
    gram = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 0.7]])
    space = _so_g(gram)
    assert len(space) == 3
    for a in space:
        np.testing.assert_allclose(a.T @ gram + gram @ a, np.zeros((3, 3)), atol=1e-10)
    assert oracles.span_sine(space, oracles.skew_algebra(gram)) <= 1e-12


def test_skew_algebra_degenerate_form():
    # a Gram matrix singular at the rank cutoff is rejected when the metric
    # is built; the e-frame reference takes degenerate forms such as Ricci forms
    with pytest.raises(DegenerateFormError, match="rank 2"):
        inner_product_from_gram(np.diag([1.0, 1.0, 1e-10]))
    with pytest.raises(DegenerateFormError, match="rank 2"):
        metric_from_table(make_algebra_c(0.25), mu=0.5, nu=1e-9)
    space = oracles.skew_algebra(np.diag([1.0, 1.0, 0.0]))
    assert len(space) == 4  # degenerate forms have a larger stabilizer


@hyp_settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=9, max_size=9))
def test_skew_algebra_dimension_three_for_random_spd(entries):
    a = np.array(entries).reshape(3, 3)
    gram = a.T @ a + 0.5 * np.eye(3)
    space = _so_g(gram)
    assert len(space) == 3
    for m in space:
        np.testing.assert_allclose(m.T @ gram + gram @ m, np.zeros((3, 3)), atol=1e-8)
    assert len(oracles.skew_algebra(gram)) == 3


GRAM = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 0.7]])
FRAME = np.linalg.inv(np.linalg.cholesky(GRAM)).T


def _stabilizer(spectrum, seed):
    """A form with this spectrum in a random g-orthonormal frame of GRAM, its
    eigendecomposition, so(g) and the stabilizer read off the spectrum."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    form = q @ np.diag(spectrum) @ q.T
    evals, evecs = np.linalg.eigh(form)
    algebra = skew_algebra(FRAME[None], GRAM[None])
    return form, evals, evecs, algebra[0], intersect_skew(algebra, *ricci_clusters(evals[None])[:2], evecs[None])[0]


@pytest.mark.parametrize("spectrum,dim", [
    ((1.0, 2.0, 3.0), 0), ((-2.0, -2.0, 5.0), 1), ((0.0, -1.0, -1.0), 1), ((-4.0, -4.0, -4.0), 3),
])
def test_stabilizer_dimension_follows_the_eigenvalue_multiplicities(spectrum, dim):
    form, _, _, algebra, space = _stabilizer(spectrum, 5)
    assert len(space) == dim
    assert len(oracles.frame_stabilizer(algebra, form)) == dim
    # the same space as so(g) ∩ so(Ric), with Ric = F^-T S F^-1 in the e-frame
    finv = FRAME.T @ GRAM
    ric = finv.T @ form @ finv
    want = oracles.singer_search_space(GRAM, ric)
    assert len(want) == dim
    if dim:
        assert oracles.span_sine(space, want) <= 1e-12


# tol = RICCI_TOL * 4 = 4e-9 for each spectrum below but the last three
CLUSTER_CASES = [
    ((-4.0, -4.0, -4.0), 3),
    ((-4.0, -4.0 + 1e-9, -4.0 + 3e-9), 3),
    # spread 5.5e-9 is between tol and 2 tol, but both gaps are within tol
    ((-4.0, -4.0 + 2e-9, -4.0 + 5.5e-9), 2),
    ((-4.0, -4.0 + 5e-9, -4.0 + 1e-8), 1),
    ((-2.0, -2.0, 5.0), 2),
    ((-5.0, 1.0, 1.0), 2),
    ((1.0, 2.0, 3.0), 1),
]


@pytest.mark.parametrize("spectrum,multiplicity", CLUSTER_CASES)
def test_ricci_clusters_group_the_eigenvalues_at_ricci_tol(spectrum, multiplicity):
    got, simple, tol = ricci_clusters(np.array(spectrum))
    assert got == multiplicity
    assert tol == RICCI_TOL * max(abs(x) for x in spectrum)
    if multiplicity == 2:
        # the simple eigenvalue is the one across the larger gap
        gaps = np.diff(spectrum)
        assert simple == (2 if gaps[0] <= gaps[1] else 0)


@pytest.mark.parametrize("spectrum,multiplicity", CLUSTER_CASES)
def test_stabilizer_is_read_off_the_clusters(spectrum, multiplicity):
    _, evals, evecs, algebra, space = _stabilizer(spectrum, 11)
    assert len(space) == {3: 3, 2: 1, 1: 0}[multiplicity]
    if multiplicity == 3:
        assert np.array_equal(space, algebra)
    if multiplicity == 2:
        # in the frame, a unit rotation about the simple eigenvector
        rotation = FRAME.T @ GRAM @ space[0] @ FRAME
        simple = evecs[:, ricci_clusters(evals)[1]]
        np.testing.assert_allclose(rotation, -rotation.T, atol=1e-15)
        np.testing.assert_allclose(rotation @ simple, np.zeros(3), atol=1e-15)
        assert abs(np.linalg.norm(rotation) - 1.0) <= 1e-15


def test_snap_tries_the_singular_line_first():
    # Near c = 1 the lines mu = c and mu = (sqrt(c)-1)^2+1 are both within
    # TOL_CASE; the singular line mu = c wins.
    alg = make_algebra_c(1.0 + 1e-8)
    params, moved = snap_parameters(alg, METRIC_MU_NU, {"mu": 1.0 + 5e-9, "nu": 1.0})
    assert moved and params["mu"] == alg.c


@pytest.mark.parametrize("c", [1.0001, 1.002, 1.01])
def test_open_stratum_above_one_keeps_three_samples_near_c_one(c):
    generic = stratum_table("c", c).strata[0]
    assert generic.key == "c>1:mu generic"
    assert len(set(generic.samples)) == 3
    special = (np.sqrt(c) - 1.0) ** 2 + 1.0
    assert all(1.0 < m < c and m != special for m in generic.samples)


def _skew_operator_loop(s):
    op = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            row = 3 * i + j
            for k in range(3):
                for l in range(3):
                    col = 3 * k + l
                    val = 0.0
                    if l == i:
                        val += s[k, j]  # (M^T S)_ij = sum_m M_mi S_mj
                    if l == j:
                        val += s[i, k]  # (S M)_ij  = sum_m S_im M_mj
                    op[row, col] += val
    return op


def test_skew_operator_matches_the_loop():
    rng = np.random.default_rng(0)
    forms = [np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3)), -np.eye(3)]
    for _ in range(500):
        a = rng.normal(size=(3, 3)) * rng.integers(0, 2, size=(3, 3))
        forms.append(0.5 * (a + a.T))
    for s in forms:
        want, got = _skew_operator_loop(s), oracles.skew_operator(s)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
