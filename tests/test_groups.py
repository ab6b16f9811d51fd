import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from lieiso.algebra import make_algebra_I, make_algebra_c
from lieiso.curvature import constant_sectional, curvature, levi_civita, ricci
from lieiso.groups import (
    FD_STEP,
    FD_STEP_CURVATURE,
    bracket_field_residual,
    generator_block,
    killing_residual,
    left_frame,
    metric_field,
    numeric_ricci,
    numeric_ricci_frame,
    phi,
    right_frame,
    right_invariant_field,
)
from lieiso.metrics import metric_from_table
from oracles import inverse, left_invariant_field, multiply, numeric_sectional

ALL_ALGEBRAS = [
    make_algebra_I(),
    make_algebra_c(-2.0),
    make_algebra_c(0.0),
    make_algebra_c(0.25),
    make_algebra_c(1.0),
    make_algebra_c(4.0),
]


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.family}:{a.c}")
def test_phi_is_a_one_parameter_group(alg):
    np.testing.assert_allclose(phi(alg, 0.0), np.eye(2), atol=1e-14)
    for s, t in [(0.3, 0.5), (-0.7, 1.1), (0.25, -0.25)]:
        np.testing.assert_allclose(
            phi(alg, s + t), phi(alg, s) @ phi(alg, t), atol=1e-12
        )
    # derivative at 0 is the generator block
    h = 1e-6
    dphi = (phi(alg, h) - phi(alg, -h)) / (2.0 * h)
    np.testing.assert_allclose(dphi, generator_block(alg), atol=1e-9)


@pytest.mark.parametrize("c", [-2.0, 0.0, 0.25, 1.0, 4.0])
def test_generator_block_entries(c):
    np.testing.assert_allclose(
        generator_block(make_algebra_c(c)), np.array([[0.0, -c], [1.0, 2.0]])
    )


def test_c_zero_multiplication_closed_form():
    # At c = 0 the product has the elementary closed form
    # (x * y)_1 = x_1 + e^{2 x_2} (y_0 + 2 y_1) / 2 - y_0 / 2.
    alg = make_algebra_c(0.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        got = multiply(alg, x, y)
        want = np.array(
            [
                x[0] + y[0],
                x[1] + math.exp(2.0 * x[2]) * (y[0] + 2.0 * y[1]) / 2.0 - y[0] / 2.0,
                x[2] + y[2],
            ]
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.family}:{a.c}")
def test_group_axioms(alg):
    rng = np.random.default_rng(1)
    zero = np.zeros(3)
    for _ in range(5):
        p, q, r = rng.uniform(-0.8, 0.8, (3, 3))
        np.testing.assert_allclose(multiply(alg, p, zero), p, atol=1e-13)
        np.testing.assert_allclose(multiply(alg, zero, p), p, atol=1e-13)
        np.testing.assert_allclose(
            multiply(alg, p, inverse(alg, p)), zero, atol=1e-12
        )
        np.testing.assert_allclose(
            multiply(alg, multiply(alg, p, q), r),
            multiply(alg, p, multiply(alg, q, r)),
            atol=1e-12,
        )


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.family}:{a.c}")
def test_left_frame_brackets_match_structure_constants(alg):
    for p in [np.zeros(3), np.array([0.3, -0.2, 0.4]), np.array([-0.5, 0.1, -0.6])]:
        assert bracket_field_residual(alg, p) <= 1e-4


def test_right_frame_components():
    # r_2 at p moves the fiber coordinates by the generator block.
    alg = make_algebra_c(0.5)
    p = np.array([0.7, -0.3, 0.9])
    frame = right_frame(alg, p)
    np.testing.assert_allclose(frame[:, 0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(frame[:, 1], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(frame[:2, 2], generator_block(alg) @ p[:2])
    assert frame[2, 2] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "alg,kwargs",
    [
        (make_algebra_I(), dict(nu=1.5)),
        (make_algebra_c(-2.0), dict(mu=1.2, nu=0.8)),
        (make_algebra_c(0.0), dict(mu=0.7, nu=1.3)),
        (make_algebra_c(0.25), dict(mu=0.4, nu=1.0)),
        (make_algebra_c(1.0), dict(mu=0.6, nu=2.0)),
        (make_algebra_c(1.0), dict(lam=0.3, nu=1.0)),
        (make_algebra_c(4.0), dict(mu=2.5, nu=0.7)),
    ],
    ids=["I", "c=-2", "c=0", "c=0.25", "c=1:diag", "c=1:lam", "c=4"],
)
def test_right_fields_are_killing(alg, kwargs):
    g = metric_from_table(alg, **kwargs)
    p = np.array([0.2, 0.1, -0.3])
    for i in range(3):
        field = right_invariant_field(alg, np.eye(3)[i])
        assert killing_residual(alg, g, field, p) <= 1e-5


def test_generic_left_fields_are_not_killing():
    # Left translations act on the other side: a generic left-invariant field
    # does not preserve the metric, which keeps the two frames honest.
    alg = make_algebra_c(0.0)
    g = metric_from_table(alg, mu=1.0, nu=1.0)
    p = np.array([0.2, 0.1, -0.3])
    assert killing_residual(alg, g, left_invariant_field(alg, np.eye(3)[0]), p) > 0.1
    assert killing_residual(alg, g, left_invariant_field(alg, np.eye(3)[2]), p) > 0.1


def test_metric_field_restores_frame_components():
    alg = make_algebra_c(0.25)
    g = metric_from_table(alg, mu=0.4, nu=1.0)
    p = np.array([0.5, -0.2, 0.3])
    e = left_frame(alg, p)
    np.testing.assert_allclose(e.T @ metric_field(alg, g, p) @ e, g.coeffs, atol=1e-12)


@pytest.mark.parametrize(
    "alg,kwargs",
    [
        (make_algebra_I(), dict(nu=1.5)),
        (make_algebra_c(-2.0), dict(mu=1.2, nu=0.8)),
        (make_algebra_c(0.0), dict(mu=0.7, nu=1.3)),
        (make_algebra_c(0.25), dict(mu=0.4, nu=1.0)),
        (make_algebra_c(1.0), dict(lam=0.3, nu=1.0)),
        (make_algebra_c(4.0), dict(mu=2.5, nu=0.7)),
    ],
    ids=["I", "c=-2", "c=0", "c=0.25", "c=1:lam", "c=4"],
)
def test_numeric_ricci_matches_algebraic(alg, kwargs):
    # Differencing the coordinate metric field on the group chart recovers
    # the structure-constant Ricci once expressed in the moving frame; the
    # frame version is p-independent.
    g = metric_from_table(alg, **kwargs)
    expected = ricci(curvature(levi_civita(alg, g.coeffs), alg))
    np.testing.assert_allclose(numeric_ricci(alg, g, np.zeros(3)), expected, atol=1e-3)
    for p in [np.zeros(3), np.array([0.4, -0.1, 0.25])]:
        np.testing.assert_allclose(numeric_ricci_frame(alg, g, p), expected, atol=1e-3)


def test_numeric_sectional_for_hyperbolic_metric():
    alg = make_algebra_I()
    nu = 2.0
    g = metric_from_table(alg, nu=nu)
    rng = np.random.default_rng(3)
    for _ in range(3):
        p = rng.uniform(-0.4, 0.4, 3)
        x, y = rng.standard_normal((2, 3))
        assert numeric_sectional(alg, g, p, x, y) == pytest.approx(
            -1.0 / nu, abs=1e-4
        )
    curv = curvature(levi_civita(alg, g.coeffs), alg)
    assert constant_sectional(curv, g) == pytest.approx(-1.0 / nu, abs=1e-12)


@hyp_settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3), st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
def test_phi_determinant_tracks_the_trace(c, s, t):
    # det phi(t) = e^{2t} since the generator has trace 2; checked on sums so
    # the three chart branches (c < 1, c = 1, c > 1) all get exercised.
    alg = make_algebra_c(c)
    assert np.linalg.det(phi(alg, s + t)) == pytest.approx(
        math.exp(2.0 * (s + t)), rel=1e-9
    )


# ---------------------------------------------------------------------------
# The stacked stencils against the scalar loop they replaced: one metric field
# per stencil point, each term added in stencil order.

_STENCIL_1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # /(12 h)

CATALOG_METRICS = {  # keyed by c, None for family I
    None: dict(nu=1.5),
    -2.0: dict(mu=1.2, nu=0.8),
    0.0: dict(mu=0.7, nu=1.3),
    0.25: dict(mu=0.4, nu=1.0),
    1.0: dict(lam=0.3, nu=1.0),
    4.0: dict(mu=2.5, nu=0.7),
}


def _fd1(f, p, axis, h):
    acc = None
    for offset, w in _STENCIL_1:
        q = np.array(p, float)
        q[axis] += offset * h
        term = w * np.asarray(f(q), float)
        acc = term if acc is None else acc + term
    return acc / (12.0 * h)


def _frame_at(alg, p):
    frame = np.eye(3)
    frame[:2, :2] = phi(alg, p[2])
    return frame


def _metric_at(alg, g, p):
    e_inv = np.linalg.inv(_frame_at(alg, p))
    return e_inv.T @ g.coeffs @ e_inv


def _christoffels_at(alg, g, p, h):
    gp = _metric_at(alg, g, p)
    dg = np.array([_fd1(lambda q: _metric_at(alg, g, q), p, a, h) for a in range(3)])
    lowered = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(gp), lowered)


def _ricci_frame_at(alg, g, p):
    h = FD_STEP_CURVATURE
    gamma = _christoffels_at(alg, g, p, h)
    dgamma = np.array([_fd1(lambda q: _christoffels_at(alg, g, q, h), p, a, h) for a in range(3)])
    d_term = np.einsum("iljk->ijkl", dgamma)
    quad = np.einsum("lim,mjk->ijkl", gamma, gamma)
    comps = d_term - d_term.transpose(1, 0, 2, 3) + quad - quad.transpose(1, 0, 2, 3)
    frame = _frame_at(alg, p)
    return frame.T @ np.einsum("ijki->jk", comps) @ frame


def _right_frame_at(alg, p):
    frame = np.eye(3)
    frame[:2, 2] = generator_block(alg) @ p[:2]
    return frame


def _killing_residual_at(alg, g, field, p):
    h = FD_STEP
    gp = _metric_at(alg, g, p)
    xp = np.asarray(field(p), float)
    dg = np.array([_fd1(lambda q: _metric_at(alg, g, q), p, a, h) for a in range(3)])
    dx = np.array([_fd1(field, p, a, h) for a in range(3)])
    lie = np.einsum("m,mij->ij", xp, dg)
    lie += np.einsum("mj,im->ij", gp, dx)
    lie += np.einsum("im,jm->ij", gp, dx)
    return float(np.max(np.abs(lie)))


def _bracket_residual_at(alg, p):
    h = FD_STEP
    frame_p = _frame_at(alg, p)
    fields = [lambda q, i=i: _frame_at(alg, q)[:, i] for i in range(3)]
    dX = np.array([[_fd1(fields[j], p, a, h) for a in range(3)] for j in range(3)])
    worst = 0.0
    for i in range(3):
        for j in range(3):
            lie = frame_p[:, i] @ dX[j] - frame_p[:, j] @ dX[i]
            expected = frame_p @ alg.structure[i, j]
            worst = max(worst, float(np.max(np.abs(lie - expected))))
    return worst


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.family}:{a.c}")
def test_stacked_oracles_equal_the_scalar_loop(alg):
    # Seeded points in every group: the stacked oracles must reproduce the
    # scalar stencil bit for bit, not just to a tolerance.  The bracket
    # residual is cheap and a layout change moves it on one point in about
    # fifty, so it gets more points.
    g = metric_from_table(alg, **CATALOG_METRICS[alg.c])
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.uniform(-0.4, 0.4, 3)
        v = rng.standard_normal(3)
        assert np.array_equal(numeric_ricci_frame(alg, g, p), _ricci_frame_at(alg, g, p))
        assert killing_residual(alg, g, right_invariant_field(alg, v), p) == _killing_residual_at(
            alg, g, lambda q: _right_frame_at(alg, q) @ v, p
        )
    for p in rng.uniform(-0.4, 0.4, (200, 3)):
        assert bracket_field_residual(alg, p) == _bracket_residual_at(alg, p)


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.family}:{a.c}")
def test_frames_and_metric_on_a_stack_equal_the_per_point_calls(alg):
    g = metric_from_table(alg, **CATALOG_METRICS[alg.c])
    points = np.random.default_rng(12).uniform(-0.8, 0.8, (20, 3))
    points[:5, 2] = points[5:10, 2]  # repeated x2 values share one phi
    for f, reference in [
        (lambda q: left_frame(alg, q), lambda q: _frame_at(alg, q)),
        (lambda q: metric_field(alg, g, q), lambda q: _metric_at(alg, g, q)),
        (lambda q: right_frame(alg, q), lambda q: _right_frame_at(alg, q)),
    ]:
        want = np.array([f(q) for q in points])
        assert np.array_equal(want, np.array([reference(q) for q in points]))
        assert np.array_equal(f(points), want)
        assert np.array_equal(f(points.reshape(4, 5, 3)), want.reshape(4, 5, 3, 3))
