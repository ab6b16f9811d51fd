"""Catalog inputs over the decades 1e-8 ... 1e8 classify right.

At c = -2, 0, 0.25 and 4, mu and nu run over the decades (mu as the
distance from the lower end of its range where that end is not 0, plus the
boundary lines).  Some Gram matrices are rejected when built (ROADMAP item
14); every input whose metric builds must classify to the (isometry group,
index of symmetry) that the paper's table gives its stratum, with no
LieIsoError.  Its Ricci stabilizer, read off the spectrum, must have the
dimension of the 9x3 rank decision of ``oracles``, and its isotropy (0, 1
or 3) the dimension that the SVD solve of ``oracles`` finds on that
reference stabilizer, with nabla^2 R among the Singer conditions or not.
"""

import numpy as np
import pytest

from lieiso.algebra import make_algebra_c
from lieiso.curvature import levi_civita
from lieiso.errors import LieIsoError
from lieiso.isometry import analyze_metrics, classify_isometry_group, killing_algebra
from lieiso.metrics import intersect_skew, metric_from_table, ricci_clusters, skew_algebra, stratum_table
from lieiso.symmetry import index_of_symmetry
from oracles import curvature_jets, frame_stabilizer, solve_singer

DECADES = [10.0 ** k for k in range(-8, 9)]

#: (isometry group, index of symmetry) of each stratum, from the paper's table.
EXPECTED = {
    "c<0:mu<|c|": ("TranslationsOnly", 0),
    "c<0:mu=|c|": ("TranslationsOnly", 1),
    "c=0:g_mu_nu": ("Product_SO2", 1),
    "c=0:g_nu": ("E1_x_SO21", 3),
    "0<c<1:mu=0": ("TranslationsOnly", 1),
    "0<c<1:mu generic": ("TranslationsOnly", 0),
    "0<c<1:mu=sqrt(c)": ("TranslationsOnly", 1),
    "c>1:mu generic": ("TranslationsOnly", 0),
    "c>1:mu special": ("TranslationsOnly", 1),
    "c>1:mu=c": ("SO31", 3),
}

MU = {
    -2.0: [2.0 * d for d in DECADES if d <= 1.0],
    0.0: DECADES,
    0.25: [0.0, 0.5] + [d for d in DECADES if d < 1.0],
    4.0: [2.0] + [1.0 + 3.0 * d for d in DECADES if d <= 1.0],
}


def _params(c):
    params = [{"mu": mu, "nu": nu} for mu in MU[c] for nu in DECADES]
    if c == 0.0:
        params += [{"nu": nu} for nu in DECADES]
    return params


def _metrics(alg, c):
    gs = []
    for params in _params(c):
        try:
            gs.append(metric_from_table(alg, **params))
        except LieIsoError:
            pass  # a Gram matrix singular at the rank cutoff is rejected when built
    assert len(gs) > len(_params(c)) // 2
    return gs


def _outcome(a):
    try:
        tag = classify_isometry_group(a).group_tag.value
        killing_algebra(a)
        return tag, index_of_symmetry(a).index
    except LieIsoError as exc:
        return str(exc)


@pytest.mark.parametrize("c", sorted(MU))
def test_decade_sweep_classifies_right_or_raises(c):
    alg = make_algebra_c(c)
    table = stratum_table("c", c)
    gs = _metrics(alg, c)
    wrong = []  # a raise shows here with its message
    for g, a in zip(gs, analyze_metrics(alg, gs)):
        got, want = _outcome(a), EXPECTED[table.locate(g).key]
        if got != want:
            wrong.append((g.params, got, want))
    assert wrong == []


@pytest.mark.parametrize("c", sorted(MU))
def test_decade_sweep_isotropy_has_the_dimension_of_the_svd_solve(c):
    # the stabilizer read off the Ricci spectrum against the 9x3 rank
    # decision; the residual test keeps the whole stabilizer or none of it,
    # against the SVD solve of the Singer system on the reference stabilizer,
    # which nabla^2 R does not change (g_2 = g_1)
    alg = make_algebra_c(c)
    gs = _metrics(alg, c)
    grams = np.stack([g.coeffs for g in gs])
    conn = levi_civita(alg, grams)
    tensors = curvature_jets(conn, alg)
    analyses = analyze_metrics(alg, gs)
    linv = np.linalg.inv(np.linalg.cholesky(grams))
    frames = np.swapaxes(linv, -1, -2)
    forms = linv @ np.stack([a.ric for a in analyses]) @ frames
    forms = 0.5 * (forms + np.swapaxes(forms, -1, -2))
    evals, evecs = np.linalg.eigh(forms)
    algebras = skew_algebra(frames, grams)
    mismatched = []
    for n, (g, a, space) in enumerate(zip(gs, analyses, intersect_skew(algebras, *ricci_clusters(evals)[:2], evecs))):
        reference = frame_stabilizer(algebras[n], forms[n])
        g2 = solve_singer(reference, [t[n] for t in tensors])
        g1 = solve_singer(reference, [t[n] for t in tensors[:2]])
        if len(space) != len(reference) or len(a.isotropy) not in (0, 1, 3) or not len(a.isotropy) == len(g1) == len(g2):
            mismatched.append(g.params)
    assert mismatched == []
