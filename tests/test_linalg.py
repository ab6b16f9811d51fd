import numpy as np

from lieiso.linalg import rank_and_kernel


def test_wide_matrix_keeps_every_null_vector():
    # 2 x 5 of rank 2: a thin SVD would return only 2 rows of vt and lose
    # all 3 null vectors, so wide matrices must get the full SVD.
    m = np.array([[1.0, 2.0, 0.0, -1.0, 3.0], [0.0, 1.0, 4.0, 2.0, -1.0]])
    rank, kernel = rank_and_kernel(m)
    assert rank == 2
    assert kernel.shape == (3, 5)
    np.testing.assert_allclose(kernel @ kernel.T, np.eye(3), atol=1e-12)
    for v in kernel:
        np.testing.assert_allclose(m @ v, np.zeros(2), atol=1e-12)


def test_tall_matrix_matches_the_full_svd():
    # the shape of the stacked Singer constraints: 3^4 + 3^5 + 3^6 rows
    rng = np.random.default_rng(7)
    m = rng.standard_normal((1053, 2)) @ rng.standard_normal((2, 3))
    rank, kernel = rank_and_kernel(m)
    _, s, vt = np.linalg.svd(m)
    full_rank = int(np.sum(s > 1e-9 * np.max(np.abs(m))))
    assert rank == full_rank == 2
    assert kernel.shape == (1, 3)
    np.testing.assert_allclose(kernel.T @ kernel, vt[rank:].T @ vt[rank:], atol=1e-12)
    np.testing.assert_allclose(m @ kernel[0], np.zeros(1053), atol=1e-9)
