import numpy as np
import pytest

from iterreg.linalg import jacobi_eigh


def test_matches_lapack_on_random_symmetric():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 12, 30, 200):
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        vals, vecs = jacobi_eigh(a)
        ref = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(vals, ref, atol=1e-12 * max(1, np.abs(ref).max()))
        # orthonormal basis, exact reconstruction
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-11)


def test_gram_with_exact_null_eigenvalue():
    a = np.random.default_rng(1).standard_normal((199, 199))
    gram = np.zeros((200, 200))
    gram[:-1, :-1] = a @ a.T / 200
    vals, vecs = jacobi_eigh(gram)
    assert abs(vals[0]) <= 1e-12 and vals[1] > 1e-6
    np.testing.assert_allclose(np.abs(vecs[:, 0]), np.eye(200)[:, -1], atol=1e-12)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(200), atol=1e-12)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, gram, atol=1e-11)


def test_diagonal_input_is_fixed_point():
    vals, vecs = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    np.testing.assert_allclose(vals, [-1.0, 2.0, 3.0])
    np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-15)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        jacobi_eigh(np.ones((2, 3)))
