"""Symmetric eigendecomposition of Gram matrices, by LAPACK."""

from __future__ import annotations

import numpy as np

__all__ = ["jacobi_eigh"]


def jacobi_eigh(matrix: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors U, A = U diag(w) U^T.

    A checked call to ``np.linalg.eigh``, which reads only the lower
    triangle; callers validate symmetry.  The name is kept from an earlier
    Jacobi solver because the benchmark's per-layer tracer finds it by it.
    Raises ValueError on non-square input.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return np.linalg.eigh(a)
