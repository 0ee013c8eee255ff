"""Stacked Hermitian eigensolver on numpy's LAPACK path.

``eigh_stack`` returns ascending eigenvalues and orthonormal column
eigenvectors for a stack of matrices; ``eigh`` is its single-matrix form.
"""

import numpy as np


def eigh_stack(h, compute_vectors=True):
    """Eigendecompose a stack (n, d, d) of Hermitian matrices.

    Returns (vals, vecs): ascending eigenvalues (n, d) and column
    eigenvectors (n, d, d), vecs None when compute_vectors is False.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError("expected a stack of square matrices")
    if compute_vectors:
        return np.linalg.eigh(h)
    return np.linalg.eigvalsh(h), None


def eigh(h):
    """Eigendecompose a single Hermitian matrix (d, d)."""
    vals, vecs = eigh_stack(np.asarray(h)[None, :, :])
    return vals[0], vecs[0]
