"""Eigensolver contract of the stacked LAPACK path, dims 1..8 and 12."""

import numpy as np
import pytest

from crosspeak import kernels


def random_hermitian(rng, n, d, scale=1.0):
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return scale * (a + a.conj().transpose(0, 2, 1)) / 2


@pytest.mark.parametrize("d", [*range(1, 9), 12])
def test_matches_numpy_all_dims(rng, d):
    h = random_hermitian(rng, 40, d, scale=1e3)
    vals, vecs = kernels.eigh_stack(h)
    ref = np.linalg.eigvalsh(h)
    assert np.max(np.abs(vals - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
    # defining residual and orthonormality, not vector equality (gauge freedom)
    resid = np.matmul(h, vecs) - vals[:, None, :] * vecs
    assert np.max(np.abs(resid)) <= 1e-6 * max(1.0, np.max(np.abs(h)))
    gram = np.matmul(vecs.conj().transpose(0, 2, 1), vecs)
    assert np.max(np.abs(gram - np.eye(d))) < 1e-9


def test_values_ascending(rng):
    h = random_hermitian(rng, 25, 6)
    vals, _ = kernels.eigh_stack(h, compute_vectors=False)
    assert np.all(np.diff(vals, axis=1) >= -1e-12)


def test_input_not_mutated(rng):
    h = random_hermitian(rng, 8, 5)
    kept = h.copy()
    kernels.eigh_stack(h)
    kernels.eigh_stack(h, compute_vectors=False)
    assert np.array_equal(h, kept)


def test_degenerate_spectrum(rng):
    # NV-like: one zero and a repeated 2870 pair, plus an exact repeat stack
    h = np.zeros((2, 3, 3), dtype=complex)
    h[0] = np.diag([0.0, 2870.0, 2870.0])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    h[1] = q @ np.diag([5.0, 5.0, 5.0]) @ q.conj().T
    vals, vecs = kernels.eigh_stack(h)
    assert np.allclose(vals[0], [0.0, 2870.0, 2870.0], atol=1e-9)
    assert np.allclose(vals[1], [5.0, 5.0, 5.0], atol=1e-9)
    gram = vecs[1].conj().T @ vecs[1]
    assert np.max(np.abs(gram - np.eye(3))) < 1e-9


def test_single_matrix_wrapper():
    vals, vecs = kernels.eigh(np.array([[0.0, 5.0], [5.0, 0.0]]))
    assert np.allclose(vals, [-5.0, 5.0])
    assert vecs.shape == (2, 2)


def test_python_fallback_rejects_non_stack():
    with pytest.raises(ValueError):
        kernels.eigh_stack(np.eye(3))
