"""Eigensolver backend contract: compiled kernel vs numpy, dims 1..8."""

import subprocess
import sys

import numpy as np
import pytest

from crosspeak import kernels
from crosspeak import _kernels_py


def random_hermitian(rng, n, d, scale=1.0):
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return scale * (a + a.conj().transpose(0, 2, 1)) / 2


@pytest.mark.parametrize("d", range(1, 9))
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
    vals, vecs = kernels.eigh(np.diag([1.0, 2.0]), compute_vectors=False)
    assert vecs is None


def test_large_dim_falls_through_to_numpy(rng):
    h = random_hermitian(rng, 4, 12)
    vals, _ = kernels.eigh_stack(h)
    assert np.allclose(vals, np.linalg.eigvalsh(h), atol=1e-9)


def test_backends_agree(rng):
    h = random_hermitian(rng, 30, 6, scale=3e3)
    vals_a, _ = kernels.eigh_stack(h, compute_vectors=False)
    vals_b, _ = _kernels_py.eigh_stack(h, compute_vectors=False)
    assert np.max(np.abs(vals_a - vals_b)) <= 1e-9 * np.max(np.abs(vals_b))


def test_python_fallback_rejects_non_stack():
    with pytest.raises(ValueError):
        _kernels_py.eigh_stack(np.eye(3))


@pytest.mark.skipif(kernels.BACKEND != "cython", reason="extension not built")
def test_compiled_kernel_rejects_oversize(rng):
    from crosspeak import _kernels

    with pytest.raises(ValueError):
        _kernels.eigh_stack(random_hermitian(rng, 2, 9))


def test_pure_py_env_forces_fallback(package_env):
    code = (
        "from crosspeak import kernels; import numpy as np; "
        "print(kernels.BACKEND); "
        "v, _ = kernels.eigh(np.array([[0.0, 2.0], [2.0, 0.0]])); "
        "assert np.allclose(v, [-2.0, 2.0])"
    )
    env = dict(package_env, CROSSPEAK_PURE_PY="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "python"
