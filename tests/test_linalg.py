"""Dense-reconstruction oracles for the symmetric-matrix helpers.

Every structured computation is checked against the materialized dense
equivalent built with plain numpy calls.
"""
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import kron_quad_form, rand_spd
from trialmix.linalg import (
    SingularMatrixError,
    inv_spd,
    kron_apply,
    kron_logdet,
    matrix_sqrt,
    regularize_spd,
    sym_eigen,
)
from trialmix.types import MAX_FACTOR_DIM


def test_sym_eigen_reconstructs_and_orders():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        mat = a + a.T
        values, vectors = sym_eigen(mat)
        assert np.all(np.diff(values) <= 0.0)
        recon = (vectors * values) @ vectors.T
        np.testing.assert_allclose(recon, mat, atol=1e-12)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(n), atol=1e-12)


def test_sym_eigen_input_checks():
    with pytest.raises(ValueError, match="square"):
        sym_eigen(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_matrix_sqrt_squares_back():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mat = rand_spd(rng, int(rng.integers(2, 8)))
        root = matrix_sqrt(mat)
        np.testing.assert_allclose(root @ root, mat, atol=1e-10)
        np.testing.assert_allclose(root, root.T, atol=1e-12)


def test_kron_apply_matches_dense_kronecker():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_t, n_e, k = (int(n) for n in rng.integers(1, 6, size=3))
        within, between = rand_spd(rng, n_t), rand_spd(rng, n_e)
        columns = rng.standard_normal((n_e * n_t, k))
        np.testing.assert_allclose(
            kron_apply(between, columns, within),
            np.kron(between, within) @ columns, rtol=0, atol=1e-12)


def test_sqrt_rejects_singular():
    singular = np.ones((3, 3))
    with pytest.raises(SingularMatrixError):
        matrix_sqrt(singular)
    # the error type stays catchable as a numpy linalg failure
    assert issubclass(SingularMatrixError, np.linalg.LinAlgError)


def test_inv_spd_matches_dense_solve():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        mat = rand_spd(rng, n)
        rhs = rng.standard_normal((n, 3))
        np.testing.assert_allclose(
            inv_spd(mat) @ rhs, np.linalg.solve(mat, rhs), atol=1e-10
        )
    with pytest.raises(SingularMatrixError):
        inv_spd(np.zeros((2, 2)))


def test_inv_spd_is_symmetric_inverse():
    rng = np.random.default_rng(4)
    mat = rand_spd(rng, 5)
    inv = inv_spd(mat)
    np.testing.assert_allclose(inv, inv.T, atol=0.0)
    np.testing.assert_allclose(inv @ mat, np.eye(5), atol=1e-10)


def test_regularize_passes_well_conditioned_through():
    rng = np.random.default_rng(5)
    mat = rand_spd(rng, 4)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = regularize_spd(mat)
    np.testing.assert_array_equal(out, mat)


def test_regularize_ridges_indefinite_with_warning():
    mat = np.diag([1.0, -0.5, 2.0])
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        out = regularize_spd(mat, "test")
    assert np.linalg.eigvalsh(out)[0] > 0.0
    # ridge acts on the diagonal only
    np.testing.assert_array_equal(out - np.diag(np.diag(out)), np.zeros((3, 3)))


def test_regularize_zero_matrix_gets_absolute_ridge():
    with pytest.warns(RuntimeWarning):
        out = regularize_spd(np.zeros((2, 2)))
    assert np.linalg.eigvalsh(out)[0] > 0.0


def test_kron_logdet_matches_dense_slogdet():
    rng = np.random.default_rng(6)
    for _ in range(30):
        t = int(rng.integers(2, 5))
        e = int(rng.integers(2, 5))
        within = rand_spd(rng, t)
        between = rand_spd(rng, e)
        sign, dense = np.linalg.slogdet(np.kron(between, within))
        assert sign == 1.0
        assert abs(kron_logdet(between, within) - dense) < 1e-9


def test_kron_logdet_diagonal_hand_value():
    # det(diag(2,3) (x) diag(4,5)) = (2*3)^2 * (4*5)^2 = 14400
    between = np.diag([2.0, 3.0])
    within = np.diag([4.0, 5.0])
    assert abs(kron_logdet(between, within) - np.log(14400.0)) < 1e-12


def test_kron_quad_form_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(30):
        t = int(rng.integers(2, 5))
        e = int(rng.integers(2, 5))
        within = rand_spd(rng, t)
        between = rand_spd(rng, e)
        resid = rng.standard_normal((t, e))
        # epoch-major vectorization stacks the columns of resid
        vec = resid.ravel(order="F")
        dense = np.kron(between, within)
        expected = float(vec @ np.linalg.solve(dense, vec))
        got = kron_quad_form(between, within, resid)
        assert abs(got - expected) < 1e-9 * max(1.0, abs(expected))


def test_kron_quad_form_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="does not match factors"):
        kron_quad_form(np.eye(3), np.eye(2), np.zeros((3, 2)))


FACTOR_SCRIPT = """
import hashlib, sys
import numpy as np
from trialmix.linalg import inv_spd, kron_logdet
random_spd, ar1 = np.load(sys.argv[1])
for out in (inv_spd(random_spd), inv_spd(ar1),
            np.float64(kron_logdet(random_spd, ar1))):
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_factor_inverses_are_bit_identical_across_blas_threads(tmp_path):
    # the covariance factors go through LAPACK (Cholesky, inverse,
    # eigenvalues), which blocks by size; at the largest factor a bundle
    # may have, a random SPD and an AR(1) factor get the same bits at 1
    # and 2 BLAS threads. The factors are made here, once, so that both
    # runs read the same bytes
    n = MAX_FACTOR_DIM
    rng = np.random.default_rng(11)
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    factors = str(tmp_path / "factors.npy")
    np.save(factors, np.stack([rand_spd(rng, n), 0.9 ** lags]))
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", FACTOR_SCRIPT, factors],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests[threads] = proc.stdout.split()
    assert len(digests["1"]) == 3
    assert digests["1"] == digests["2"]
