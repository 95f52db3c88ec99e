"""Symmetric-matrix helpers and Kronecker identities.

The structured covariance of a responding voxel is between_cov (x)
within_cov. Nothing here ever materializes that product; the
log-determinant goes through the factor identity so the cost stays at the
factor dimensions.
"""
from __future__ import annotations

import numpy as np

from .types import _check_symmetric, _intervene, _spd_floor

__all__ = [
    "SingularMatrixError",
    "sym_eigen",
    "matrix_sqrt",
    "inv_sqrt",
    "inv_spd",
    "regularize_spd",
    "kron_logdet",
]

COND_MAX = 1e12
RIDGE_REL = 1e-8
RIDGE_ABS = 1e-12


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix required to be positive definite is not."""


def _check_square_sym(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    _check_symmetric(mat, "matrix")
    return mat


def sym_eigen(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors) of a symmetric matrix, eigenvalues descending."""
    mat = _check_square_sym(mat)
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def _positive_eigen(mat: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """sym_eigen of a factor that passes the positivity rule of
    types._spd_floor, or SingularMatrixError."""
    values, vectors = sym_eigen(mat)
    floor = _spd_floor(mat)
    if values[-1] <= floor:
        raise SingularMatrixError(
            f"{what}: smallest eigenvalue {values[-1]:.3e} below "
            f"positivity floor {floor:.3e}"
        )
    return values, vectors


def matrix_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of an SPD matrix."""
    values, vectors = _positive_eigen(mat, "matrix_sqrt")
    return (vectors * np.sqrt(values)) @ vectors.T


def inv_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of an SPD matrix."""
    values, vectors = _positive_eigen(mat, "inv_sqrt")
    return (vectors / np.sqrt(values)) @ vectors.T


def regularize_spd(mat: np.ndarray, where: str = "") -> np.ndarray:
    """Return an SPD version of a symmetric matrix, ridging if needed.

    A ridge of RIDGE_REL * trace/dim (absolute floor for zero matrices) is
    added when the matrix is singular, indefinite, or has condition number
    above COND_MAX; a warning is emitted. Well-conditioned input passes
    through unchanged.
    """
    mat = _check_square_sym(mat)
    vals = np.linalg.eigvalsh(mat)
    lo, hi = float(vals[0]), float(vals[-1])
    ok = lo > 0.0 and hi / lo <= COND_MAX
    if ok:
        return mat
    dim = mat.shape[0]
    scale = float(np.trace(mat)) / dim
    ridge = RIDGE_REL * scale if scale > 0.0 else RIDGE_ABS
    bump = max(ridge, -lo + ridge) if lo <= 0.0 else ridge
    _intervene(
        f"ill-conditioned matrix{' in ' + where if where else ''}: "
        f"eigenvalues in [{lo:.3e}, {hi:.3e}], adding ridge {bump:.3e}"
    )
    return mat + bump * np.eye(dim)


def inv_spd(mat: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix via Cholesky, inv(L)' inv(L) for
    mat = L L', symmetrized against roundoff; SingularMatrixError when
    the factorization fails."""
    mat = _check_square_sym(mat)
    try:
        low = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"inv_spd: {exc}") from exc
    # np.linalg.inv, not a triangular solve, as in em._solve_pencil
    inv_low = np.linalg.inv(low)
    inv = inv_low.T @ inv_low
    return 0.5 * (inv + inv.T)


def kron_logdet(between: np.ndarray, within: np.ndarray) -> float:
    """log det of between (x) within via the factor identity."""
    n_times = within.shape[0]
    n_epochs = between.shape[0]
    vals_b, _ = _positive_eigen(between, "kron_logdet(between)")
    vals_w, _ = _positive_eigen(within, "kron_logdet(within)")
    return float(
        n_times * np.sum(np.log(vals_b)) + n_epochs * np.sum(np.log(vals_w))
    )

