"""Symmetric-matrix helpers and Kronecker identities.

The structured covariance of a responding voxel is between_cov (x)
within_cov. Nothing here ever materializes that product; the
log-determinant goes through the factor identity so the cost stays at the
factor dimensions.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "SingularMatrixError",
    "SymEigen",
    "sym_eigen",
    "matrix_sqrt",
    "inv_sqrt",
    "inv_spd",
    "solve_spd",
    "regularize_spd",
    "kron_logdet",
]

MAX_DIM = 64
SYM_TOL = 1e-12
COND_MAX = 1e12
RIDGE_REL = 1e-8
RIDGE_ABS = 1e-12


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix required to be positive definite is not."""


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition with eigenvalues in descending order."""

    values: np.ndarray
    vectors: np.ndarray


def _check_square_sym(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {mat.shape[0]} exceeds supported maximum {MAX_DIM}")
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
    if float(np.max(np.abs(mat - mat.T))) > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return mat


def sym_eigen(mat: np.ndarray) -> SymEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    mat = _check_square_sym(mat)
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    return SymEigen(values=vals[order], vectors=vecs[:, order])


def _positive_eigen(mat: np.ndarray, what: str) -> SymEigen:
    eig = sym_eigen(mat)
    dim = mat.shape[0]
    floor = 1e-12 * max(float(np.trace(mat)), 0.0) / dim
    if eig.values[-1] <= floor:
        raise SingularMatrixError(
            f"{what}: smallest eigenvalue {eig.values[-1]:.3e} below "
            f"positivity floor {floor:.3e}"
        )
    return eig


def matrix_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of an SPD matrix."""
    eig = _positive_eigen(mat, "matrix_sqrt")
    return (eig.vectors * np.sqrt(eig.values)) @ eig.vectors.T


def inv_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of an SPD matrix."""
    eig = _positive_eigen(mat, "inv_sqrt")
    return (eig.vectors / np.sqrt(eig.values)) @ eig.vectors.T


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
    warnings.warn(
        f"ill-conditioned matrix{' in ' + where if where else ''}: "
        f"eigenvalues in [{lo:.3e}, {hi:.3e}], adding ridge {bump:.3e}",
        RuntimeWarning,
        stacklevel=2,
    )
    return mat + bump * np.eye(dim)


def solve_spd(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ x = rhs for SPD mat via Cholesky."""
    mat = _check_square_sym(mat)
    try:
        factor = scipy.linalg.cho_factor(mat, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"solve_spd: {exc}") from exc
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def inv_spd(mat: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix, symmetrized against roundoff."""
    inv = solve_spd(mat, np.eye(mat.shape[0]))
    return 0.5 * (inv + inv.T)


def kron_logdet(between: np.ndarray, within: np.ndarray) -> float:
    """log det of between (x) within via the factor identity."""
    n_times = within.shape[0]
    n_epochs = between.shape[0]
    eig_b = _positive_eigen(between, "kron_logdet(between)")
    eig_w = _positive_eigen(within, "kron_logdet(within)")
    return float(
        n_times * np.sum(np.log(eig_b.values))
        + n_epochs * np.sum(np.log(eig_w.values))
    )

