"""Batched per-voxel contractions used by the E- and M-steps.

Two interchangeable backends implement the same three kernels: a numba
@njit path parallelized over voxels and a pure-numpy path built on flat
GEMMs. The environment variable TRIALMIX_KERNELS selects one ("numba",
"numpy", or "auto", the default, which takes numba when importable).

No reduction over the voxel axis goes through a BLAS GEMV or dot: BLAS
splits those reductions by thread count, so their last bits would change
with OPENBLAS_NUM_THREADS. Per-voxel sums are np.einsum row dots, and
sums over voxels are np.einsum with a fixed order or a GEMM, whose
threads split the output and not the sum, so outputs are bit-identical
across runs and thread counts for a given backend.

resid arrays have shape (n_voxels, n_epochs, n_times); w_within is the
inverse of the within-epoch factor (n_times, n_times) and w_between the
inverse of the between-epoch factor (n_epochs, n_epochs).
"""
from __future__ import annotations

import os

import numpy as np

__all__ = [
    "backend_name",
    "set_num_threads",
    "quad_forms_kron",
    "scatter_within",
    "scatter_between",
    "quad_forms_kron_numpy",
    "scatter_within_numpy",
    "scatter_between_numpy",
]

_requested = os.environ.get("TRIALMIX_KERNELS", "auto").strip().lower()
if _requested not in ("auto", "numba", "numpy"):
    raise ValueError(
        f"TRIALMIX_KERNELS={_requested!r} not one of auto, numba, numpy"
    )

_HAVE_NUMBA = False
if _requested in ("auto", "numba"):
    try:
        import numba as _nb

        _HAVE_NUMBA = True
    except ImportError:
        if _requested == "numba":
            raise
        _HAVE_NUMBA = False


def backend_name() -> str:
    """Name of the active kernel backend."""
    return "numba" if _HAVE_NUMBA else "numpy"


def set_num_threads(n: int) -> None:
    """Limit the numba thread pool. No-op on the numpy backend."""
    if n < 1:
        raise ValueError("thread count must be at least 1")
    if _HAVE_NUMBA:
        _nb.set_num_threads(min(n, _nb.config.NUMBA_NUM_THREADS))


def quad_forms_kron_numpy(
    resid: np.ndarray, w_within: np.ndarray, w_between: np.ndarray
) -> np.ndarray:
    """Per-voxel quadratic forms under the inverse Kronecker covariance."""
    n_vox, _, n_t = resid.shape
    tmp = (resid.reshape(-1, n_t) @ w_within).reshape(resid.shape)
    tmp = w_between @ tmp
    return np.einsum("vn,vn->v", tmp.reshape(n_vox, -1), resid.reshape(n_vox, -1))


def scatter_within_numpy(
    resid: np.ndarray, w_between: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted within-epoch scatter: sum_v weights[v] R_v' w_between R_v.

    R_v is the (n_times, n_epochs) residual matrix of voxel v; the result
    is (n_times, n_times).
    """
    n_t = resid.shape[2]
    weighted = w_between @ resid
    weighted *= weights[:, None, None]
    return weighted.reshape(-1, n_t).T @ resid.reshape(-1, n_t)


def scatter_between_numpy(
    resid: np.ndarray, w_within: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted between-epoch scatter: sum_v weights[v] R_v' w_within R_v
    taken on the epoch side; result is (n_epochs, n_epochs)."""
    partial = np.einsum("vjs,st,vkt->vjk", resid, w_within, resid, optimize=True)
    return np.einsum("v,vjk->jk", weights, partial)


if _HAVE_NUMBA:

    @_nb.njit(parallel=True, cache=True)
    def _quad_forms_kron_nb(resid, w_within, w_between):  # pragma: no cover
        n_vox, n_ep, n_t = resid.shape
        out = np.empty(n_vox)
        for v in _nb.prange(n_vox):
            tmp = np.empty((n_ep, n_t))
            for j in range(n_ep):
                for t in range(n_t):
                    acc = 0.0
                    for s in range(n_t):
                        acc += resid[v, j, s] * w_within[s, t]
                    tmp[j, t] = acc
            total = 0.0
            for j in range(n_ep):
                for k in range(n_ep):
                    dot = 0.0
                    for t in range(n_t):
                        dot += tmp[j, t] * resid[v, k, t]
                    total += w_between[j, k] * dot
            out[v] = total
        return out

    @_nb.njit(parallel=True, cache=True)
    def _scatter_within_nb(resid, w_between, weights):  # pragma: no cover
        n_vox, n_ep, n_t = resid.shape
        partial = np.zeros((n_vox, n_t, n_t))
        for v in _nb.prange(n_vox):
            if weights[v] == 0.0:
                continue
            tmp = np.zeros((n_ep, n_t))
            for k in range(n_ep):
                for j in range(n_ep):
                    w = w_between[j, k]
                    for s in range(n_t):
                        tmp[k, s] += w * resid[v, j, s]
            for k in range(n_ep):
                for s in range(n_t):
                    ts = weights[v] * tmp[k, s]
                    for t in range(n_t):
                        partial[v, s, t] += ts * resid[v, k, t]
        return partial

    @_nb.njit(parallel=True, cache=True)
    def _scatter_between_nb(resid, w_within, weights):  # pragma: no cover
        n_vox, n_ep, n_t = resid.shape
        partial = np.zeros((n_vox, n_ep, n_ep))
        for v in _nb.prange(n_vox):
            if weights[v] == 0.0:
                continue
            tmp = np.empty((n_ep, n_t))
            for j in range(n_ep):
                for t in range(n_t):
                    acc = 0.0
                    for s in range(n_t):
                        acc += resid[v, j, s] * w_within[s, t]
                    tmp[j, t] = acc
            for j in range(n_ep):
                for k in range(n_ep):
                    dot = 0.0
                    for t in range(n_t):
                        dot += tmp[j, t] * resid[v, k, t]
                    partial[v, j, k] = weights[v] * dot
        return partial

    def quad_forms_kron_numba(resid, w_within, w_between):
        resid = np.ascontiguousarray(resid)
        return _quad_forms_kron_nb(resid, w_within, w_between)

    def scatter_within_numba(resid, w_between, weights):
        resid = np.ascontiguousarray(resid)
        partial = _scatter_within_nb(resid, w_between, weights)
        return partial.sum(axis=0)

    def scatter_between_numba(resid, w_within, weights):
        resid = np.ascontiguousarray(resid)
        partial = _scatter_between_nb(resid, w_within, weights)
        return partial.sum(axis=0)

    quad_forms_kron = quad_forms_kron_numba
    scatter_within = scatter_within_numba
    scatter_between = scatter_between_numba
else:
    quad_forms_kron = quad_forms_kron_numpy
    scatter_within = scatter_within_numpy
    scatter_between = scatter_between_numpy
