"""Batched per-voxel contractions used by the E- and M-steps, and the
package's one block rule.

Fixed voxel blocks in a fixed order define the bits. voxel_blocks cuts
range(n_voxels) into BLOCK = 256 consecutive voxels, the last block
taking the remainder, and every pass over voxels in the kernels, the EM
residuals and projection (em), the per-voxel preprocessing steps
(preprocess), the t-statistics (inference) and the simulated covariate
term (simulate) walks those blocks in order. A result has the bits of its
blocks' operations, with any sum over voxels added in block order; it
does not have the bits of one operation over all voxels, since BLAS
picks its kernel by matrix size. The blocks depend only on n_voxels, so
outputs are bit-identical across runs and BLAS thread counts.

No BLAS call covers more than one block of rows. Past about 5.2e5
multiply-adds OpenBLAS splits a GEMM over its threads, and the woken
helper thread then spins for about 0.1 s after the call returns: a
2-thread process spends up to 1.6 cores for no gain, and takes a core
from any process beside it. At the default geometry a block's largest
product, 256 * 10 * 14 * 14 = 501,760 multiply-adds, stays under that.

The three kernels are numpy code built on flat GEMMs. Every temporary
is a block (BLOCK * n_epochs * n_times doubles, 280 kB at the default
geometry) and stays in cache instead of being a full-size copy of the
residual. BLAS threads come from the process environment
(OPENBLAS_NUM_THREADS at start-up); nothing here sets them.

No reduction over the voxel axis goes through a BLAS GEMV or dot: BLAS
splits those reductions by thread count, so their last bits would change
with OPENBLAS_NUM_THREADS. Per-voxel sums are np.einsum row dots. Sums
over voxels are one GEMM per block with an n_times x n_times or
n_epochs x n_epochs output. Two other shapes were measured
thread-variant on OpenBLAS 0.3.31 (SkylakeX core) and are not to be
used: a weighted second moment summed over all voxels in one
(140 x V)(V x 140) GEMM, or in 14 x 140 tiles of it, and quadratic forms
taken as block @ kron(w_between, w_within), a (256 x 140)(140 x 140)
product. 14 x 14 tiles of the second moment are invariant but cost more
than the four scatters they would replace.

resid arrays have shape (n_voxels, n_epochs, n_times); w_within is the
inverse of the within-epoch factor (n_times, n_times) and w_between the
inverse of the between-epoch factor (n_epochs, n_epochs).
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "backend_name",
    "quad_forms_kron",
    "scatter_within",
    "scatter_between",
]

# voxels per block of every pass over voxels; 256 measured fastest for
# the kernels at the default geometry on a 2-vCPU host
BLOCK = 256


def backend_name() -> str:
    """Name of the kernel backend, recorded with each benchmark run."""
    return "numpy"


def voxel_blocks(n_vox: int):
    """Slices of at most BLOCK consecutive voxels covering range(n_vox)."""
    for start in range(0, n_vox, BLOCK):
        yield slice(start, start + BLOCK)


def quad_forms_kron(
    resid: np.ndarray, w_within: np.ndarray, w_between: np.ndarray
) -> np.ndarray:
    """Per-voxel quadratic forms under the inverse Kronecker covariance."""
    n_vox, _, n_t = resid.shape
    out = np.empty(n_vox)
    for sl in voxel_blocks(n_vox):
        blk = resid[sl]
        tmp = (blk.reshape(-1, n_t) @ w_within).reshape(blk.shape)
        tmp = w_between @ tmp
        n_blk = blk.shape[0]
        out[sl] = np.einsum(
            "vn,vn->v", tmp.reshape(n_blk, -1), blk.reshape(n_blk, -1)
        )
    return out


def scatter_within(
    resid: np.ndarray, w_between: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted within-epoch scatter: sum_v weights[v] R_v' w_between R_v.

    R_v is the (n_epochs, n_times) residual matrix of voxel v; the result
    is (n_times, n_times).
    """
    n_t = resid.shape[2]
    acc = np.zeros((n_t, n_t))
    for sl in voxel_blocks(resid.shape[0]):
        blk = resid[sl]
        weighted = w_between @ blk
        weighted *= weights[sl, None, None]
        acc += weighted.reshape(-1, n_t).T @ blk.reshape(-1, n_t)
    return acc


def scatter_between(
    resid: np.ndarray, w_within: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted between-epoch scatter: sum_v weights[v] R_v w_within R_v'
    taken on the epoch side; result is (n_epochs, n_epochs)."""
    _, n_ep, n_t = resid.shape
    acc = np.zeros((n_ep, n_ep))
    for sl in voxel_blocks(resid.shape[0]):
        # epoch-major blocks turn the block's sum over (voxel, time) into
        # one (n_epochs, b * n_times) @ (b * n_times, n_epochs) GEMM: the
        # product with w_within writes the weighted block epoch-major, and
        # the block itself takes the one copy
        blk = resid[sl].transpose(1, 0, 2)
        weighted = np.matmul(blk, w_within)
        weighted *= weights[sl, None]
        acc += weighted.reshape(n_ep, -1) @ blk.reshape(n_ep, -1).T
    return acc

