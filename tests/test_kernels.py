"""The batched contractions against per-voxel loop oracles."""
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import assert_near, kron_quad_form, rand_spd
from trialmix import kernels


def _instance(seed, n_vox=7, n_ep=4, n_t=5):
    rng = np.random.default_rng(seed)
    resid = rng.standard_normal((n_vox, n_ep, n_t))
    w_within = np.linalg.inv(rand_spd(rng, n_t))
    w_between = np.linalg.inv(rand_spd(rng, n_ep))
    weights = rng.uniform(0.0, 1.0, n_vox)
    return resid, w_within, w_between, weights


def _quad_loop(resid, w_within, w_between):
    out = np.empty(resid.shape[0])
    for v in range(resid.shape[0]):
        out[v] = np.trace(w_between @ resid[v] @ w_within @ resid[v].T)
    return out


def _scatter_within_loop(resid, w_between, weights):
    acc = np.zeros((resid.shape[2], resid.shape[2]))
    for v in range(resid.shape[0]):
        acc += weights[v] * resid[v].T @ w_between @ resid[v]
    return acc


def _scatter_between_loop(resid, w_within, weights):
    acc = np.zeros((resid.shape[1], resid.shape[1]))
    for v in range(resid.shape[0]):
        acc += weights[v] * resid[v] @ w_within @ resid[v].T
    return acc


def test_numpy_backend_matches_loop_oracles():
    # block edges: one voxel, one short of a block, one past it, and a
    # ragged last block after several full ones
    block = kernels.BLOCK
    sizes = [7] * 5 + [1, block - 1, block + 1, 3 * block + 7]
    for seed, n_vox in enumerate(sizes):
        resid, w_within, w_between, weights = _instance(seed, n_vox=n_vox)
        np.testing.assert_allclose(
            kernels.quad_forms_kron(resid, w_within, w_between),
            _quad_loop(resid, w_within, w_between),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            kernels.scatter_within(resid, w_between, weights),
            _scatter_within_loop(resid, w_between, weights),
            rtol=1e-12,
            atol=1e-13,
        )
        np.testing.assert_allclose(
            kernels.scatter_between(resid, w_within, weights),
            _scatter_between_loop(resid, w_within, weights),
            rtol=1e-12,
            atol=1e-13,
        )


def _scatter_between_voxel_major(resid, w_within, weights):
    """scatter_between with the weighted block made voxel-major and both
    operands then copied epoch-major."""
    _, n_ep, n_t = resid.shape
    acc = np.zeros((n_ep, n_ep))
    for sl in kernels.voxel_blocks(resid.shape[0]):
        blk = resid[sl]
        weighted = (blk.reshape(-1, n_t) @ w_within).reshape(blk.shape)
        weighted *= weights[sl, None, None]
        left = weighted.transpose(1, 0, 2).reshape(n_ep, -1)
        right = blk.transpose(1, 0, 2).reshape(n_ep, -1)
        acc += left @ right.T
    return acc


def test_scatter_between_keeps_the_voxel_major_bits():
    # the GEMM that writes the weighted block epoch-major agrees with the
    # voxel-major one to 1e-12 of the largest entry, a one-voxel last
    # block (whose rows numpy takes as GEMVs) included
    block = kernels.BLOCK
    for seed, n_vox in enumerate([1, block - 1, block + 1, 3 * block + 40]):
        resid, w_within, _, weights = _instance(seed, n_vox=n_vox, n_ep=10,
                                                n_t=14)
        assert_near(kernels.scatter_between(resid, w_within, weights),
                    _scatter_between_voxel_major(resid, w_within, weights),
                    f"{n_vox} voxels")


def test_quad_forms_match_per_voxel_kron_solver():
    resid, w_within, w_between, _ = _instance(11)
    within = np.linalg.inv(w_within)
    between = np.linalg.inv(w_between)
    got = kernels.quad_forms_kron(resid, w_within, w_between)
    for v in range(resid.shape[0]):
        expected = kron_quad_form(between, within, resid[v].T)
        assert abs(got[v] - expected) < 1e-9 * max(1.0, abs(expected))


def test_zero_weight_voxels_drop_out_of_scatters():
    resid, w_within, w_between, weights = _instance(4)
    weights = weights.copy()
    weights[::2] = 0.0
    keep = weights > 0.0
    np.testing.assert_allclose(
        kernels.scatter_within(resid, w_between, weights),
        kernels.scatter_within(resid[keep], w_between, weights[keep]),
        rtol=1e-12,
        atol=1e-13,
    )
    np.testing.assert_allclose(
        kernels.scatter_between(resid, w_within, weights),
        kernels.scatter_between(resid[keep], w_within, weights[keep]),
        rtol=1e-12,
        atol=1e-13,
    )


def test_quad_forms_positive_for_spd_weights():
    resid, w_within, w_between, _ = _instance(5)
    assert np.all(kernels.quad_forms_kron(resid, w_within, w_between) > 0.0)


def _temporary_peak(kernel, *args):
    """Peak traced bytes of one call, less the result it returns."""
    kernel(*args)  # first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        result = kernel(*args)
        return tracemalloc.get_traced_memory()[1] - result.nbytes
    finally:
        tracemalloc.stop()


def test_kernel_temporaries_do_not_grow_with_voxels():
    # the voxel blocking bounds every temporary by a few blocks, however
    # many voxels the residual holds; a full-size copy would add 4 MB
    n_ep, n_t = 10, 14
    block_bytes = kernels.BLOCK * n_ep * n_t * 8
    peaks = {}
    for n_vox in (2 * kernels.BLOCK, 16 * kernels.BLOCK):
        resid, w_within, w_between, weights = _instance(
            0, n_vox=n_vox, n_ep=n_ep, n_t=n_t)
        calls = {
            kernels.quad_forms_kron: (resid, w_within, w_between),
            kernels.scatter_within: (resid, w_between, weights),
            kernels.scatter_between: (resid, w_within, weights),
        }
        for kernel, args in calls.items():
            peaks.setdefault(kernel.__name__, []).append(
                _temporary_peak(kernel, *args))
    for name, (small, large) in peaks.items():
        # a few bytes of loop bookkeeping may differ, never an array
        assert abs(large - small) < 1024, (name, small, large)
        # two blocks each: scatter_between's are its weighted block, made
        # epoch-major by its GEMM, and the epoch-major copy of the block
        assert large < 3 * block_bytes, (name, large / block_bytes)



def _scaled_rows(values, out, scale):
    if np.any(values < 0.0):
        raise ValueError("negative value")
    np.multiply(values, scale, out=out)


def _split_instance(n_vox=3 * kernels.BLOCK):
    lanes = kernels.Lanes(n_vox, helper=True)
    values, out = lanes.empty(n_vox), lanes.empty(n_vox)
    values[:] = 1.0
    return lanes, values, out


def test_split_emits_the_helpers_warnings_in_the_caller():
    # only the helper's rows overflow: their warning comes back to the
    # caller, from the line that raised it, and the rows land in out
    lanes, values, out = _split_instance()
    values[-1] = 1e10
    with lanes, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernels.split(_scaled_rows, None, (values, out), 1e300)
    assert [str(w.message) for w in caught] == [
        "overflow encountered in multiply"]
    assert caught[0].filename == __file__
    assert np.all(out[:-1] == 1e300) and out[-1] == np.inf


def test_split_raises_the_helpers_error_in_the_caller():
    lanes, values, out = _split_instance()
    values[-1] = -1.0
    with lanes, pytest.raises(ValueError, match="negative value"):
        kernels.split(_scaled_rows, None, (values, out), 2.0)
