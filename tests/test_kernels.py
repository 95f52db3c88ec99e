"""Backend equivalence and determinism of the batched contractions."""
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import rand_spd
from trialmix import kernels
from trialmix.linalg import kron_quad_form


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
            kernels.quad_forms_kron_numpy(resid, w_within, w_between),
            _quad_loop(resid, w_within, w_between),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            kernels.scatter_within_numpy(resid, w_between, weights),
            _scatter_within_loop(resid, w_between, weights),
            rtol=1e-12,
            atol=1e-13,
        )
        np.testing.assert_allclose(
            kernels.scatter_between_numpy(resid, w_within, weights),
            _scatter_between_loop(resid, w_within, weights),
            rtol=1e-12,
            atol=1e-13,
        )


def test_quad_forms_match_per_voxel_kron_solver():
    resid, w_within, w_between, _ = _instance(11)
    within = np.linalg.inv(w_within)
    between = np.linalg.inv(w_between)
    got = kernels.quad_forms_kron(resid, w_within, w_between)
    for v in range(resid.shape[0]):
        expected = kron_quad_form(between, within, resid[v].T)
        assert abs(got[v] - expected) < 1e-9 * max(1.0, abs(expected))


def test_active_backend_agrees_with_numpy():
    for seed in range(5):
        resid, w_within, w_between, weights = _instance(seed, n_vox=23)
        for pair in (
            (
                kernels.quad_forms_kron(resid, w_within, w_between),
                kernels.quad_forms_kron_numpy(resid, w_within, w_between),
            ),
            (
                kernels.scatter_within(resid, w_between, weights),
                kernels.scatter_within_numpy(resid, w_between, weights),
            ),
            (
                kernels.scatter_between(resid, w_within, weights),
                kernels.scatter_between_numpy(resid, w_within, weights),
            ),
        ):
            np.testing.assert_allclose(pair[0], pair[1], rtol=1e-12, atol=1e-12)


@pytest.mark.skipif(
    kernels.backend_name() != "numba", reason="compiled backend not active"
)
def test_compiled_backend_is_bit_identical_across_runs():
    resid, w_within, w_between, weights = _instance(3, n_vox=31)
    first = (
        kernels.quad_forms_kron(resid, w_within, w_between),
        kernels.scatter_within(resid, w_between, weights),
        kernels.scatter_between(resid, w_within, weights),
    )
    second = (
        kernels.quad_forms_kron(resid, w_within, w_between),
        kernels.scatter_within(resid, w_between, weights),
        kernels.scatter_between(resid, w_within, weights),
    )
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


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


def test_set_num_threads_validates_and_clamps():
    with pytest.raises(ValueError):
        kernels.set_num_threads(0)
    # requests beyond the pool size clamp instead of raising
    kernels.set_num_threads(64)
    kernels.set_num_threads(1)


def test_env_flag_forces_numpy_backend():
    code = "import trialmix.kernels as k; print(k.backend_name())"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, TRIALMIX_KERNELS="numpy"),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"


def test_env_flag_rejects_unknown_value():
    out = subprocess.run(
        [sys.executable, "-c", "import trialmix.kernels"],
        capture_output=True,
        text=True,
        env=dict(os.environ, TRIALMIX_KERNELS="cuda"),
    )
    assert out.returncode != 0
    assert "TRIALMIX_KERNELS" in out.stderr
